"""Link state for tests: `LinkStateSnapshot`s filled one link at a time.

The control plane reads link state only as a snapshot.  A test states
its topology as a rule, ``state(src, dst, link_type) -> (latency_ms,
loss_rate)``, and `snapshot_of` evaluates the rule once per directed
link; `link_model_snapshot` is the scalar `LinkProcess` model of an
underlay in the same form — the reference `Underlay.snapshot` must
equal bit for bit.
"""

from typing import Callable, Optional, Sequence, Tuple

from repro.underlay.linkstate import LinkType
from repro.underlay.snapshot import TYPE_ORDER, LinkStateSnapshot

LinkRule = Callable[[str, str, LinkType], Tuple[float, float]]


def snapshot_of(codes: Sequence[str], state: LinkRule,
                t: Optional[float] = None) -> LinkStateSnapshot:
    """The snapshot over `codes` whose link ``a -> b`` of tier ``lt``
    reads ``state(a, b, lt)``; the diagonal stays missing."""
    snap = LinkStateSnapshot.empty(codes, t)
    for ti, link_type in enumerate(TYPE_ORDER):
        for i, a in enumerate(snap.codes):
            for j, b in enumerate(snap.codes):
                if i != j:
                    snap.lat[ti, i, j], snap.loss[ti, i, j] = state(
                        a, b, link_type)
    return snap


def link_model_snapshot(underlay, now: float) -> LinkStateSnapshot:
    """Every link of `underlay` at `now`, each read from its own scalar
    `LinkProcess.latency_ms` / `loss_rate`."""
    def state(a: str, b: str, link_type: LinkType) -> Tuple[float, float]:
        link = underlay.link(a, b, link_type)
        return (float(link.latency_ms(now)), float(link.loss_rate(now)))
    return snapshot_of(underlay.codes, state, now)
