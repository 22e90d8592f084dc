"""Link state for tests: `LinkStateSnapshot`s filled one link at a time.

The control plane reads link state only as a snapshot.  A test states
its topology as a rule, ``state(src, dst, link_type) -> (latency_ms,
loss_rate)``, and `snapshot_of` evaluates the rule once per directed
link; `link_model_snapshot` is the scalar `LinkProcess` model of an
underlay in the same form — the reference `Underlay.snapshot` must
equal bit for bit; `series_of` is one `LinkProcess` as the time-series
function `burst_series` probes.  `nib_history` reads one link's reports
back out of a NIB through its checkpoint export.
"""

from typing import Callable, List, Optional, Sequence, Tuple

from repro.controlplane.nib import LinkReport
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


def series_of(link):
    """`link`'s scalar model as a function of a time grid: times ->
    (latency_ms, loss_rate)."""
    return lambda times: (link.latency_ms(times), link.loss_rate(times))


def nib_history(nib, src: str, dst: str,
                link_type: LinkType) -> List[LinkReport]:
    """The windowed reports `nib` holds for one link, oldest first, as
    `export_reports` writes them; ``[-1]`` is the latest."""
    return [LinkReport(doc["src"], doc["dst"], LinkType(doc["link_type"]),
                       doc["latency_ms"], doc["loss_rate"],
                       doc["reported_at"])
            for doc in nib.export_reports()
            if (doc["src"], doc["dst"], doc["link_type"])
            == (src, dst, link_type.value)]
