"""Link state for tests: `LinkStateSnapshot`s filled one link at a time.

The control plane reads link state only as a snapshot.  A test states
its topology as a rule, ``state(src, dst, link_type) -> (latency_ms,
loss_rate)``, and `snapshot_of` evaluates the rule once per directed
link.  `ScalarLink` is the link model written once more, scalar per
link, over one link's parameters as the underlay's `LinkTable` holds
them: the oracle the table must equal bit for bit.
`link_model_snapshot` is that model of a whole underlay in snapshot
form — the reference `Underlay.snapshot` and the control goldens are
held to; `series_of` is one link as the time-series function
`burst_series` probes.  `nib_history` reads one link's reports back
out of a NIB through its checkpoint export.
"""

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.controlplane.nib import LinkReport
from repro.sim.rng import hash_noise
from repro.underlay.linkstate import LinkType, busy_factor
from repro.underlay.snapshot import TYPE_ORDER, LinkStateSnapshot

LinkRule = Callable[[str, str, LinkType], Tuple[float, float]]


class ScalarLink:
    """One directed link's latency / loss, computed per call from its
    own scalar parameters: read from the table row behind the
    `LinkProcess` view `link` when constructed, so a later
    `Underlay.set_timeline` needs a new one."""

    def __init__(self, link):
        table, row = link._table, link._row
        self.src = link.src
        self.base_latency_ms = float(table.base_latency_ms[row])
        self.jitter_sigma = float(table.jitter_sigma[row])
        self.diurnal_latency_amp = float(table.diurnal_latency_amp[row])
        self.base_loss = float(table.base_loss[row])
        self.diurnal_loss_amp = float(table.diurnal_loss_amp[row])
        self.timeline = table.timelines[row]
        self.noise_seed = int(table.noise_seed[row])

    def latency_ms(self, t) -> np.ndarray:
        """One-way latency in ms at time(s) `t` (seconds of virtual time)."""
        t = np.asarray(t, dtype=float)
        self._check_horizon(t)
        local_h = (t / 3600.0 + self.src.utc_offset) % 24.0
        diurnal = 1.0 + self.diurnal_latency_amp * busy_factor(local_h)
        jitter = np.exp(self.jitter_sigma * hash_noise(self.noise_seed, t, salt=1))
        return self.base_latency_ms * diurnal * jitter + self.timeline.latency_add(t)

    def loss_rate(self, t) -> np.ndarray:
        """Loss rate in [0, 1] at time(s) `t`."""
        t = np.asarray(t, dtype=float)
        self._check_horizon(t)
        local_h = (t / 3600.0 + self.src.utc_offset) % 24.0
        diurnal = self.diurnal_loss_amp * busy_factor(local_h)
        jitter = np.exp(0.6 * hash_noise(self.noise_seed, t, salt=2))
        raw = self.base_loss * jitter + diurnal + self.timeline.loss_add(t)
        return np.clip(raw, 0.0, 1.0)

    def _check_horizon(self, t: np.ndarray) -> None:
        if t.size and float(np.max(t)) > self.timeline.horizon_s:
            raise ValueError(
                f"query at t={float(np.max(t)):.0f}s exceeds the generated "
                f"horizon {self.timeline.horizon_s:.0f}s; build the underlay "
                "with a larger horizon")


def empty_snapshot(codes: Sequence[str],
                   t: Optional[float] = None) -> LinkStateSnapshot:
    """The snapshot over `codes` with every link missing (inf, 1)."""
    n = len(codes)
    return LinkStateSnapshot(codes, np.full((2, n, n), np.inf),
                             np.ones((2, n, n)), t)


def snapshot_of(codes: Sequence[str], state: LinkRule,
                t: Optional[float] = None) -> LinkStateSnapshot:
    """The snapshot over `codes` whose link ``a -> b`` of tier ``lt``
    reads ``state(a, b, lt)``; the diagonal stays missing."""
    snap = empty_snapshot(codes, t)
    for ti, link_type in enumerate(TYPE_ORDER):
        for i, a in enumerate(snap.codes):
            for j, b in enumerate(snap.codes):
                if i != j:
                    snap.lat[ti, i, j], snap.loss[ti, i, j] = state(
                        a, b, link_type)
    return snap


def link_model_snapshot(underlay, now: float) -> LinkStateSnapshot:
    """Every link of `underlay` at `now`, each from its own `ScalarLink`."""
    def state(a: str, b: str, link_type: LinkType) -> Tuple[float, float]:
        link = ScalarLink(underlay.link(a, b, link_type))
        return (float(link.latency_ms(now)), float(link.loss_rate(now)))
    return snapshot_of(underlay.codes, state, now)


def series_of(link):
    """The `ScalarLink` of the view `link` as a function of a time
    grid: times -> (latency_ms, loss_rate)."""
    oracle = ScalarLink(link)
    return lambda times: (oracle.latency_ms(times), oracle.loss_rate(times))


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
