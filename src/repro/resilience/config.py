"""Resilience tunables (safe updates, recovery, degraded forwarding).

One frozen config arms the whole safe-update & recovery layer: passing
one to `EventDrivenXRON(resilience=...)` adds the layer's extension
(`repro.resilience.extension`), passing ``None`` leaves it out — and a
run without it is byte-identical to a build without the subsystem (no
extra RNG draws, no extra events, no behavioural change).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the safe-update & recovery layer.

    Grouped by mechanism:

    * **versioned two-phase installs** — forwarding updates carry the
      epoch version, are validated against the routing invariants
      before anything commits, and commit everywhere or nowhere; a
      failed install is retried with bounded exponential backoff while
      every gateway keeps its last-good table.
    * **checkpoint / warm restart** — the controller every epoch
      serializes its NIB/SIB/last-install state to a JSON checkpoint;
      after an outage the restarted controller restores from it instead
      of cold-starting.
    * **degraded-mode forwarding** — gateways track how stale their
      installed table is and, past the threshold, demote Internet-path
      entries to the direct premium link (the stable-but-expensive
      floor).
    * **failover hysteresis** — a hold-down timer before failback, so
      noisy loss cannot flap traffic between the normal and backup
      path.
    """

    # ------------------------------------------- versioned two-phase installs
    #: How many times a rejected install is retried before giving up.
    max_install_retries: int = 3
    #: First retry delay, seconds.
    retry_backoff_s: float = 2.0
    #: Multiplier applied to the delay on each further retry.
    retry_backoff_factor: float = 2.0

    # ------------------------------------------ checkpoint and warm restart
    #: Serialize a controller checkpoint every control epoch; a
    #: ``controller_outage`` is a process restart either way (reports
    #: sent during it are lost), warm from the last checkpoint when
    #: there is one and cold otherwise.
    checkpoint_enabled: bool = True

    # ---------------------------------------------- degraded-mode forwarding
    #: Missed control epochs before a gateway considers its table stale.
    staleness_epochs: int = 3
    #: Absolute staleness threshold, seconds.  None derives it as
    #: ``staleness_epochs * epoch_s`` when the simulator resolves the
    #: config (see :meth:`resolved`).
    staleness_threshold_s: Optional[float] = None

    # -------------------------------------------------- failover hysteresis
    #: Hold-down timer after a failover.
    hysteresis_enabled: bool = True
    #: Minimum time a stream stays on its backup after a failover, even
    #: if monitoring says the normal link has recovered.
    failback_holddown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_install_retries < 0:
            raise ValueError("max_install_retries cannot be negative")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry_backoff_s must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.staleness_epochs < 1:
            raise ValueError("staleness_epochs must be >= 1")
        if (self.staleness_threshold_s is not None
                and self.staleness_threshold_s <= 0):
            raise ValueError("staleness_threshold_s must be positive")
        if self.failback_holddown_s < 0:
            raise ValueError("failback_holddown_s cannot be negative")

    def resolved(self, epoch_s: float) -> "ResilienceConfig":
        """Fill derived fields for a concrete deployment.

        Currently: the absolute staleness threshold, derived from the
        epoch length unless given explicitly.
        """
        if self.staleness_threshold_s is not None:
            return self
        return replace(self,
                       staleness_threshold_s=self.staleness_epochs * epoch_s)


def resilience() -> ResilienceConfig:
    """The layer with default knobs (convenience constructor)."""
    return ResilienceConfig()


__all__ = ["ResilienceConfig", "resilience"]
