"""Resilience settings (safe updates, recovery, degraded forwarding).

One frozen config arms the whole safe-update & recovery layer: passing
one to `EventDrivenXRON(resilience=...)` adds the layer's extension
(`repro.resilience.extension`), passing ``None`` leaves it out — and a
run without it is byte-identical to a build without the subsystem (no
extra RNG draws, no extra events, no behavioural change).

Its two fields are the mechanisms the recovery experiment switches off
one at a time.  The layer's fixed design values are named where they
are read: the retry policy (`repro.resilience.install.MAX_INSTALL_RETRIES`,
`RETRY_BACKOFF_S`, `RETRY_BACKOFF_FACTOR`), the stale-table threshold
(`install.STALENESS_EPOCHS` control epochs) and the failback hold-down
(`repro.dataplane.gateway.FAILBACK_HOLDDOWN_S`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResilienceConfig:
    """Switches of the safe-update & recovery layer.

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

    #: Serialize a controller checkpoint every control epoch; a
    #: ``controller_outage`` is a process restart either way (reports
    #: sent during it are lost), warm from the last checkpoint when
    #: there is one and cold otherwise.
    checkpoint_enabled: bool = True
    #: Hold a stream on its backup for the failback hold-down after a
    #: failover, even if monitoring says the normal link has recovered.
    hysteresis_enabled: bool = True


def resilience() -> ResilienceConfig:
    """The layer with both mechanisms on (convenience constructor)."""
    return ResilienceConfig()


__all__ = ["ResilienceConfig", "resilience"]
