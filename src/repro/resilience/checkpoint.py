"""Controller checkpoints for warm restarts.

A `Checkpoint` is a JSON-round-trippable snapshot of everything the
controller would otherwise have to relearn after a crash: the NIB's
windowed link reports, the SIB's per-pair demand histories and fitted
predictor models, the stream workload's id counter and RNG state, and
the last tables/plans that were committed to the data plane.

The expensive state is the SIB: the NIB refills within seconds of
probing, but demand history accumulates one observation per control
epoch — a cold-started controller predicts on a persistence fallback
for `min_history` epochs before its Fourier model can fit again.
Restoring the SIB is what cuts post-outage reconvergence from multiple
epochs to one.

Serialization goes through each subsystem's own ``export_state`` /
``import_state`` hooks (`NetworkInformationBase.export_reports`,
`StreamInformationBase.export_state`, `StreamWorkload.export_state`,
aggregated by `Controller.export_state`), so the checkpoint format
lives next to the state it captures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.controlplane.controller import Controller
from repro.resilience.invariants import Plans, Tables
from repro.underlay.linkstate import LinkType


@dataclass
class Checkpoint:
    """One serialized controller state plus the last committed install."""

    #: Simulated time the checkpoint was taken.
    t: float
    #: The harness epoch sequence at checkpoint time.
    epoch_seq: int
    #: The install version the data plane last committed.
    version: int
    #: `Controller.export_state` document (NIB + SIB + workload).
    controller_state: Dict[str, object]
    #: Last committed forwarding tables, per region.
    tables: Tables
    #: Last committed reaction plans, per region.
    plans: Plans
    #: `FaultInjector.export_state` document (None without a schedule).
    #: Anchoring injector progress in the checkpoint is what lets a
    #: restore at t > 0 skip already-fired one-shot fault windows.
    fault_state: Optional[Dict[str, object]] = None

    # --------------------------------------------------------------- capture
    @classmethod
    def take(cls, controller: Controller, tables: Tables, plans: Plans,
             *, t: float, epoch_seq: int, version: int,
             fault_state: Optional[Dict[str, object]] = None) -> "Checkpoint":
        """Snapshot a live controller and the last committed install
        (`tables` / `plans` are kept as handed over: pass copies, as
        `RegionCluster.current_entries` / `current_plans` are)."""
        return cls(t=float(t), epoch_seq=int(epoch_seq), version=int(version),
                   controller_state=controller.export_state(),
                   tables=tables, plans=plans, fault_state=fault_state)

    def restore(self, controller: Controller) -> None:
        """Load this checkpoint into a freshly constructed controller."""
        controller.import_state(self.controller_state)

    # ------------------------------------------------------------------ json
    def to_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "t": self.t,
            "epoch_seq": self.epoch_seq,
            "version": self.version,
            "controller_state": self.controller_state,
            "tables": {
                code: {str(sid): [nxt, lt.value]
                       for sid, (nxt, lt) in sorted(rows.items())}
                for code, rows in sorted(self.tables.items())},
            "plans": {
                code: {str(sid): list(relays)
                       for sid, relays in sorted(rows.items())}
                for code, rows in sorted(self.plans.items())},
        }
        # Kept out of the document when absent so checkpoints from
        # fault-free runs stay byte-identical to the pre-fault-state
        # format (and old checkpoints load unchanged).
        if self.fault_state is not None:
            doc["fault_state"] = self.fault_state
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, object]) -> "Checkpoint":
        tables: Tables = {
            code: {int(sid): (row[0], LinkType(row[1]))
                   for sid, row in rows.items()}
            for code, rows in doc["tables"].items()}
        plans: Plans = {
            code: {int(sid): tuple(relays)
                   for sid, relays in rows.items()}
            for code, rows in doc["plans"].items()}
        return cls(t=float(doc["t"]), epoch_seq=int(doc["epoch_seq"]),
                   version=int(doc["version"]),
                   controller_state=doc["controller_state"],
                   tables=tables, plans=plans,
                   fault_state=doc.get("fault_state"))

    def dumps(self) -> str:
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text: str) -> "Checkpoint":
        return cls.from_json(json.loads(text))


__all__ = ["Checkpoint"]
