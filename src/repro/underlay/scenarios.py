"""Scripted underlay scenarios for case studies and tests.

Lets an experiment replace the degradation timeline of specific links with
hand-written events — e.g. Fig. 16's 'one long degradation from 17:42 to
23:37' — while the rest of the underlay keeps its natural behaviour.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.underlay.events import DegradationEvent, EventTimeline
from repro.underlay.linkstate import LinkType
from repro.underlay.topology import Underlay


def inject_events(underlay: Underlay, src: str, dst: str,
                  link_type: LinkType, events: Sequence[DegradationEvent],
                  keep_existing: bool = False) -> None:
    """Replace (or extend) one directed link's degradation timeline."""
    timeline = underlay.link(src, dst, link_type).timeline
    merged: List[DegradationEvent] = list(events)
    if keep_existing:
        merged.extend(timeline.events)
    underlay.set_timeline(src, dst, link_type, EventTimeline.from_events(
        merged, timeline.horizon_s))


def quiet_link(underlay: Underlay, src: str, dst: str,
               link_type: LinkType) -> None:
    """Remove every degradation event from one directed link."""
    inject_events(underlay, src, dst, link_type, [])


def long_term_degradation(start_s: float, end_s: float,
                          latency_add_ms: float = 600.0,
                          loss_add: float = 0.08) -> List[DegradationEvent]:
    """Fig. 16a's pattern: one sustained multi-hour degradation."""
    if end_s <= start_s:
        raise ValueError("degradation must have positive duration")
    return [DegradationEvent(start_s, end_s - start_s, latency_add_ms,
                             loss_add)]


def short_frequent_degradations(start_s: float, end_s: float,
                                period_s: float = 180.0,
                                duration_s: float = 12.0,
                                latency_add_ms: float = 900.0,
                                loss_add: float = 0.15
                                ) -> List[DegradationEvent]:
    """Fig. 16b's pattern: brief drops every few minutes for hours."""
    if end_s <= start_s:
        raise ValueError("window must have positive duration")
    events = []
    t = start_s
    while t < end_s:
        events.append(DegradationEvent(t, duration_s, latency_add_ms,
                                       loss_add))
        t += period_s
    return events
