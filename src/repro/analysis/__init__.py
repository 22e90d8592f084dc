"""Statistics and text-plot helpers shared by the engines and experiments."""

from repro.analysis.stats import weighted_percentiles

__all__ = [
    "weighted_percentiles",
]
