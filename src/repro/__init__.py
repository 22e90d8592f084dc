"""XRON reproduction: a hybrid elastic cloud overlay network.

A complete, from-scratch Python implementation of the system described in
"XRON: A Hybrid Elastic Cloud Overlay Network for Video Conferencing at
Planetary Scale" (SIGCOMM 2023), together with the synthetic substrates
(underlay, traffic, container lifecycle, QoE, billing) its evaluation
depends on, and a harness regenerating every table and figure.

Entry points:

>>> from repro.core import XRONSystem, xron, internet_only
>>> system = XRONSystem(seed=42)
>>> result = system.run(variant=xron(), start_hour=9.0, hours=1.0)

or from the shell: ``python -m repro --help``.
"""

# numpy imports `numpy.ma` lazily, on the first `np.unique` (which asks
# `np.ma.is_masked`): about 20 ms that would otherwise land in the first
# probing instant or control epoch of a run rather than in its set-up.
import numpy.ma  # noqa: F401

__version__ = "1.0.0"

__all__ = ["__version__"]
