"""Stream ids are fresh: neither workload hands out an id twice across
`decompose` calls, and `StreamWorkload`, the one a checkpoint carries,
not across an `export_state` / `import_state` round trip (a warm
restart) either.  A partial install rests on this: the rows it cuts
belong to streams no region has held a row of
(`faults.runtime.FaultExtension.truncate_install`)."""

import json

import numpy as np
import pytest

from repro.traffic.cohorts import CohortWorkload
from repro.traffic.demand import DemandModel
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.streams import StreamWorkload
from repro.underlay.regions import default_regions

WORKLOADS = {
    "streams": lambda: StreamWorkload(np.random.default_rng(5)),
    "cohorts": lambda: CohortWorkload(seed=5),
}


@pytest.fixture(scope="module")
def matrices():
    demand = DemandModel(default_regions(), seed=3)
    return [TrafficMatrix.from_model(demand, hour * 3600.0)
            for hour in (8, 9, 10, 11)]


def _ids(workload, matrix):
    ids = workload.decompose(matrix).stream_id.tolist()
    assert len(ids) == len(set(ids))
    return set(ids)


@pytest.mark.parametrize("kind", list(WORKLOADS))
def test_no_id_is_reissued_across_decompose_calls(kind, matrices):
    workload = WORKLOADS[kind]()
    seen = set()
    for matrix in matrices + matrices:
        ids = _ids(workload, matrix)
        assert ids and not ids & seen
        seen |= ids


@pytest.mark.parametrize("kind", ["streams"])
def test_no_id_is_reissued_after_a_restore(kind, matrices):
    """A workload restored from a checkpoint taken after any number of
    decompositions continues with ids none of them issued, and with
    the ids the original issues next."""
    original = WORKLOADS[kind]()
    seen = set()
    for matrix in matrices[:2]:
        seen |= _ids(original, matrix)
    doc = json.loads(json.dumps(original.export_state()))
    restored = WORKLOADS[kind]()
    restored.import_state(doc)
    for matrix in matrices[2:]:
        ids = _ids(restored, matrix)
        assert ids and not ids & seen
        assert ids == _ids(original, matrix)
        seen |= ids
