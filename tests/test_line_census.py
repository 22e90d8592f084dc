"""The line census (`tests/line_census.py`) on a small synthetic module:
it reports exactly the lines a run leaves unreached, exempts raise
guards by syntax, and fails on an `EXEMPT` row that covers nothing."""

import importlib.util
import sys

from tests import line_census

SOURCE = '''\
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from os import PathLike


def clamp(x):
    if x < 0:
        raise ValueError(x)
    if x > 100:
        return 100
    try:
        y = int(x)
    except TypeError:
        raise
    return y


def unused():
    total = 0
    return total
'''


def _census(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    tracer = line_census.LineTracer(str(tmp_path))
    before = sys.gettrace()
    tracer.start(str(tmp_path))
    try:
        spec = importlib.util.spec_from_file_location("synthetic", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.clamp(5) == 5
    finally:
        tracer.stop()
        sys.settrace(before)
    return line_census.census(tmp_path, tracer.merged())


def test_reports_exactly_the_unreached_blocks(tmp_path):
    (fc,) = _census(tmp_path)
    assert [(b.qualname, b.first, b.last, b.text, b.size)
            for b in fc.blocks] == [
        ("clamp", 11, 11, "return 100", 1),
        ("unused", 20, 21, "total = 0", 2),
    ]
    # The raise, the raise-only except clause and the TYPE_CHECKING
    # import are unreached but exempt by syntax.
    assert fc.guarded == 4
    assert fc.reached == fc.executable - fc.guarded - 3


def test_rows_cover_blocks_and_stale_rows_fail(tmp_path):
    files = _census(tmp_path)
    rows = [("synthetic.py", "clamp", "return 100", "bound"),
            ("synthetic.py", "unused", "total = 0", "empty")]
    covered, uncovered, stale = line_census.judge(files, rows)
    assert sorted(covered.values()) == ["bound", "empty"]
    assert uncovered == [] and stale == []

    # A row whose code is gone, or that names a reached line, is stale;
    # a wall-clock row only needs its code to exist.
    gone = ("synthetic.py", "clamp", "return -1", "bound")
    reached = ("synthetic.py", "clamp", "return y", "empty")
    timing = ("synthetic.py", "clamp", "y = int(x)", "wall-clock")
    covered, uncovered, stale = line_census.judge(
        files, rows[:1] + [gone, reached, timing])
    assert [b.text for b in uncovered] == ["total = 0"]
    assert stale == [gone, reached]


def test_exempt_rows_name_a_known_reason():
    for row in line_census.EXEMPT:
        assert row[3] in line_census.REASONS, row
