"""The census (`tests/line_census.py`) on small synthetic modules: it
reports exactly the lines a run leaves unreached, exempts raise guards
by syntax, fails on an `EXEMPT` row that covers nothing, and counts a
setting as set only when a traced call binds it to a value other than
its default."""

import dataclasses
import importlib.util
import multiprocessing
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

SETTINGS_SOURCE = '''\
import dataclasses


@dataclasses.dataclass
class Box:
    size: int
    width: int = 1
    tags: list = dataclasses.field(default_factory=list)
    label: str = ""

    def grown(self, by=1):
        return dataclasses.replace(self, width=self.width + by)


UNIT = Box(1, width=2)
OPTIONS = {"clip": 3}


def scale(x, factor=1.0, *, clip=None):
    return x * factor


def namesake(factor=1.0):
    return factor


def forward(x, **kwargs):
    return scale(x, **kwargs)


def _private(flag=False):
    return flag
'''


def _trace(tmp_path, source, drive):
    """Import `source` as a module under the census's tracer, then run
    `drive(module)`: (lines reached, settings set, the module)."""
    path = tmp_path / "synthetic.py"
    path.write_text(source)
    tracer = line_census.Tracer(str(tmp_path))
    before = sys.gettrace()
    tracer.start(str(tmp_path))
    try:
        spec = importlib.util.spec_from_file_location("synthetic", path)
        module = sys.modules["synthetic"] = importlib.util.module_from_spec(
            spec)
        spec.loader.exec_module(module)
        drive(module)
    finally:
        tracer.stop()
        sys.settrace(before)
        sys.modules.pop("synthetic", None)
    hits, found = tracer.merged()
    return hits, found, module


def _census(tmp_path):
    hits, __, __ = _trace(tmp_path, SOURCE,
                          lambda module: module.clamp(5) == 5)
    return line_census.census(tmp_path, hits)


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
    for row in line_census.EXEMPT + line_census.EXEMPT_SETTINGS:
        assert row[3] in line_census.REASONS, row


def test_the_totals_follow_their_heading(tmp_path, capsys):
    # CI prints the report from the `TOTALS` line on, whatever the
    # number of reasons: the totals, then one line per reason.
    files = _census(tmp_path)
    rows = [("synthetic.py", "clamp", "return 100", "bound")]
    line_census.report(files, line_census.judge(files, rows), [],
                       ({}, [], []))
    out = capsys.readouterr().out.splitlines()
    totals = out[out.index(line_census.TOTALS) + 1:]
    assert "executable lines reached" in totals[0]
    assert [line.split()[0] for line in totals[-len(line_census.REASONS):]
            ] == list(line_census.REASONS)
    assert out.count(line_census.TOTALS) == 1


def _settings(tmp_path, drive):
    """(every setting of the synthetic module, the settings `drive`
    set), by (owner, setting)."""
    hits, found, module = _trace(tmp_path, SETTINGS_SOURCE, drive)
    every = line_census.settings(tmp_path, [module])
    assert {key[0] for key in found} <= {str(tmp_path / "synthetic.py")}
    return ({(o, s) for __, o, s in every}, {(o, s) for __, o, s in found},
            hits)


def test_settings_are_the_public_signatures(tmp_path):
    every, __, __ = _settings(tmp_path, lambda module: None)
    assert every == {("Box", "size"), ("Box", "width"), ("Box", "tags"),
                     ("Box", "label"), ("Box.grown", "by"),
                     ("scale", "factor"), ("scale", "clip"),
                     ("namesake", "factor")}


def test_an_import_time_construction_is_counted(tmp_path):
    # `UNIT = Box(1, width=2)` runs while the module is imported; the
    # dict key "clip" sets nothing, and module-level lines are reached.
    __, found, hits = _settings(tmp_path, lambda module: None)
    assert found == {("Box", "size"), ("Box", "width")}
    (fc,) = line_census.census(tmp_path, hits)
    assert [b.qualname for b in fc.blocks] == ["Box.grown", "scale",
                                               "namesake", "forward",
                                               "_private"]


def test_an_explicit_default_is_unset(tmp_path):
    def drive(module):
        module.scale(2, factor=1.0, clip=None)
        module.scale(2, 1.0)
        module.Box(1, 1, [], label="")
    __, found, __ = _settings(tmp_path, drive)
    assert found == {("Box", "size"), ("Box", "width")}


def test_a_non_default_positional_is_set(tmp_path):
    __, found, __ = _settings(tmp_path, lambda module: module.scale(2, 3.0))
    assert ("scale", "factor") in found
    assert ("scale", "clip") not in found


def test_a_namesake_call_sets_nothing(tmp_path):
    # Only the function called binds its parameter: a parameter of the
    # same name elsewhere stays unset.
    __, found, __ = _settings(tmp_path, lambda module: module.namesake(2.0))
    assert ("namesake", "factor") in found
    assert ("scale", "factor") not in found


def test_a_keyword_forwarded_through_kwargs_is_set(tmp_path):
    __, found, __ = _settings(tmp_path,
                              lambda module: module.forward(2, clip=5))
    assert ("scale", "clip") in found


def test_replace_sets_a_field(tmp_path):
    def drive(module):
        dataclasses.replace(module.Box(0), label="x")
        module.Box(0, tags=["a"])
    __, found, __ = _settings(tmp_path, drive)
    assert {("Box", "label"), ("Box", "tags")} <= found
    assert ("Box.grown", "by") not in found


def test_a_forked_child_hands_its_settings_back(tmp_path):
    def drive(module):
        child = multiprocessing.get_context("fork").Process(
            target=module.forward, args=(2,), kwargs={"clip": 5})
        child.start()
        child.join()
        assert child.exitcode == 0
    __, found, __ = _settings(tmp_path, drive)
    assert ("scale", "clip") in found
