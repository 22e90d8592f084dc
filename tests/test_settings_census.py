"""Self-test of the settings census (`tests/settings_census.py`): what
counts as a caller, and that a setting with neither a caller nor a row,
or a row that covers nothing, fails the census."""

from pathlib import Path

import pytest

from tests import settings_census
from tests.settings_census import Setting, Use, Uses

HERE = Path("/elsewhere.py")
OWN = Path("/own.py")


def _setting(name="width", *, is_field=False, position=1, callee="plot"):
    return Setting(f"mod.{callee}.{name}", f"mod.{callee}", name, callee,
                   is_field, position, OWN, (1, 10))


def _uses(keywords=(), calls=(), forwarders=None):
    """A `Uses` of (keyword, callee) keyword uses and (callee, n_args)
    calls, all outside the owner."""
    by_keyword, by_callee = {}, {}
    for keyword, callee in keywords:
        by_keyword.setdefault(keyword, []).append(Use(HERE, 1, callee, 0))
    for callee, n_args in calls:
        by_callee.setdefault(callee, []).append(Use(HERE, 1, callee, n_args))
    return Uses(by_keyword, by_callee, forwarders or {})


class TestCallerOf:
    def test_a_keyword_of_a_call_of_the_owner(self):
        assert settings_census.caller_of(
            _setting(), _uses(keywords=[("width", "plot")]))

    def test_a_keyword_of_another_callee_is_no_caller(self):
        assert not settings_census.caller_of(
            _setting(), _uses(keywords=[("width", "draw")]))

    def test_a_keyword_a_wrapper_forwards(self):
        assert settings_census.caller_of(
            _setting(), _uses(keywords=[("width", "draw")],
                              forwarders={"plot": {"draw"}}))

    def test_a_dict_key_names_a_parameter_but_not_a_field(self):
        uses = _uses(keywords=[("width", None)])
        assert settings_census.caller_of(_setting(), uses)
        assert not settings_census.caller_of(_setting(is_field=True), uses)

    def test_replace_sets_a_field(self):
        assert settings_census.caller_of(
            _setting(is_field=True), _uses(keywords=[("width", "replace")]))

    def test_a_filled_position(self):
        assert settings_census.caller_of(_setting(),
                                         _uses(calls=[("plot", 2)]))
        assert not settings_census.caller_of(_setting(),
                                             _uses(calls=[("plot", 1)]))

    def test_a_use_inside_the_owner_is_no_caller(self):
        inside = Uses({"width": [Use(OWN, 5, "plot", 0)]}, {}, {})
        assert not settings_census.caller_of(_setting(), inside)


class TestJudge:
    @pytest.fixture(scope="class")
    def census(self):
        return list(settings_census.settings()), settings_census.uses()

    def test_a_row_that_covers_nothing_fails(self, census):
        row = ("analysis.ascii.ascii_cdf", "height", "record")
        __, __, uncalled, stale = settings_census.judge(
            *census, settings_census.EXEMPT + [row])
        assert not uncalled and stale == [row]

    def test_a_setting_without_its_row_fails(self, census):
        rows = [row for row in settings_census.EXEMPT
                if row[0] != "faults.runtime.FaultCounters"]
        __, __, uncalled, stale = settings_census.judge(*census, rows)
        assert not stale
        assert uncalled and {s.owner for s in uncalled} == {
            "faults.runtime.FaultCounters"}

    def test_the_command_reports_totals(self, capsys):
        assert settings_census.main(["--check"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert "0 with no caller; 0 rows cover nothing" in last
