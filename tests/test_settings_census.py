"""The census's judgement of settings (`tests/line_census.py`): a setting
no driver sets needs a row, a row that covers nothing fails, and the
report gives the totals."""

from tests import line_census

#: (file, owner, setting) of a small module's settings.
SETTINGS = [("plot.py", "plot", "width"), ("plot.py", "plot", "height"),
            ("plot.py", "Axes", "label"), ("plot.py", "Axes", "ticks")]
ROWS = [("plot.py", "plot", "height", "calibration"),
        ("plot.py", "Axes", "*", "record")]


class TestJudge:
    def test_a_row_that_covers_nothing_fails(self):
        found = {("plot.py", "plot", "width"), ("plot.py", "plot", "height")}
        excused, unset, stale = line_census.judge_settings(SETTINGS, found,
                                                           ROWS)
        assert not unset and stale == [ROWS[0]]
        assert excused == {("plot.py", "Axes", "label"): "record",
                           ("plot.py", "Axes", "ticks"): "record"}

    def test_a_setting_without_its_row_fails(self):
        found = {("plot.py", "plot", "height")}
        excused, unset, stale = line_census.judge_settings(SETTINGS, found,
                                                           ROWS[1:])
        assert not stale and unset == [("plot.py", "plot", "width")]

    def test_the_command_reports_totals(self, capsys):
        found = {("plot.py", "plot", "width")}
        line_census.report([], ({}, [], []), SETTINGS,
                           line_census.judge_settings(SETTINGS, found, ROWS))
        out = capsys.readouterr().out
        assert "plot.py Axes(label=)  [record]" in out
        assert ("4 settings: 1 set by a driver, 3 by row, 0 with no row; "
                "0 stale row(s)") in out
