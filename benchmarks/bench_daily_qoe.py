"""Benchmark for §6.1's Fig. 13 curves: the three versions day by day.

The paper plots one point a day for sixty days; the bench runs two days
on one continuous underlay (the quick suite's epochs, a coarse grid) and
checks the figure's shape on each day, not only on the average.
"""

from repro.experiments import fig13_qoe


def test_fig13_daily_curves(run_once, emit):
    cmp_ = run_once(lambda: fig13_qoe.run(days=2.0, epoch_s=900.0,
                                          eval_step_s=300.0))
    emit("fig13_daily", cmp_.lines())
    daily = {name: [s.stall_ratio for s in days]
             for name, days in cmp_.daily.items()}
    assert all(len(days) == 2 for days in daily.values())
    # Paper: XRON's daily stall ratio sits far below Internet-only's and
    # close to Premium-only's on every day of the sixty.
    for xron, internet, premium in zip(daily["XRON"],
                                       daily["Internet only"],
                                       daily["Premium only"]):
        assert xron < 0.5 * internet
        assert xron - premium < 0.02
