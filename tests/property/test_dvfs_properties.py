"""Property-based tests on the DVFS governor and energy-policy layer.

The two ISSUE-mandated invariants, plus the table/scaling algebra they
rest on:

* ``pace_to_deadline`` never misses a feasible deadline — for any OPP
  ladder and any workload split ``t(f) = a/f + b``, the plan it returns
  fits the budget whenever *any* OPP does.
* A policy's reported energy equals the closed-form two-segment sum
  ``work_s · work_power + slack · idle_power`` exactly (not approximately
  — the plan *is* the closed form, and the trace accounting must agree).
"""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.power.dvfs import (
    DeadlineInfeasible,
    OperatingPoint,
    OPPTable,
    frequency_response,
    plan_policy,
    select_opp,
    utilization,
)
from tests.conftest import examples


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

#: strictly increasing frequencies with non-decreasing voltages — every
#: ladder a DVFS driver could express
@st.composite
def opp_tables(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    freqs = draw(
        st.lists(
            st.floats(min_value=50e6, max_value=2e9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    freqs.sort()
    volts = draw(
        st.lists(
            st.floats(min_value=0.8, max_value=1.4),
            min_size=n,
            max_size=n,
        )
    )
    volts.sort()
    return OPPTable(
        tuple(OperatingPoint(f, v) for f, v in zip(freqs, volts))
    )


#: the a/f + b workload split the timing model produces
workloads = st.tuples(
    st.floats(min_value=0.0, max_value=1e9),  # a: clock-scaled cycles
    st.floats(min_value=0.0, max_value=10.0),  # b: clock-invariant floor
)

deadlines = st.floats(min_value=1e-3, max_value=100.0)
powers = st.floats(min_value=0.0, max_value=20.0)


def region_time(a, b):
    return lambda opp: a / opp.frequency_hz + b


# ---------------------------------------------------------------------------
# pace_to_deadline never misses a feasible deadline
# ---------------------------------------------------------------------------


@given(table=opp_tables(), workload=workloads, deadline=deadlines)
@settings(max_examples=examples(200))
def test_pace_meets_every_feasible_deadline(table, workload, deadline):
    a, b = workload
    time_at = region_time(a, b)
    feasible = any(time_at(opp) <= deadline for opp in table.points)
    try:
        plan = plan_policy(
            "pace_to_deadline",
            table,
            deadline_s=deadline,
            time_at=time_at,
            power_at=lambda opp: 4.0 * table.power_scale(opp),
            idle_power_w=1.0,
        )
    except DeadlineInfeasible:
        assert not feasible
        return
    assert feasible
    assert plan.work_s <= plan.deadline_s  # the deadline is met ...
    assert plan.work_s == time_at(plan.opp)
    # ... at the slowest OPP that can meet it (monotone t(f): anything
    # slower than the pick misses)
    for opp in table.points:
        if opp.frequency_hz < plan.opp.frequency_hz:
            assert time_at(opp) > deadline


@given(table=opp_tables(), workload=workloads, deadline=deadlines)
@settings(max_examples=examples(200))
def test_race_and_pace_agree_on_feasibility(table, workload, deadline):
    a, b = workload
    time_at = region_time(a, b)
    kwargs = dict(
        deadline_s=deadline,
        time_at=time_at,
        power_at=lambda opp: 4.0 * table.power_scale(opp),
        idle_power_w=1.0,
    )

    def outcome(policy):
        try:
            return plan_policy(policy, table, **kwargs)
        except DeadlineInfeasible:
            return None

    race, pace = outcome("race_to_idle"), outcome("pace_to_deadline")
    # t(f) is non-increasing in f, so the max OPP decides feasibility
    # for both policies at once
    assert (race is None) == (pace is None)
    if race is not None:
        assert race.opp == table.max
        assert pace.opp.frequency_hz <= race.opp.frequency_hz


# ---------------------------------------------------------------------------
# policy energy is exactly the closed-form two-segment sum
# ---------------------------------------------------------------------------


@given(
    table=opp_tables(),
    workload=workloads,
    deadline=deadlines,
    work_power=powers,
    idle_power=powers,
)
@settings(max_examples=examples(200))
def test_energy_is_the_closed_form_segment_sum(
    table, workload, deadline, work_power, idle_power
):
    a, b = workload
    time_at = region_time(a, b)
    assume(time_at(table.max) <= deadline)
    for policy in ("race_to_idle", "pace_to_deadline"):
        plan = plan_policy(
            policy,
            table,
            deadline_s=deadline,
            time_at=time_at,
            power_at=lambda opp: work_power * table.power_scale(opp),
            idle_power_w=idle_power,
        )
        work_w = work_power * table.power_scale(plan.opp)
        expected = plan.work_s * work_w + (deadline - plan.work_s) * idle_power
        assert plan.energy_j == expected  # bitwise: same expression
        assert plan.slack_s == deadline - plan.work_s
        assert plan.mean_power_w == plan.energy_j / deadline
        # window bounds: never below all-idle, never above all-work
        lo, hi = sorted((idle_power, work_w))
        assert lo * deadline <= plan.energy_j * (1 + 1e-12) + 1e-12
        assert plan.energy_j <= hi * deadline * (1 + 1e-12) + 1e-12


# ---------------------------------------------------------------------------
# supporting algebra: power scaling, rescaling, the ondemand fit
# ---------------------------------------------------------------------------


@given(table=opp_tables())
@settings(max_examples=examples(100))
def test_power_scale_is_monotone_and_one_at_nominal(table):
    assert table.power_scale(table.nominal) == 1.0
    factors = [table.power_scale(opp) for opp in table.points]
    assert all(f <= 1.0 for f in factors)  # nominal is the ceiling
    assert factors == sorted(factors)  # f·V² grows with frequency


@given(table=opp_tables(), top=st.floats(min_value=50e6, max_value=2e9))
@example(
    # two near-equal OPPs that round to one frequency at 50 MHz
    table=OPPTable(
        (OperatingPoint(1999999999.9999998, 1.0), OperatingPoint(2e9, 1.0))
    ),
    top=50e6,
)
@settings(max_examples=examples(100))
def test_rescaled_preserves_shape_and_assigns_top(table, top):
    out = table.rescaled(top)
    assert out.nominal.frequency_hz == top  # assigned, never multiplied
    assert len(out) == len(table)
    assert [p.voltage_v for p in out.points] == [p.voltage_v for p in table.points]


@given(workload=workloads, table=opp_tables())
@settings(max_examples=examples(150))
def test_frequency_fit_recovers_workload_and_governor_is_steady(workload, table):
    a, b = workload
    assume(len(table) >= 2)
    f_slow, f_fast = table.min.frequency_hz, table.max.frequency_hz
    assume(f_fast - f_slow >= 1e6)  # near-equal clocks: no fit to speak of
    time_at = region_time(a, b)
    fit_a, fit_b = frequency_response(
        time_at(table.min), f_slow, time_at(table.max), f_fast
    )
    # exact recovery up to cancellation residue: the fit subtracts the
    # two t·f products, so its absolute error scales with their size
    # over the clock gap
    prod = max(time_at(table.min) * f_slow, time_at(table.max) * f_fast)
    tol_b = 1e-9 + 1e-13 * prod / (f_fast - f_slow)
    tol_a = 1e-6 + f_fast * tol_b
    assert fit_b == pytest.approx(b, abs=tol_b)
    assert fit_a == pytest.approx(a, abs=tol_a)
    chosen = select_opp(table, "ondemand", time_at=time_at)
    # the governor's fixed point: every slower OPP would ramp up
    for opp in table.points:
        if opp.frequency_hz < chosen.frequency_hz:
            assert utilization(fit_a, fit_b, opp.frequency_hz) > 0.8 - 1e-9
