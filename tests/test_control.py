"""Controls: growth functions, truncation, absorbing rules, series criteria."""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Sequence

import numpy as np
import pytest

from branchsim import (
    ConfigError,
    CustomAbsorption,
    Disaster,
    DisasterSchedule,
    ExplicitPmf,
    GrowthFunction,
    InvalidRuleError,
    LowerBoundary,
    Phi,
    Truncation,
    TruncationAsAbsorption,
    expectation_criterion,
    sample_offspring_total,
    zubkov_criterion,
)
from branchsim.rng import STREAM_CONTROL, spawn_generator
from branchsim.scenario import MAX_HORIZON


def control_rng(seed=0):
    return spawn_generator(seed, 0, STREAM_CONTROL)


# ------------------------------------------------------------ growth functions

def test_constant_form():
    g = GrowthFunction.constant(3)
    assert [g(n) for n in (0, 1, 10, 10**6)] == [3, 3, 3, 3]


def test_log_form_floor_and_ceil_are_clamped_at_one():
    floor = GrowthFunction.log(2, 3, "floor")
    ceil = GrowthFunction.log(2, 3, "ceil")
    for n in range(0, 200):
        x = 2 * math.log(n + 1) / math.log(3)
        assert floor(n) == max(1, math.floor(x))
        assert ceil(n) == max(1, math.ceil(x))
        assert floor(n) >= 1 and ceil(n) >= 1


def test_linear_form():
    g = GrowthFunction.linear(2, 5)
    assert [g(n) for n in (0, 1, 10)] == [5, 7, 25]


def test_table_form_holds_last_value():
    g = GrowthFunction.from_table([4, 3, 2])
    assert [g(n) for n in (0, 1, 2, 3, 99)] == [4, 3, 2, 2, 2]


def test_callable_form_validates_returns():
    g = GrowthFunction.from_callable(lambda n: n + 1)
    assert g(4) == 5
    bad = GrowthFunction.from_callable(lambda n: -1)
    with pytest.raises(ConfigError):
        bad(0)


RUN_FORMS = {
    **{f"log-{a}-{base}-{rounding}": GrowthFunction.log(a, base, rounding)
       for a, base, rounding in [(0.5, 1.5, "floor"), (0.5, 10.0, "ceil"), (2.0, 3.0, "ceil"),
                                 (2.0, 3.0, "floor"), (2.5, 1.5, "ceil"), (2.5, 10.0, "floor"),
                                 (2.0, 10.0, "ceil")]},
    **{f"linear-{a:.4g}-{c}": GrowthFunction.linear(a, c)
       for a, c in [(0, 3), (0.0003, 10), (0.5, 0), (1 / 3, 1)]},
    "table": GrowthFunction.from_table([3, 1, 6, 6, 2, 9, 4, 7]),
}


def expand(runs, n1):
    """The level of each generation of ``runs`` up to n1 - 1."""
    starts, levels = zip(*runs)
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert all(u != v for u, v in zip(levels, levels[1:]))
    return np.repeat(levels, np.diff(starts + (n1,))).tolist()


@pytest.mark.parametrize("form", RUN_FORMS)
def test_runs_hold_g_at_every_generation(form):
    # a = 2, base = 3 lands on integers at n + 1 = 3^k, where floor and ceil meet
    g, n1 = RUN_FORMS[form], MAX_HORIZON + 1
    levels = [g(n) for n in range(n1)]
    assert expand(g.runs(0, n1), n1) == levels
    for n0, n in [(5, 6), (7, 9), (1234, 1300), (99_000, n1)]:
        runs = g.runs(n0, n)
        assert runs[0][0] == n0 and expand(runs, n) == levels[n0:n]


def test_a_callable_g_is_called_once_a_generation_for_its_runs():
    seen = []
    g = GrowthFunction.from_callable(lambda n: seen.append(n) or n // 4)
    assert g.runs(3, 13) == [(3, 0), (4, 1), (8, 2), (12, 3)] and seen == list(range(3, 13))


def test_runs_name_the_first_generation_past_the_float_range(monkeypatch):
    g, seen, call = GrowthFunction.linear(1e305, 1), [], GrowthFunction.__call__
    monkeypatch.setattr(GrowthFunction, "__call__", lambda self, n: seen.append(n) or call(self, n))
    g.runs(0, 1798)  # g(1798) is the first inf, and no later g is read
    assert max(seen) == 1797
    for n0 in (0, 1000, 1798):
        with pytest.raises(ConfigError, match=re.escape("g(1798) = inf; the form leaves")):
            g.runs(n0, 5000)


@pytest.mark.parametrize("make", [
    lambda: GrowthFunction.constant(-1),
    lambda: GrowthFunction.constant(2.5),
    lambda: GrowthFunction.log(0, 3),
    lambda: GrowthFunction.log(1, 1),
    lambda: GrowthFunction.log(1, 3, "nearest"),
    lambda: GrowthFunction.linear(-1, 0),
    lambda: GrowthFunction.linear(1, -1),
    lambda: GrowthFunction.from_table([]),
    lambda: GrowthFunction.from_table([1, -2]),
])
def test_growth_function_constructor_validation(make):
    with pytest.raises(ConfigError):
        make()


# ----------------------------------------------------------------- truncation

def test_apply_truncation_caps_at_g():
    rule = Truncation(GrowthFunction.constant(3))
    assert rule.apply(np.array([10, 2, 3, 0]), 1).tolist() == [3, 2, 3, 0]


def test_truncation_policy_requires_positive_cap_at_zero():
    Truncation(GrowthFunction.constant(1))
    Truncation(GrowthFunction.log(2, 3))  # log forms are clamped at 1
    with pytest.raises(ConfigError):
        Truncation(GrowthFunction.constant(0))


# ----------------------------------------------------------- absorbing rules

def test_truncation_as_absorption_matches_truncation():
    g = GrowthFunction.log(2, 3, "ceil")
    offspring = np.arange(30)
    for gen in (1, 2, 7, 40):
        want = [min(l, g(gen)) for l in range(30)]
        assert TruncationAsAbsorption(g).apply(offspring.copy(), gen).tolist() == want
        assert Truncation(g).apply(offspring.copy(), gen).tolist() == want


def test_disaster_rule_kills_all_or_none():
    rule = Disaster(DisasterSchedule.constant(0.5))
    left = rule.apply(np.full(200, 7, dtype=object), 3, control_rng())
    assert set(left.tolist()) == {0, 7}


def test_disaster_certain_and_impossible_probabilities():
    always = Disaster(DisasterSchedule.constant(1.0))
    never = Disaster(DisasterSchedule.constant(0.0))
    assert always.apply(np.array([5]), 1, control_rng()).tolist() == [0]
    assert never.apply(np.array([5]), 1, control_rng()).tolist() == [5]


def test_disaster_schedule_forms():
    table = DisasterSchedule.from_table([0.5, 0.25])
    assert table.prob(1) == 0.5
    assert table.prob(2) == 0.25
    assert table.prob(3) == 0.0  # beyond the table: no disasters
    ck = DisasterSchedule.c_over_k(2.0)
    assert ck.prob(1) == 1.0  # clamped
    assert ck.prob(4) == 0.5
    with pytest.raises(ConfigError):
        DisasterSchedule.from_table([1.5])
    with pytest.raises(ConfigError):
        DisasterSchedule.constant(-0.1)
    for c in (-0.5, math.nan):  # a NaN c read min(1, nan / k) = 1: every trial died at once
        with pytest.raises(ConfigError):
            DisasterSchedule.c_over_k(c)


def test_lower_boundary_absorbs_below_threshold():
    rule = LowerBoundary(GrowthFunction.constant(4))
    assert rule.apply(np.array([3, 4, 9]), 1).tolist() == [0, 4, 9]


def test_custom_rule_three_arguments():
    rule = CustomAbsorption(lambda l, n, hist: min(l, 2))
    assert rule.apply(np.array([7, 1], dtype=object), 1, None, [1]).tolist() == [5, 0]
    assert rule.apply(np.array([7, 1]), 1, None, [1]).tolist() == [5, 0]


def test_custom_rule_receives_history_prefix():
    seen = {}

    def rule(l, n, hist):
        seen["hist"] = hist
        return 0

    history = [1, 3, 9, 27, 81]
    CustomAbsorption(rule).apply(np.array([5]), 3, None, history)
    hist = seen["hist"]
    assert tuple(hist) == (1, 3, 9) and len(hist) == 3
    assert isinstance(hist, Sequence)
    assert hist[-1] == 9 and hist[1:] == (3, 9) and hist[::-1] == (9, 3, 1)
    with pytest.raises(IndexError):
        hist[3]  # past the prefix, though the list goes on
    with pytest.raises(TypeError):  # read-only
        hist[0] = 2
    assert not hasattr(hist, "append")
    # a view, not a copy: its size does not grow with the history
    long = list(range(30_001))
    CustomAbsorption(rule).apply(np.array([5]), 30_000, None, long)
    assert len(seen["hist"]) == 30_000 and seen["hist"][-1] == 29_999
    assert sys.getsizeof(seen["hist"]) == sys.getsizeof(hist)


def test_custom_rule_with_rng_argument():
    rule = CustomAbsorption(lambda l, n, hist, rng: int(rng.integers(0, l + 1)))
    vals = {int(rule.apply(np.array([6]), 1, control_rng(s), [1])[0]) for s in range(30)}
    assert vals <= set(range(7))
    assert len(vals) > 1


@pytest.mark.parametrize("bad_return", [-1, 8, 2.5])
def test_custom_rule_return_values_validated(bad_return):
    rule = CustomAbsorption(lambda l, n, hist: bad_return)
    with pytest.raises(InvalidRuleError, match="for offspring=7 at generation 1"):
        rule.apply(np.array([7]), 1, None, [1])


def test_custom_rule_arity_validated():
    with pytest.raises(ConfigError):
        CustomAbsorption(lambda l: 0)


# --------------------------------------- array rules against scalar references

BIG = 1 << 63
GROWTHS = [GrowthFunction.constant(4), GrowthFunction.log(2, 3, "ceil"),
           GrowthFunction.linear(3, 1), GrowthFunction.from_table([5, 2, 9]),
           GrowthFunction.constant(BIG + 7), GrowthFunction.linear(float(BIG), 1)]
INT64_COUNTS = np.array([0, 1, 2, 3, 4, 5, 7, 9, 13, 40, 1000, BIG - 1], dtype=np.int64)
OBJECT_COUNTS = np.array([0, 1, 4, 9, BIG - 1, BIG, BIG + 6, BIG + 7, BIG + 8, 3 * BIG,
                          1 << 200], dtype=object)


def _scalar(rule, g, count, generation):
    """What the rule built on g leaves of one count, written out from its definition."""
    if isinstance(rule, LowerBoundary):
        return 0 if count < g(generation) else count
    return min(count, g(generation))  # a cap, by truncation or by absorption


def _absorb_overshoot(g):
    """Truncation as absorption written as a custom rule: A_n(l) = max(l - g(n), 0)."""
    return CustomAbsorption(lambda l, n, history: max(l - g(n), 0))


@pytest.mark.parametrize("counts", [INT64_COUNTS, OBJECT_COUNTS], ids=["int64", "object"])
@pytest.mark.parametrize("make", [Truncation, TruncationAsAbsorption, LowerBoundary,
                                  _absorb_overshoot],
                         ids=["truncation", "as_absorption", "lower_boundary", "absorbing"])
def test_deterministic_rules_apply_as_the_scalar_helpers(make, counts):
    for g in GROWTHS:
        rule = make(g)
        for generation in (1, 2, 3, 7, 50):
            got = rule.apply(counts.copy(), generation, None)
            assert got.dtype == counts.dtype
            assert got.tolist() == [_scalar(rule, g, c, generation) for c in counts.tolist()]


@pytest.mark.parametrize("counts", [INT64_COUNTS, OBJECT_COUNTS], ids=["int64", "object"])
@pytest.mark.parametrize("delta", [DisasterSchedule.constant(0.5),
                                   DisasterSchedule.c_over_k(0.9),
                                   DisasterSchedule.from_table([0.2, 1.0])])
def test_disaster_applies_one_uniform_per_count_as_the_helper(delta, counts):
    rule = Disaster(delta)
    gen, twin = control_rng(4), control_rng(4)
    for generation in (1, 2, 3, 9):
        got = rule.apply(counts.copy(), generation, gen)
        # the scalar reference: one uniform per count, in order
        assert got.tolist() == [0 if twin.random() < delta.prob(generation) else c
                                for c in counts.tolist()]
        assert gen.bit_generator.state == twin.bit_generator.state


# ------------------------------------------------------------------- phi

def phi_total(phi, z, law, rng):
    """Offspring total of the phi(z) units that a phi policy lets reproduce."""
    return sample_offspring_total(law, int(phi.units(np.array([z]))[0]), rng)


def test_phi_identity_consumes_the_same_draws_as_plain_sampling():
    law = ExplicitPmf({0: 0.25, 2: 0.75})
    a = spawn_generator(5, 1, 0)
    b = spawn_generator(5, 1, 0)
    for z in (1, 2, 5, 9):
        assert phi_total(Phi(lambda x: x), z, law, a) == sample_offspring_total(law, z, b)
        assert Phi.identity().units(np.array([z]))[0] == z


def test_phi_constant_reproduces_fixed_unit_count():
    law = ExplicitPmf({2: 1.0})
    for phi in (Phi(lambda x: 3), Phi.constant(3)):
        assert phi_total(phi, 0, law, control_rng()) == 6
        assert phi_total(phi, 50, law, control_rng()) == 6


def test_phi_rejects_negative_values():
    # x = 3 is no probe point of Phi, so only the run sees phi(3) = -2
    phi = Phi(lambda x: -2 if x == 3 else x)
    with pytest.raises(ConfigError, match=re.escape("phi(3) = -2; phi must be nonnegative")):
        phi_total(phi, 3, ExplicitPmf({1: 1.0}), control_rng())


def both_lanes(values):
    """The counts as an int64 array (those that fit) and as an object array."""
    small = [v for v in values if v < 1 << 63]
    return [np.array(small, dtype=np.int64), np.array(values, dtype=object)]


def scalar_linear(a, c, x):
    return max(0, int(a * x + c))  # x rounds to the nearest float, as float(x)


@pytest.mark.parametrize("a,c", [(1.0, 0.0), (0.5, 1.0), (3.0, 0.25), (1.7, -2.5),
                                 (-0.5, 10.0), (-2.0, 2**62)])
def test_phi_linear_units_match_the_scalar_form(a, c):
    near = [2**53 - 1, 2**53, 2**53 + 1, 2**63 - 513, 2**63 - 512, 2**63 - 1,
            2**63, 2**63 + 1, 2**64 + 3, 10**30]
    phi = Phi.linear(a, c)
    for counts in both_lanes([0, 1, 2, 7, 1000] + near):
        units = phi.units(counts)
        assert units.tolist() == [scalar_linear(a, c, x) for x in counts.tolist()]
        assert units.dtype == (object if max(units.tolist()) >= 2**63 else np.int64)
        assert [phi(x) for x in counts.tolist()] == units.tolist()


def test_phi_linear_negative_slope_clamps_at_zero():
    phi = Phi.linear(-1.0, 5.5)
    for counts in both_lanes([0, 5, 6, 100, 2**63, 2**70]):
        assert phi.units(counts).tolist()[:4] == [5, 0, 0, 0]
        assert min(phi.units(counts).tolist()) == 0


@pytest.mark.parametrize("a,value", [(1e296, "inf"), (-1e296, "-inf")])
def test_phi_linear_past_the_float_range_names_the_first_count(a, value):
    phi = Phi.linear(a, 1.0)
    for counts in both_lanes([1, 2**40, 2**50, 2**51, 2**80]):
        with pytest.raises(ConfigError, match=re.escape(
                f"phi({2**50}) = {value}; the form leaves the float range")):
            phi.units(counts)


def test_phi_table_units_hold_the_last_value_past_int64():
    phi = Phi.from_table([5, 1, 0, 3])
    for counts in both_lanes([0, 1, 2, 3, 4, 2**62, 2**63, 2**70]):
        expected = [5, 1, 0, 3, 3, 3, 3, 3][:counts.size]
        assert phi.units(counts).tolist() == expected
        assert [phi(x) for x in counts.tolist()] == expected
    big = Phi.from_table([0, 2**64])
    assert big.units(np.array([0, 1, 9])).tolist() == [0, 2**64, 2**64]
    with pytest.raises(ConfigError, match="at least one value"):
        Phi.from_table([])


def test_phi_table_rejects_a_negative_entry_between_the_probe_points():
    # Phi probes 0, 1, 2, 5 and 64 only; a run from 10 units would read phi(10) = -3
    with pytest.raises(ConfigError, match="phi table entries must be nonnegative integers"):
        Phi.from_table([1] * 10 + [-3] + [1] * 60)


def test_phi_custom_units_reject_a_negative_count_on_both_lanes():
    phi = Phi(lambda x: 100 - x if x < 2**63 else x)
    for counts in both_lanes([3, 99, 150, 2**63, 2**64]):
        with pytest.raises(ConfigError, match=re.escape("phi(150) = -50; phi must be nonnegative")):
            phi.units(counts)
    assert phi.units(np.array([2**63, 2**64], dtype=object)).tolist() == [2**63, 2**64]


def test_policies_name_the_stream_they_draw_from():
    g = GrowthFunction.constant(3)
    for policy in (Truncation(g), TruncationAsAbsorption(g), LowerBoundary(g),
                   Phi.linear(1.0, 0.0)):
        assert policy.stream is None
    assert Disaster(DisasterSchedule.constant(0.5)).stream == STREAM_CONTROL
    assert CustomAbsorption(lambda l, n, h, rng: 0).stream == STREAM_CONTROL
    assert CustomAbsorption(lambda l, n, h: 0).stream is None
    counts = np.array([4, 9])
    assert Phi.constant(2).apply(counts, 1) is counts  # phi changes no offspring
    assert Truncation(g).units(counts) is counts  # and the rules change no units


def test_phi_policy_validation_and_revival_flag():
    assert not Phi(lambda x: x).revives_zero
    assert Phi(lambda x: x + 1).revives_zero
    with pytest.raises(ConfigError):
        Phi(lambda x: x - 1)  # negative at x = 0
    with pytest.raises(ConfigError):
        Phi(lambda x: x / 2)  # fractional at x = 1
    with pytest.raises(ConfigError, match="phi form 'callable' is unknown, or callable without"):
        Phi()
    with pytest.raises(ConfigError, match="phi form 'bogus'"):
        Phi(form="bogus")


# -------------------------------------------------------------- series criteria

def test_zubkov_constant_cap_diverges():
    v = zubkov_criterion(1 / 3, GrowthFunction.constant(3))
    assert v.verdict == "Divergent"
    assert v.decay_exponent is None


def test_zubkov_log_form_threshold():
    # terms ~ (n+1)^(-alpha) with alpha = a*log(1/q)/log(base)
    q = 1 / 3
    assert zubkov_criterion(q, GrowthFunction.log(2, 3)).verdict == "Convergent"
    assert zubkov_criterion(q, GrowthFunction.log(1, 3)).verdict == "Divergent"
    assert zubkov_criterion(q, GrowthFunction.log(0.5, 3)).verdict == "Divergent"
    assert zubkov_criterion(0.5, GrowthFunction.log(3, 4)).verdict == "Convergent"


def test_zubkov_log_form_reports_its_decay_exponent():
    # alpha = a ln(1/q) / ln(base), the same for either rounding
    for rounding in ("floor", "ceil"):
        v = zubkov_criterion(1 / 3, GrowthFunction.log(2, 3, rounding))
        assert v.decay_exponent == pytest.approx(2.0, rel=1e-15)
    v = zubkov_criterion(0.5, GrowthFunction.log(1, 4))
    assert (v.verdict, v.decay_exponent) == ("Divergent", pytest.approx(0.5, rel=1e-15))


def test_zubkov_log_verdict_independent_of_rounding():
    for a, base, q in ((2, 3, 1 / 3), (1, 3, 1 / 3), (3, 4, 0.5)):
        floor = zubkov_criterion(q, GrowthFunction.log(a, base, "floor")).verdict
        ceil = zubkov_criterion(q, GrowthFunction.log(a, base, "ceil")).verdict
        assert floor == ceil


def test_zubkov_linear_growth_converges():
    v = zubkov_criterion(0.9, GrowthFunction.linear(1, 1))
    assert (v.verdict, v.decay_exponent) == ("Convergent", None)
    assert zubkov_criterion(0.9, GrowthFunction.linear(0, 7)).verdict == "Divergent"
    # an exact verdict evaluates no g(n), so none can leave the float range
    assert zubkov_criterion(0.9, GrowthFunction.linear(1e305, 1)).verdict == "Convergent"


def test_zubkov_table_g_diverges():
    # a table holds its last value, so its g is bounded and the series diverges
    # however fast the listed values grow
    for tbl in ([max(1, round(2 * math.log(n + 1) / math.log(3))) for n in range(2001)],
                [1, 1000]):
        v = zubkov_criterion(1 / 3, GrowthFunction.from_table(tbl))
        assert (v.verdict, v.decay_exponent) == ("Divergent", None)


def test_criteria_reject_a_callable_g():
    g = GrowthFunction.from_callable(lambda n: 3)
    for criterion in (zubkov_criterion, expectation_criterion):
        with pytest.raises(ConfigError, match="^no exact verdict for a callable g$"):
            criterion(1 / 3, g)
    # a callable g still truncates
    assert Truncation(g).apply(np.array([2, 5]), 1).tolist() == [2, 3]


def test_zubkov_validates_arguments():
    g = GrowthFunction.constant(1)
    for q in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            zubkov_criterion(q, g)


def test_expectation_criterion_mirrors_series_classification():
    assert expectation_criterion(1 / 3, GrowthFunction.constant(3)).verdict == "Divergent"
    assert expectation_criterion(1 / 3, GrowthFunction.log(2, 3)).verdict == "Convergent"


def test_expectation_criterion_defaults_to_q():
    v = expectation_criterion(None, GrowthFunction.constant(2), q=0.5)
    assert v.verdict == "Divergent"
    with pytest.raises(ValueError):
        expectation_criterion(None, GrowthFunction.constant(2))


def test_expectation_criterion_rejects_p_above_q():
    with pytest.raises(ValueError):
        expectation_criterion(0.6, GrowthFunction.constant(2), q=0.5)

