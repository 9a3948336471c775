import builtins
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gpurental import (
    Amdahl,
    AxiomError,
    BruteForceError,
    Deterministic,
    InstabilityError,
    JobType,
    PowerLaw,
    SpecError,
    SpeedupFunction,
    Tabular,
    WorkloadSpec,
    brute_force_allocation,
    budget_usage,
    inner_minimize,
    merge_segments,
    objective,
    pareto_frontier,
    solve_allocation,
)
from gpurental import SmallestRemainingFirst, load_spec, optimizer, simulator
from gpurental.speedup import DEFAULT_K_MAX, _check_width
from randspecs import random_concave_tabular, random_spec, random_speedup
from reference_search import _search as reference_search

FOUR_TYPE_TABULAR = Path(__file__).resolve().parents[1] / "perfbench" / "four_type_tabular.json"


def cost_rate_inverse(jt, target, k_lo, k_hi):
    """Width at which the type's budget usage equals target (usage is
    monotone in k); None when target is outside [u(k_lo), u(k_hi)]."""

    def u(k):
        return jt.load * k / jt.speedup(k)

    if not (u(k_lo) <= target <= u(k_hi)):
        return None
    for _ in range(200):
        mid = 0.5 * (k_lo + k_hi)
        if u(mid) <= target:
            k_lo = mid
        else:
            k_hi = mid
    return 0.5 * (k_lo + k_hi)


def unnormalized_spec(budget: float) -> WorkloadSpec:
    """A table with s(1) = 2 (load 1, least usage 0.5) plus Amdahl(0.8)
    (load 0.2): total load 0.7, where the loads alone sum to 1.2."""
    return WorkloadSpec(
        (
            JobType("fast", Tabular(((1, 2), (4, 3))), 1.0, Deterministic(1.0)),
            JobType("amdahl", Amdahl(0.8), 0.2, Deterministic(1.0)),
        ),
        budget=budget,
    )


class TestObjectiveAndBudget:
    def test_all_ones_gives_weighted_mean_size(self, two_type_spec):
        # s(1) = 1, so E[T] = total load / total rate = mean job size here.
        assert objective(two_type_spec, [1.0, 1.0]) == pytest.approx(1.0)

    def test_two_type_at_4_4(self, two_type_spec):
        assert objective(two_type_spec, [4.0, 4.0]) == pytest.approx(0.45)
        assert budget_usage(two_type_spec, [4.0, 4.0]) == pytest.approx(1.44)

    def test_budget_all_ones_is_total_load(self, two_type_spec):
        assert budget_usage(two_type_spec, [1.0, 1.0]) == pytest.approx(0.8)
        # With s(1) != 1, total load is still the usage at width 1, to the bit.
        spec = unnormalized_spec(budget=0.9)
        assert budget_usage(spec, [1.0, 1.0]) == spec.total_load == 0.7

    def test_single_power(self, single_power_spec):
        assert budget_usage(single_power_spec, [4.0]) == pytest.approx(1.0)

    def test_dimension_mismatch(self, two_type_spec):
        with pytest.raises(ValueError):
            objective(two_type_spec, [1.0])
        with pytest.raises(ValueError):
            budget_usage(two_type_spec, [1.0, 1.0, 1.0])

    def test_width_below_one(self, two_type_spec):
        with pytest.raises(ValueError):
            objective(two_type_spec, [0.5, 2.0])

    # About 70% of drawn specs are refused, most for a load that overflows,
    # and the first draws, near 5e-324, for one that underflows: at some
    # seeds that trips hypothesis's filter health check.  Every one of the
    # 300 examples is still a spec that constructs.
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(types=st.lists(st.tuples(*[st.floats(5e-324, 1.7976931348623157e308)] * 3),
                          min_size=1, max_size=3))
    def test_a_spec_that_constructs_has_a_finite_objective(self, types):
        # Each type: s(1) (flat past it), arrival rate and size, anywhere in
        # the doubles.  A spec refuses what overflows or underflows; what it
        # keeps has a finite objective at width 1 and, s being
        # non-decreasing, at the cap.
        try:
            spec = WorkloadSpec(tuple(
                JobType(f"t{i}", Tabular(((1.0, s1),)), rate, Deterministic(size))
                for i, (s1, rate, size) in enumerate(types)), budget=1.0)
        except SpecError:
            assume(False)
        # The usage at the cap may overflow; only the objective is checked here.
        with np.errstate(over="ignore"):
            for k in (1.0, DEFAULT_K_MAX):
                assert math.isfinite(objective(spec, [k] * len(types))), k


class TestInnerMinimize:
    def test_boundary_minimum(self):
        assert inner_minimize(PowerLaw(0.5), 1.0) == pytest.approx(1.0)
        # An infinite price on GPUs buys the least width, for every family.
        for f in (PowerLaw(0.5), Amdahl(0.8), Tabular(((1, 1), (2, 2), (8, 2)))):
            assert inner_minimize(f, np.inf) == 1.0

    def test_stationary_point(self):
        # d/dk (1 + mu*k)/sqrt(k) = 0 at k = 1/mu
        assert inner_minimize(PowerLaw(0.5), 0.25) == 4.0

    def test_zero_multiplier_hits_cap(self):
        for f in (PowerLaw(0.5), Amdahl(0.8)):
            assert inner_minimize(f, 0.0) == DEFAULT_K_MAX

    def test_flat_tail_breaks_ties_left(self):
        # Speed saturates at k = 2; more GPUs buy nothing, so pick 2.
        f = Tabular(((1, 1), (2, 2), (8, 2)))
        assert inner_minimize(f, 0.0) == 2.0

    def test_negative_multiplier_rejected(self):
        for mu in (-0.1, np.nan):
            for f in (PowerLaw(0.5), Amdahl(0.8), Tabular(((1, 1), (2, 2), (8, 2)))):
                with pytest.raises(ValueError, match=f"^multiplier must be >= 0, got {mu}$"):
                    inner_minimize(f, mu)

    @pytest.mark.parametrize("k_max", [0.5, np.nan, np.inf])
    def test_k_max_must_be_finite_and_at_least_one(self, k_max, two_type_spec):
        # Each solver entry point refuses it, whatever else it is given.
        calls = (
            lambda: inner_minimize(PowerLaw(0.5), 0.1, k_max=k_max),
            lambda: solve_allocation(two_type_spec, k_max=k_max),
            lambda: pareto_frontier(two_type_spec, [0.5, 2.0], k_max=k_max),
            lambda: pareto_frontier(two_type_spec, [], k_max=k_max),
            lambda: brute_force_allocation(two_type_spec, 0.1, k_max=k_max),
            # A float is tested without numpy, an array with it: the same message.
            lambda: _check_width("k_max", np.array([k_max])),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^k_max must be finite and >= 1, got {k_max}$"):
                call()

    def test_amdahl_matches_calculus(self):
        # Stationarity of (1 + mu*k)/s(k) for Amdahl(p):
        # mu*(1-p)*k^2 = p  =>  k = sqrt(p / (mu*(1-p)))
        p, mu = 0.8, 0.1
        expected = (p / (mu * (1 - p))) ** 0.5
        assert inner_minimize(Amdahl(p), mu) == pytest.approx(expected, rel=1e-12)


def _g(f, mu, k):
    return (1.0 + mu * k) / f(k)


class TestClosedFormInner:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(["amdahl", "power", "tabular"]),
        p=st.floats(0.0, 1.0),
        alpha=st.floats(0.0, 1.5, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        mu=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        k_max=st.sampled_from([DEFAULT_K_MAX, 1000.0, 12.0, 1.0]),
    )
    def test_no_grid_point_beats_the_closed_form(self, family, p, alpha, seed, mu, k_max):
        if family == "amdahl":
            f = Amdahl(p)
        elif family == "power":
            f = PowerLaw(alpha)
        else:
            rng = np.random.default_rng(seed)
            f = random_concave_tabular(rng, n_knots=int(rng.integers(1, 8)))
        k = inner_minimize(f, mu, k_max=k_max)
        assert 1.0 <= k <= k_max
        grid = np.append(np.geomspace(1.0, k_max, 20_000), k_max)
        assert _g(f, mu, k) <= _g(f, mu, grid).min() * (1 + 1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_constant_speedup_gives_one(self, mu):
        assert inner_minimize(Amdahl(0.0), mu) == 1.0

    @pytest.mark.parametrize(
        "f", [Amdahl(1.0), PowerLaw(1.0), PowerLaw(1.5)], ids=["p=1", "alpha=1", "alpha=1.5"]
    )
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_linear_or_faster_rides_the_cap(self, f, mu):
        assert inner_minimize(f, mu, k_max=64.0) == 64.0

    def test_tabular_knots_beyond_cap(self):
        # Knots past k_max are clipped to it; s keeps rising up to 16.
        f = Tabular(((1, 1), (4, 3), (64, 10)))
        assert inner_minimize(f, 0.0, k_max=16.0) == 16.0
        assert inner_minimize(f, 0.05, k_max=16.0) == 4.0
        assert inner_minimize(f, 10.0, k_max=16.0) == 1.0

    def test_tabular_first_knot_above_one(self):
        # s is held at s(2) = 2 below the first knot, so k = 1 is a candidate.
        f = Tabular(((2, 2), (4, 3)))
        assert inner_minimize(f, 0.0) == 4.0
        assert inner_minimize(f, 0.1) == 4.0
        assert inner_minimize(f, 1.0) == 1.0

    def test_other_speedup_classes_rejected(self):
        class Sqrt(SpeedupFunction):
            def _value(self, k):
                return np.sqrt(k)

        with pytest.raises(TypeError):
            inner_minimize(Sqrt(), 0.5)
        spec = WorkloadSpec((JobType("s", Sqrt(), 0.5, Deterministic(1.0)),), budget=1.0)
        with pytest.raises(TypeError):
            solve_allocation(spec)


class TestAxiomRefusal:
    """The solver refuses a type whose speedup fails the axioms its closed
    forms rely on; the grid oracle does not check."""

    @pytest.fixture()
    def spec(self):
        return WorkloadSpec((
            JobType("amdahl", Amdahl(0.9), 0.5, Deterministic(1.0)),
            JobType("kinked", Tabular(((1, 1), (2, 1.1), (4, 3.5))), 0.5, Deterministic(1.0)),
        ), budget=3.0)

    def test_solve_and_pareto_refuse(self, spec):
        msg = r"^type 'kinked': speedup is not sublinear: s\(2\)/2 = 0.55 < s\(4\)/4 = 0.875$"
        with pytest.raises(AxiomError, match=msg):
            solve_allocation(spec)
        with pytest.raises(AxiomError, match=msg):
            pareto_frontier(spec, [0.5, 2.0, 3.0])

    def test_concavity_alone_is_refused(self):
        # Flat on [1, 2], then rising: monotone and sub-linear, not concave.
        spec = WorkloadSpec((JobType("late", Tabular(((2, 2), (4, 3))), 0.5,
                                     Deterministic(1.0)),), budget=3.0)
        with pytest.raises(AxiomError, match="^type 'late': speedup is not concave: "):
            solve_allocation(spec)

    def test_each_type_validated_once_per_sweep(self, two_type_spec, monkeypatch):
        seen = []
        real = optimizer.validate
        monkeypatch.setattr(optimizer, "validate", lambda f: seen.append(f) or real(f))
        pareto_frontier(two_type_spec, np.linspace(0.5, 4.0, 50))
        assert seen == [t.speedup for t in two_type_spec.types]

    def test_oracle_does_not_check(self, spec):
        alloc = brute_force_allocation(spec, grid_step=0.01)
        assert alloc.budget_used <= spec.budget


class TestSolve:
    def test_one_envelope_walk_per_table(self, monkeypatch):
        # A search asks each table for its minimizer once, and that call
        # walks its lower envelope once; a second search walks again.
        walk, walked = Tabular._walk_envelope, []

        def counted(self, k_max):
            walked.append(self)
            return walk(self, k_max)

        monkeypatch.setattr(Tabular, "_walk_envelope", counted)
        spec = load_spec(FOUR_TYPE_TABULAR)
        tables = [jt.speedup for jt in spec.types if isinstance(jt.speedup, Tabular)]
        first = solve_allocation(spec)
        assert len(tables) == 2
        assert sorted(map(id, walked)) == sorted(map(id, tables))
        assert solve_allocation(spec) == first
        assert sorted(map(id, walked)) == sorted(map(id, tables + tables))

    def test_closed_form_single_type(self, single_power_spec):
        a = solve_allocation(single_power_spec)
        assert a.ks[0] == pytest.approx(4.0, abs=1e-6)
        assert a.objective == pytest.approx(0.5, abs=1e-6)
        assert a.budget_used == pytest.approx(1.0, abs=1e-9)
        assert a.multiplier == pytest.approx(0.25, rel=1e-2)
        assert not a.cap_active

    def test_two_type_closed_form(self, two_type_spec):
        # Lagrange stationarity gives k = (6, 9), multiplier 1/9, E[T] = 1/3.
        # Both types' usage is a power of mu with exponent 1/2 on the piece
        # where the budget binds, so the multiplier comes in closed form.
        a = solve_allocation(two_type_spec)
        assert a.ks == pytest.approx((6.0, 9.0), rel=1e-14)
        assert a.multiplier == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert a.objective == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert a.budget_used <= 2.0 * (1 + 1e-15)
        assert a.budget_used == pytest.approx(2.0, rel=1e-14)

    def test_usage_jump_at_a_breakpoint_fills_the_budget(self):
        # Usage jumps from 2/3 (k=4) to 4/3 (k=16) at mu = 1/8, a vertex of
        # the table's envelope, so no multiplier meets b = 1; the fill pass
        # then spends the slack: 0.5*k/s(k) = 1 at k = 8.
        f = Tabular(((1, 1), (4, 3), (16, 6)))
        spec = WorkloadSpec((JobType("t", f, 0.5, Deterministic(1.0)),), budget=1.0)
        a = solve_allocation(spec)
        assert a.multiplier == pytest.approx(0.125, rel=1e-15)
        assert (a.ks[0], a.budget_used) == (8.0, 1.0)  # k = a*v/(1 - c*v) = 2*2/(1 - 1/2)

    def test_budget_at_a_tabular_vertex_matches_brute_force(self):
        # The multiplier lands on the vertex near mu = 1 where the table's
        # width drops from 4 to 2; the plan must keep the width it was
        # solved with.
        wide = Tabular(((1, 1), (2, 1.8), (4, 3.0), (8, 4.2), (16, 5.0)))
        spec = WorkloadSpec((
            JobType("amdahl", Amdahl(0.9), 0.4, Deterministic(1.0)),
            JobType("wide", wide, 0.5, Deterministic(1.0)),
        ), budget=1.1466666666666665)
        a = solve_allocation(spec)
        assert a.objective <= brute_force_allocation(spec, 1e-3).objective

    def test_speed_above_one_at_width_one_matches_brute_force(self):
        # The loads sum to 1.2 > 0.9, but the least usage is 0.7 < 0.9.
        spec = unnormalized_spec(budget=0.9)
        a = solve_allocation(spec)
        bf = brute_force_allocation(spec, 1e-3)
        assert a.budget_used <= spec.budget * (1 + 1e-9)
        assert a.objective <= bf.objective
        assert a.objective == pytest.approx(bf.objective, rel=1e-4)

    def test_speed_below_one_at_width_one_is_unstable(self):
        # s(1) = 0.5: width 1 already uses 2 GPUs for load 1.
        f = Tabular(((1, 0.5), (4, 1.5)))
        spec = WorkloadSpec((JobType("slow", f, 1.0, Deterministic(1.0)),), budget=1.5)
        assert spec.total_load == 2.0
        with pytest.raises(InstabilityError, match="^total load 2 >= budget 1.5$"):
            solve_allocation(spec)
        with pytest.raises(InstabilityError):
            brute_force_allocation(spec, 0.01)

    def test_two_type_matches_brute_force(self, two_type_spec):
        a = solve_allocation(two_type_spec)
        bf = brute_force_allocation(two_type_spec, 1e-3)
        for ka, kb in zip(a.ks, bf.ks):
            assert ka == pytest.approx(kb, abs=2e-3)

    def test_boundary_budget_forces_ones(self):
        types = (
            JobType("a", Amdahl(0.7), 0.4, Deterministic(1.0)),
            JobType("p", PowerLaw(0.6), 0.4, Deterministic(1.0)),
        )
        spec = WorkloadSpec(types, budget=0.8 + 1e-9)
        a = solve_allocation(spec)
        assert all(1.0 <= k <= 1.001 for k in a.ks)
        assert a.budget_used <= spec.budget * (1 + 1e-9)

    def test_instability_rejected(self):
        spec = WorkloadSpec(
            (JobType("a", Amdahl(0.5), 1.0, Deterministic(1.0)),), budget=0.5
        )
        with pytest.raises(InstabilityError):
            solve_allocation(spec)

    def test_unconstrained_hits_cap(self):
        spec = WorkloadSpec(
            (JobType("a", Amdahl(0.8), 0.4, Deterministic(1.0)),), budget=10.0
        )
        a = solve_allocation(spec, k_max=64.0)
        assert a.ks[0] == pytest.approx(64.0, rel=1e-6)
        assert a.multiplier == 0.0
        assert a.cap_active

    def test_saturating_speedup_stops_at_knee(self):
        # Speed is flat beyond k=4: extra GPUs would burn budget for nothing.
        f = Tabular(((1, 1), (4, 3), (16, 3)))
        spec = WorkloadSpec((JobType("t", f, 0.5, Deterministic(1.0)),), budget=1.0)
        a = solve_allocation(spec)
        assert a.ks[0] == pytest.approx(4.0, rel=1e-6)
        assert a.multiplier == 0.0
        assert not a.cap_active
        assert a.budget_used == pytest.approx(2.0 / 3.0)

    def test_linear_type_pushes_to_cap(self):
        types = (
            JobType("lin", PowerLaw(1.0), 0.3, Deterministic(1.0)),
            JobType("sqrt", PowerLaw(0.5), 0.3, Deterministic(1.0)),
        )
        spec = WorkloadSpec(types, budget=1.0)
        a = solve_allocation(spec)
        assert a.cap_active  # the linear type rides the cap at constant cost
        assert a.budget_used <= 1.0 + 1e-9

    def test_allocation_fields_recomputable(self, two_type_spec):
        a = solve_allocation(two_type_spec)
        assert a.objective == pytest.approx(objective(two_type_spec, a.ks), rel=1e-12)
        assert a.budget_used == pytest.approx(budget_usage(two_type_spec, a.ks), rel=1e-12)

    def test_feasibility_on_random_specs(self):
        rng = np.random.default_rng(2024)
        for i in range(60):
            spec = random_spec(rng, m=int(rng.integers(1, 4)), with_tabular=True)
            a = solve_allocation(spec)
            assert a.budget_used <= spec.budget * (1 + 1e-9)
            assert all(k >= 1.0 for k in a.ks)

    def test_oracle_dominance_random(self):
        rng = np.random.default_rng(7)
        for i in range(30):
            spec = random_spec(rng, m=int(rng.integers(1, 4)), with_tabular=True)
            a = solve_allocation(spec)
            bf = brute_force_allocation(spec, 1e-3)
            assert a.objective <= bf.objective * (1 + 1e-3)

    def test_scale_equivariance(self, two_type_spec):
        # Scaling every load and the budget by c leaves the argmin unchanged.
        base = solve_allocation(two_type_spec)
        for c in (0.1, 3.7):
            scaled = WorkloadSpec(
                tuple(
                    dataclasses.replace(t, arrival_rate=t.arrival_rate * c)
                    for t in two_type_spec.types
                ),
                budget=two_type_spec.budget * c,
            )
            a = solve_allocation(scaled)
            for k0, k1 in zip(base.ks, a.ks):
                assert k1 == pytest.approx(k0, rel=1e-5)

    def test_local_exchange_cannot_improve(self, two_type_spec):
        # Shift a sliver of budget between types; the objective must not drop.
        a = solve_allocation(two_type_spec)
        base = objective(two_type_spec, a.ks)
        delta = 1e-4 * two_type_spec.budget
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                ti, tj = two_type_spec.types[i], two_type_spec.types[j]
                ui = ti.load * a.ks[i] / ti.speedup(a.ks[i])
                uj = tj.load * a.ks[j] / tj.speedup(a.ks[j])
                ki = cost_rate_inverse(ti, ui - delta, 1.0, a.ks[i])
                kj = cost_rate_inverse(tj, uj + delta, a.ks[j], a.ks[j] * 16 + 16)
                if ki is None or kj is None:
                    continue
                ks = list(a.ks)
                ks[i], ks[j] = ki, kj
                assert objective(two_type_spec, ks) >= base - 1e-8

    def test_bisection_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec = random_spec(rng, m=2, with_tabular=True)
            usages = []
            for mu in np.logspace(-4, 1.5, 25):
                ks = [inner_minimize(t.speedup, mu) for t in spec.types]
                usages.append(budget_usage(spec, ks))
            usages = np.array(usages)
            assert np.all(np.diff(usages) <= 1e-9 * usages[:-1] + 1e-12)


def dual_bound(spec, alloc, k_max=DEFAULT_K_MAX):
    """The Lagrangian lower bound at the plan's own multiplier mu:
    L(mu) = (sum_i rho_i * min_k (1 + mu*k)/s_i(k) - mu * budget_used) / lambda."""
    mu = alloc.multiplier
    total = 0.0
    for t, load in zip(spec.types, spec.loads):
        with np.errstate(divide="ignore"):
            k, s = t.speedup.minimizer(k_max).widths(np.array([mu]))
        total += load * (1.0 + mu * k[0]) / s[0]
    return (total - mu * alloc.budget_used) / spec.total_rate


class TestCertificate:
    """Every sweep point is feasible, within rounding of the Lagrangian
    bound at its multiplier (so optimal for the budget it uses), and equal
    to its one-budget solve."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 50),
        with_tabular=st.booleans(),
        spread=st.lists(st.floats(1e-9, 20.0), min_size=1, max_size=10),
    )
    def test_sweep_points_are_certified(self, seed, m, with_tabular, spread):
        spec = random_spec(np.random.default_rng(seed), m=m, with_tabular=with_tabular)
        budgets = spec.total_load * (1.0 + np.array(spread))
        for pt in pareto_frontier(spec, budgets):
            a = pt.allocation
            assert a.objective - dual_bound(spec, a) <= 1e-12 * a.objective
            assert a.budget_used <= pt.budget * (1 + 1e-12)
            assert solve_allocation(dataclasses.replace(spec, budget=pt.budget)) == a

    def test_mixed_exponents_solve_by_newton(self):
        # Amdahl's usage falls as mu**-1/2 and k**0.4's as mu**-0.6, so no
        # closed form: the budget still binds to rounding, at zero gap.
        spec = WorkloadSpec((
            JobType("amdahl", Amdahl(0.9), 0.4, Deterministic(1.0)),
            JobType("power", PowerLaw(0.4), 0.4, Deterministic(1.0)),
        ), budget=3.0)
        a = solve_allocation(spec)
        assert a.budget_used == pytest.approx(3.0, rel=1e-15)
        assert a.objective - dual_bound(spec, a) <= 1e-15 * a.objective
        # Stationarity: each width is its family's closed form at mu.
        mu = a.multiplier
        assert a.ks[0] == pytest.approx(math.sqrt(9.0 / mu), rel=1e-14)
        assert a.ks[1] == pytest.approx((0.4 / 0.6) / mu, rel=1e-14)


class TestComplementarySlackness:
    """A plan that prices the budget (multiplier > 0) spends all of it."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20))
    def test_budget_at_a_tabular_vertex_is_spent(self, seed, m):
        # Usage jumps down at each vertex of a table's envelope.  Its left
        # limit there, a budget met on the piece that ends at the vertex, has
        # smooth types at the vertex and the others at their width inside
        # the piece.
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, m=m, with_tabular=True)
        table = dataclasses.replace(spec.types[0], speedup=random_concave_tabular(rng))
        spec = dataclasses.replace(spec, types=(table, *spec.types[1:]))
        k_max = DEFAULT_K_MAX
        ms = [t.speedup.minimizer(k_max) for t in spec.types]
        smooth = [m.power_term is not None for m in ms]
        vertices = {v for m, sm in zip(ms, smooth) if not sm for v in m.breakpoints}
        bps = [0.0, *sorted({v for m in ms for v in m.breakpoints})]
        budgets = []
        for prev, v in zip(bps, bps[1:]):
            if v in vertices:
                mus = [v if sm else 0.5 * (prev + v) for sm in smooth]
                ks = [m.widths(np.array([mu]))[0][0] for m, mu in zip(ms, mus)]
                budgets.append(budget_usage(spec, ks))
        for pt in pareto_frontier(spec, budgets):
            a = pt.allocation
            if a is None:  # unstable
                continue
            assert a.budget_used <= pt.budget * (1 + 1e-12)
            if a.multiplier > 0:
                assert a.budget_used >= pt.budget * (1 - 1e-9)


def _budgets_at_breakpoints(spec: WorkloadSpec, spread) -> list[float]:
    """Budgets in the open, ``total_load * (1 + spread)``, and at each
    breakpoint's usage, where the piece and the jump test are decided, and
    one ulp either side; only the stable ones."""
    ms = [t.speedup.minimizer(DEFAULT_K_MAX) for t in spec.types]
    budgets = (spec.total_load * (1.0 + np.array(spread))).tolist()
    for mu in sorted({v for mz in ms for v in mz.breakpoints}):
        used = budget_usage(spec, [mz.widths(np.array([mu]))[0][0] for mz in ms])
        budgets += [math.nextafter(used, 0.0), used, math.nextafter(used, math.inf)]
    return [b for b in budgets if b > spec.total_load]


_builtin_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin ``sum`` of floats, Neumaier's compensated sum, for
    a Python without it.  Any item or start that is not a float (or the start
    int 0), and an empty sum, go to the real ``sum``."""
    items = list(iterable)
    if not items or any(type(x) is not float for x in items) or not (
        type(start) is float or (type(start) is int and start == 0)
    ):
        return _builtin_sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


class TestReferenceSearch:
    """The search decides each budget on Python floats; the vectorised
    search it replaced is kept in ``reference_search`` as the oracle."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 50), with_tabular=st.booleans(),
           spread=st.lists(st.floats(1e-9, 20.0), min_size=1, max_size=10))
    def test_search_matches_the_vectorised_search(self, seed, m, with_tabular, spread):
        spec = random_spec(np.random.default_rng(seed), m=m, with_tabular=with_tabular)
        budgets = _budgets_at_breakpoints(spec, spread)
        got = optimizer._search(spec, budgets, k_max=DEFAULT_K_MAX)
        want = reference_search(spec, np.array(budgets), k_max=DEFAULT_K_MAX)
        for b, a, r in zip(budgets, got, want):
            assert a.budget_used <= b * (1 + 1e-12)
            assert a == r

    def test_sums_take_numpys_order(self):
        # Left to right under 8 terms, pairwise in 8 lanes to 128, halves past.
        rng = np.random.default_rng(5)
        for n in range(1, 300):
            row = rng.lognormal(0.0, 8.0, size=(1, n))
            assert optimizer._numpy_sum(row[0].tolist()) == row.sum(axis=1)[0]

    def test_a_compensated_builtin_sum_changes_nothing(self, monkeypatch):
        # Python 3.12 made the builtin sum of floats compensated.  Under a copy
        # of it, the sums still take numpy's order and the search still
        # matches the vectorised one (both run under the copy).
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # the copy is in place
        self.test_sums_take_numpys_order()
        for seed in range(30):
            rng = np.random.default_rng(seed)
            spec = random_spec(rng, m=int(rng.integers(1, 51)), with_tabular=seed % 2 == 1)
            budgets = _budgets_at_breakpoints(spec, [1e-9, 1e-3, 0.1, 1.0, 5.0, 20.0])
            got = optimizer._search(spec, budgets, k_max=DEFAULT_K_MAX)
            assert got == reference_search(spec, np.array(budgets), k_max=DEFAULT_K_MAX)


def test_rates_and_srf_usage_sum_in_numpys_order(monkeypatch):
    # Under a copy of Python 3.12's compensated builtin sum, the total
    # arrival rate and an SRF pool's usage still add in numpy's order.
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert load_spec(FOUR_TYPE_TABULAR).total_rate == 1.4000000000000001
    # At a grant of 1 every s(1) is 1, so the usage is the loads' sum:
    # 1.0 in numpy's order, one ulp more compensated.  A pool of 1 + ulp
    # keeps up only in numpy's order.
    spec = WorkloadSpec(
        tuple(JobType(f"t{i}", PowerLaw(0.5), rate, Deterministic(1.0))
              for i, rate in enumerate([1.0, 1e-16, 1e-16])),
        budget=2.0,
    )
    simulator._check_policy(spec, SmallestRemainingFirst(math.nextafter(1.0, 2.0), 1.0))


class TestAllocationBuilder:
    """Every allocation comes from one width matrix: speeds by column, the
    objective and usage by row.  They equal the public functions' values."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 50), with_tabular=st.booleans(),
           spread=st.lists(st.floats(1e-9, 20.0), min_size=1, max_size=20))
    def test_rows_equal_objective_and_budget_usage(self, seed, m, with_tabular, spread):
        spec = random_spec(np.random.default_rng(seed), m=m, with_tabular=with_tabular)
        budgets = spec.total_load * (1.0 + np.array(spread))
        for a in optimizer._search(spec, budgets, k_max=DEFAULT_K_MAX):
            assert a.objective == objective(spec, a.ks)
            assert a.budget_used == budget_usage(spec, a.ks)

    def test_oracle_uses_the_same_builder(self, two_type_spec):
        bf = brute_force_allocation(two_type_spec, 1e-2)
        assert (bf.objective, bf.budget_used) == (
            objective(two_type_spec, bf.ks), budget_usage(two_type_spec, bf.ks))
        assert (bf.multiplier, bf.cap_active) == (0.0, False)

    def test_tabular_solve_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on numpy 2.4, about 1.5 MB of peak RSS.
        code = (
            "import sys\n"
            "from gpurental import Deterministic, JobType, Tabular, WorkloadSpec,"
            " solve_allocation\n"
            "f = Tabular(((1, 1), (4, 3), (16, 6)))\n"
            "solve_allocation(WorkloadSpec((JobType('t', f, 0.5, Deterministic(1.0)),), 1.0))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "False\n"


class TestBruteForce:
    def test_huge_load_does_not_overflow_the_grid(self):
        # Usage is load * (k / s), as in the solver: load * k overflows here,
        # and every wider grid point would read as infeasible.
        spec = WorkloadSpec((JobType("t", Amdahl(0.999), 1e307, Deterministic(1.0)),), 1.5e307)
        assert solve_allocation(spec).ks[0] == pytest.approx(501.0)
        bf = brute_force_allocation(spec, 1.0)
        assert bf.ks == (500.0,)
        assert bf.objective == pytest.approx(0.002998)

    @pytest.mark.parametrize("step", [0.0, -1.0])
    def test_grid_step_must_be_positive(self, two_type_spec, step):
        with pytest.raises(ValueError, match="^grid_step must be positive$"):
            brute_force_allocation(two_type_spec, step)

    def test_axis_past_the_limit_refused(self, two_type_spec):
        with pytest.raises(BruteForceError, match="grid points at step 1e-08; raise grid_step"):
            brute_force_allocation(two_type_spec, 1e-8)

    def test_single_type_closed_form(self, single_power_spec):
        bf = brute_force_allocation(single_power_spec, 1e-3)
        assert 3.99 <= bf.ks[0] <= 4.01
        assert bf.budget_used <= 1.0

    def test_boundary_instance_single_point(self):
        spec = WorkloadSpec(
            (JobType("a", Amdahl(0.7), 0.5, Deterministic(1.0)),), budget=0.5 + 1e-12
        )
        bf = brute_force_allocation(spec, 1e-3)
        assert bf.ks[0] == pytest.approx(1.0)

    def test_too_many_types(self):
        types = tuple(
            JobType(f"t{i}", PowerLaw(0.5), 0.2, Deterministic(1.0)) for i in range(5)
        )
        spec = WorkloadSpec(types, budget=5.0)
        with pytest.raises(BruteForceError):
            brute_force_allocation(spec, 0.1)

    def test_unstable_rejected(self):
        spec = WorkloadSpec(
            (JobType("a", Amdahl(0.5), 1.0, Deterministic(1.0)),), budget=0.9
        )
        with pytest.raises(InstabilityError):
            brute_force_allocation(spec, 0.01)

    def test_three_types_against_solver(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            spec = random_spec(rng, m=3)
            a = solve_allocation(spec)
            bf = brute_force_allocation(spec, 1e-3)
            assert a.objective <= bf.objective * (1 + 1e-3)
            # two-sided: the oracle shouldn't be beaten by more than grid slack
            assert bf.objective <= a.objective * (1 + 1e-3)


class TestMergeSegments:
    def test_identity(self):
        assert merge_segments(3.0, 0.7, 3.0, 123.0) == pytest.approx(3.0)

    def test_symmetry(self):
        assert merge_segments(1.0, 1.0, 3.0, 1.0) == pytest.approx(2.0)

    def test_weighted(self):
        assert merge_segments(2.0, 1.0, 5.0, 3.0) == pytest.approx(4.25)

    def test_non_positive_duration(self):
        for t1, t2 in ((0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                       (1.0, np.inf)):
            with pytest.raises(ValueError, match="^segment durations must be positive and finite"):
                merge_segments(2.0, t1, 3.0, t2)

    @pytest.mark.parametrize("k", [0.5, np.nan, np.inf])
    def test_widths_must_be_finite_and_at_least_one(self, k):
        with pytest.raises(ValueError):
            merge_segments(k, 1.0, 3.0, 1.0)
        spec = WorkloadSpec((JobType("t", PowerLaw(0.5), 0.5, Deterministic(1.0)),), 1.0)
        with pytest.raises(ValueError):
            objective(spec, [k])

    def test_merge_dominance_all_families(self):
        # Work x_i = t_i * s(k_i) done in two segments, redone at the merged
        # width: never slower in total, never more GPU-hours.
        rng = np.random.default_rng(5)
        fams = [Amdahl(0.6), Amdahl(0.95), PowerLaw(0.3), PowerLaw(0.8), PowerLaw(1.0)]
        fams += [random_concave_tabular(rng) for _ in range(3)]
        for f in fams:
            for _ in range(200):
                k1, k2 = np.exp(rng.uniform(0, np.log(200), size=2))
                t1, t2 = rng.uniform(0.01, 10.0, size=2)
                x1, x2 = t1 * f(k1), t2 * f(k2)
                k = merge_segments(k1, t1, k2, t2)
                t_merged = (x1 + x2) / f(k)
                assert t_merged <= (t1 + t2) * (1 + 1e-9)
                assert k * t_merged <= (k1 * t1 + k2 * t2) * (1 + 1e-9)


class TestPareto:
    def test_single_type_closed_form(self, single_power_spec):
        # Budget binds: 0.5*sqrt(k) = b, so E[T] = 1/(2b).
        pts = pareto_frontier(single_power_spec, [1.0, 2.0])
        assert pts[0].allocation.objective == pytest.approx(0.5, abs=1e-6)
        assert pts[1].allocation.objective == pytest.approx(0.25, abs=1e-6)

    def test_boundary_endpoint(self, two_type_spec):
        pts = pareto_frontier(two_type_spec, [0.8 + 1e-6])
        ks = pts[0].allocation.ks
        assert all(k <= 1.01 for k in ks)

    def test_infeasible_budgets_become_errors(self, two_type_spec):
        pts = pareto_frontier(two_type_spec, [-1.0, 0.5, 0.8, 2.0])
        assert [p.error for p in pts[:3]] == [
            "budget must be positive and finite, got -1.0",
            "total load 0.8 >= budget 0.5",
            "total load 0.8 >= budget 0.8",  # equality is unstable too
        ]
        assert all(p.allocation is None for p in pts[:3])
        assert pts[3].allocation is not None and pts[3].error is None
        for b in (np.nan, np.inf):
            (pt,) = pareto_frontier(two_type_spec, [b])
            assert pt.error == f"budget must be positive and finite, got {b}"

    def test_results_sorted_by_budget(self, two_type_spec):
        pts = pareto_frontier(two_type_spec, [3.0, 1.0, 2.0])
        assert [p.budget for p in pts] == [1.0, 2.0, 3.0]

    def test_nan_budget_sorts_last(self, two_type_spec):
        # As np.sort orders them; sorted() would leave 3, nan, 1, 2 as given.
        pts = pareto_frontier(two_type_spec, [3.0, np.nan, 1.0, 2.0])
        assert [p.budget for p in pts[:3]] == [1.0, 2.0, 3.0]
        assert math.isnan(pts[3].budget)
        assert pts[3].allocation is None
        assert pts[3].error == "budget must be positive and finite, got nan"
        assert all(p.allocation is not None for p in pts[:3])

    def test_monotone_frontier(self, two_type_spec):
        budgets = np.linspace(0.85, 4.0, 15)
        pts = pareto_frontier(two_type_spec, budgets)
        ets = [p.allocation.objective for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(ets, ets[1:]))
        for i in range(2):
            ks = [p.allocation.ks[i] for p in pts]
            assert all(b >= a - 1e-5 for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("with_tabular", [False, True])
    def test_rows_equal_single_solves_bit_for_bit(self, two_type_spec, with_tabular):
        spec = two_type_spec
        if with_tabular:
            extra = JobType("tab", Tabular(((1, 1), (2, 1.8), (4, 3), (8, 4.2), (16, 5))),
                            0.5, Deterministic(1.0))
            spec = WorkloadSpec(spec.types + (extra,), budget=spec.budget)
        budgets = np.linspace(spec.total_load * 1.01, spec.total_load * 8, 20)
        pts = pareto_frontier(spec, budgets)
        for pt in pts:
            alone = solve_allocation(dataclasses.replace(spec, budget=pt.budget))
            assert pt.allocation == alone
