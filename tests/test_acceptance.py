"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from gpurental import (
    Amdahl,
    Exponential,
    FixedWidth,
    JobType,
    PowerLaw,
    SmallestRemainingFirst,
    StaticClusterEqualSplit,
    Trace,
    WorkloadSpec,
    brute_force_allocation,
    budget_usage,
    empirical_loads,
    generate_trace,
    merge_segments,
    objective,
    pareto_frontier,
    simulate,
    solve_allocation,
)
from gpurental.cli import main
from randspecs import random_concave_tabular, random_spec


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {state}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)


@pytest.fixture(scope="module")
def ref_spec():
    return WorkloadSpec(
        types=(
            JobType("amdahl", Amdahl(0.8), arrival_rate=0.4, size_dist=Exponential(1.0)),
            JobType("sqrt", PowerLaw(0.5), arrival_rate=0.4, size_dist=Exponential(1.0)),
        ),
        budget=2.0,
    )


@pytest.fixture(scope="module")
def identity_runs(ref_spec):
    """Shared by criteria 3 and 4: replay the optimal plan over 20 seeds."""
    alloc = solve_allocation(ref_spec)
    pred_budget = budget_usage(ref_spec, alloc.ks)
    pred_response = objective(ref_spec, alloc.ks)
    budget_errs = []
    response_errs = []
    t0 = time.perf_counter()
    for seed in range(20):
        trace = generate_trace(ref_spec, 100_000, seed=seed)
        m = simulate(trace, ref_spec, FixedWidth(alloc.ks), collect_per_job=False)
        budget_errs.append(abs(m.time_avg_budget - pred_budget) / pred_budget)
        response_errs.append(abs(m.mean_response_time - pred_response) / pred_response)
    elapsed = time.perf_counter() - t0
    return budget_errs, response_errs, elapsed


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20250810)
    worst_gap = -np.inf
    slowest = 0.0
    ok = True
    for i in range(100):
        spec = random_spec(rng, m=1 + i % 3)
        t0 = time.perf_counter()
        a = solve_allocation(spec)
        bf = brute_force_allocation(spec, grid_step=1e-3)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        gap = (a.objective - bf.objective) / bf.objective
        worst_gap = max(worst_gap, gap)
        ok &= a.objective <= bf.objective * (1 + 1e-3)
        ok &= dt < 1.0
    _report(
        1,
        "solver within 1e-3 relative of the 1e-3 grid oracle on 100 random specs",
        ok,
        f"worst gap {worst_gap:.2e}, slowest instance {slowest * 1e3:.0f} ms",
    )
    assert ok


def test_criterion_2_closed_form_instance():
    spec = WorkloadSpec(
        types=(JobType("sqrt", PowerLaw(0.5), 0.5, Exponential(1.0)),),
        budget=1.0,
    )
    a = solve_allocation(spec)
    ok = (
        abs(a.ks[0] - 4.0) <= 1e-6
        and abs(a.objective - 0.5) <= 1e-6
        and abs(a.budget_used - 1.0) <= 1e-9
    )
    _report(
        2,
        "single sqrt type with load 0.5, budget 1: k=4, E[T]=0.5, budget 1",
        ok,
        f"k={a.ks[0]:.9f}, E[T]={a.objective:.9f}, used={a.budget_used:.12f}",
    )
    assert ok


def test_criterion_3_budget_identity(identity_runs):
    budget_errs, _, elapsed = identity_runs
    med = float(np.median(budget_errs))
    ok = med <= 0.01 and elapsed < 10.0
    _report(
        3,
        "simulated time-average budget matches sum of load*k/s(k) within 1%",
        ok,
        f"median rel err {med:.2%} over 20 seeds, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_4_response_identity(identity_runs):
    _, response_errs, _ = identity_runs
    med = float(np.median(response_errs))
    ok = med <= 0.01
    _report(
        4,
        "simulated mean response time matches (1/rate) * sum of load/s(k) within 1%",
        ok,
        f"median rel err {med:.2%} over 20 seeds",
    )
    assert ok


def test_criterion_5_merge_dominance():
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True

    def draws(make_f, n=1000):
        nonlocal worst, ok
        for _ in range(n):
            f = make_f()
            k1, k2 = np.exp(rng.uniform(0.0, np.log(300.0), size=2))
            t1, t2 = rng.uniform(0.01, 20.0, size=2)
            x1, x2 = t1 * f(k1), t2 * f(k2)
            k = merge_segments(k1, t1, k2, t2)
            t_merged = (x1 + x2) / f(k)
            time_viol = t_merged / (t1 + t2) - 1.0
            cost_viol = k * t_merged / (k1 * t1 + k2 * t2) - 1.0
            worst = max(worst, time_viol, cost_viol)
            ok &= time_viol <= 1e-9 and cost_viol <= 1e-9

    draws(lambda: Amdahl(float(rng.uniform(0.0, 1.0))))
    draws(lambda: PowerLaw(float(rng.uniform(0.05, 1.0))))
    draws(lambda: random_concave_tabular(rng))
    _report(
        5,
        "merged segment finishes the work no later and with no more GPU-hours "
        "(1000 draws per family)",
        ok,
        f"worst violation {worst:.2e}",
    )
    assert ok


def test_criterion_6_boundary_budget():
    types = (
        JobType("a", Amdahl(0.7), 0.4, Exponential(1.0)),
        JobType("p", PowerLaw(0.6), 0.4, Exponential(1.0)),
    )
    spec = WorkloadSpec(types, budget=0.8 + 1e-9)
    a = solve_allocation(spec)
    ok = all(1.0 <= k <= 1.001 for k in a.ks) and a.budget_used <= spec.budget * (1 + 1e-9)
    _report(
        6,
        "budget pinned at total load + 1e-9 forces every width into [1, 1.001]",
        ok,
        f"ks={tuple(round(k, 6) for k in a.ks)}",
    )
    assert ok


def test_criterion_7_pareto_reproduction(ref_spec):
    t0 = time.perf_counter()
    budgets = np.linspace(0.85, 4.0, 50)
    pts = pareto_frontier(ref_spec, budgets)
    ok = all(p.allocation is not None for p in pts)
    ets = [p.allocation.objective for p in pts]
    ok &= all(b <= a + 1e-12 for a, b in zip(ets, ets[1:]))
    for i in range(2):
        ks = [p.allocation.ks[i] for p in pts]
        ok &= all(b >= a - 1e-5 for a, b in zip(ks, ks[1:]))
    worst = 0.0
    for p in pts:
        bf = brute_force_allocation(dataclasses.replace(ref_spec, budget=p.budget), 1e-3)
        rel = abs(p.allocation.objective - bf.objective) / bf.objective
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok &= worst <= 1e-3 and elapsed < 30.0
    _report(
        7,
        "50-point budget sweep: response monotone down, widths monotone up, "
        "each point within 1e-3 of the grid oracle",
        ok,
        f"worst rel diff {worst:.1e}, {elapsed:.1f} s",
    )
    assert ok


def test_criterion_8_no_feasible_baseline_beats_optimal(ref_spec):
    b = ref_spec.budget
    trace = generate_trace(ref_spec, 100_000, seed=20240)
    prefix = Trace(trace.arrival_times[:20_000], trace.type_indices[:20_000],
                   trace.sizes[:20_000])
    alloc = solve_allocation(ref_spec)
    ref = simulate(trace, ref_spec, FixedWidth(alloc.ks), collect_per_job=False)

    def tuned(make, lo, hi):
        # Bisect the size parameter until the prefix budget hits b, then back
        # off until the full-trace budget is feasible.
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if simulate(prefix, ref_spec, make(mid), collect_per_job=False).time_avg_budget > b:
                hi = mid
            else:
                lo = mid
        param = lo
        for _ in range(20):
            m = simulate(trace, ref_spec, make(param), collect_per_job=False)
            if m.time_avg_budget <= b:
                return make(param), m
            param *= 0.999
        return None, None

    candidates = []
    pol, m = tuned(lambda k: FixedWidth((k, k)), 1.0, 25.0)
    if m:
        candidates.append(("uniform", m))
    pol, m = tuned(StaticClusterEqualSplit, 1.0, 40.0)
    if m:
        candidates.append(("equal-split", m))
    for kcap in (4.0, 9.0):
        pol, m = tuned(lambda c: SmallestRemainingFirst(c, kcap), 1.0, 40.0)
        if m:
            candidates.append((f"srf(kcap={kcap})", m))
    # Adversarial fixed-width plans: the optimum recomputed from this trace's
    # own empirical loads, plus hand-perturbed feasible plans.
    ests = empirical_loads(trace, ref_spec)
    emp_spec = WorkloadSpec(
        tuple(
            dataclasses.replace(t, arrival_rate=e.arrival_rate,
                                size_dist=Exponential(max(e.mean_size, 1e-9)))
            for t, e in zip(ref_spec.types, ests)
        ),
        budget=b,
    )
    emp_alloc = solve_allocation(emp_spec)
    for label, ks in [
        ("empirical-optimal", emp_alloc.ks),
        ("swapped", (9.0, 6.0)),
        ("perturbed", (6.5, 8.3)),
        ("narrow", (5.5, 9.4)),
    ]:
        m = simulate(trace, ref_spec, FixedWidth(ks), collect_per_job=False)
        if m.time_avg_budget <= b:
            candidates.append((label, m))

    assert candidates, "tuning produced no budget-feasible baseline"
    ok = True
    best = min(candidates, key=lambda c: c[1].mean_response_time)
    for label, m in candidates:
        ok &= m.mean_response_time >= ref.mean_response_time * (1 - 0.005)
    _report(
        8,
        "no budget-feasible baseline beats the optimal plan by more than 0.5%",
        ok,
        f"optimal E[T]={ref.mean_response_time:.5f}; best baseline {best[0]} "
        f"E[T]={best[1].mean_response_time:.5f} "
        f"(B={best[1].time_avg_budget:.4f} <= {b})",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path, two_type_config_path, capsys):
    def run(argv):
        rc = main(argv)
        assert rc == 0
        return capsys.readouterr().out

    trace_a, trace_b = tmp_path / "a.csv", tmp_path / "b.csv"
    gen = ["gen-trace", "--spec", two_type_config_path, "--jobs", "5000", "--seed", "17"]
    run(gen + ["--out", str(trace_a)])
    run(gen + ["--out", str(trace_b)])
    ok = trace_a.read_bytes() == trace_b.read_bytes()

    ok &= run(["solve", "--spec", two_type_config_path]) == run(
        ["solve", "--spec", two_type_config_path]
    )

    sim = ["simulate", "--spec", two_type_config_path, "--trace", str(trace_a),
           "--policy", "optimal"]
    ok &= run(sim) == run(sim)

    front_a, front_b = tmp_path / "fa.csv", tmp_path / "fb.csv"
    par = ["pareto", "--spec", two_type_config_path, "--b-min", "1", "--b-max", "4",
           "--points", "9"]
    run(par + ["--out", str(front_a)])
    run(par + ["--out", str(front_b)])
    ok &= front_a.read_bytes() == front_b.read_bytes()

    cmp_a, cmp_b = tmp_path / "ca.csv", tmp_path / "cb.csv"
    cmp_argv = ["compare", "--spec", two_type_config_path, "--trace", str(trace_a),
                "--policies", "optimal;uniform:2;cluster:4;srf:4,2"]
    run(cmp_argv + ["--out", str(cmp_a)])
    run(cmp_argv + ["--out", str(cmp_b)])
    ok &= cmp_a.read_bytes() == cmp_b.read_bytes()

    _report(9, "repeated CLI runs with fixed seeds are byte-identical", ok)
    assert ok
