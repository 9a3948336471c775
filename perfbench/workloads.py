"""The benchmark's workloads: inputs, command lists and output checks.

Each workload is a fixed list of ``gpurental`` CLI invocations (one *pass*)
plus a check that turns the pass's outputs into failures per command.  The
checks test invariants and analytic identities of the model, never goldens
copied from today's output, so a change that fixes a fidelity bug in a
baseline policy does not read as a failure.

Why these four:

* ``frontier-smooth``: budget sweep and per-budget solves on smooth speedup
  families (Amdahl, power law).  Almost all time is the optimizer's inner
  1-D search; no trace code runs.
* ``frontier-tabular``: the same commands on a four-type spec with two
  tabular (piecewise-linear) types, whose widths land on knots, so the fill
  pass and the piecewise-linear evaluator do the work.  A change that helps
  smooth families but hurts tabular ones shows here.
* ``trace-replay``: trace generation, fixed-width replay with per-job and
  K(t) output, and a comparison of fixed-width policies on a 100k-job trace.
  Trace CSV I/O and the CLI's CSV formatting dominate; the event loop
  never runs.
* ``cluster-baselines``: the event-driven ``cluster``/``srf`` replays on a
  50k-job trace, at a large and a small pool (about 0.3 versus 1.8 mean
  jobs in system), because per-event cost grows with the jobs present.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gpurental import optimizer, simulator, workload

HERE = Path(__file__).resolve().parent
TABULAR_SPEC = HERE / "four_type_tabular.json"

WORKLOADS = ("frontier-smooth", "frontier-tabular", "trace-replay", "cluster-baselines")

BUDGET_TOL = 1e-9  # the solver's documented feasibility slack
PRINT_TOL = 1e-11  # relative rounding of numbers printed with 12 significant digits
ORACLE_STEP = 1e-3  # grid step of the brute-force cross-check
ORACLE_REL = 1e-3  # allowed relative gap between solver and grid oracle
IDENTITY_REL = 2e-2  # replay vs. prediction at 100k jobs (observed <= 0.72 %)
IDENTITY_JOBS = 100_000
TIMESERIES_STEP = 1

TRACE_REPLAY_POLICIES = "optimal;uniform:7.5;fixed:9,6"
CLUSTER_POLICIES = "optimal;cluster:8;srf:8,4;cluster:1.25;srf:1.25,1"
# Baseline policies whose occupancy the traced run reports.
BASELINE_LABELS = ("cluster:8", "srf:8,4", "cluster:1.25", "srf:1.25,1")
COMPARE_FIELDS = ("job_count", "mean_response_time", "time_avg_budget", "total_gpu_hours")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    files: tuple[Path, ...] = ()  # output files that belong to the command's output

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    spec_path: Path
    commands: list[Command]
    check: Callable[[list[str]], dict[int, list[str]]]  # failures by command index
    trace: workload.Trace | None = None  # the replayed trace, when built before timing
    baselines: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def repo_spec(root: Path) -> Path:
    return root / "configs" / "two_type.json"


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _with_budget(spec: workload.WorkloadSpec, b: float) -> workload.WorkloadSpec:
    return dataclasses.replace(spec, budget=float(b))


# -- frontier ------------------------------------------------------------------


def oracle_indices(points: int) -> list[int]:
    """Fixed subset of budget indices checked against the grid oracle."""
    return sorted({0, points // 4, points // 2, (3 * points) // 4, points - 1})


def parse_pareto(text: str, m: int) -> list[tuple[float, float | None, list[float] | None, str]]:
    """Rows of a pareto CSV as (budget, objective, ks, error)."""
    lines = text.splitlines()
    expected = "budget,mean_response_time," + ",".join(f"k_{i + 1}" for i in range(m))
    if not lines or lines[0] != expected:
        raise ValueError(f"bad pareto header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != m + 2:
            raise ValueError(f"bad pareto row {line!r}")
        if parts[1].startswith("error"):
            rows.append((float(parts[0]), None, None, parts[1]))
        else:
            rows.append((float(parts[0]), float(parts[1]), [float(k) for k in parts[2:]], ""))
    return rows


def check_frontier(spec, budgets, order, stdouts) -> dict[int, list[str]]:
    """Command 0 is ``pareto`` over ``budgets``; command j >= 1 is ``solve``
    at ``budgets[order[j - 1]]``."""
    bad: dict[int, list[str]] = defaultdict(list)
    m = len(spec.types)
    try:
        rows = parse_pareto(stdouts[0], m)
    except ValueError as exc:
        bad[0].append(str(exc))
        rows = []
    if len(rows) != len(budgets):
        bad[0].append(f"pareto has {len(rows)} rows, expected {len(budgets)}")
        rows = []
    prev = math.inf
    for i, (b, obj, ks, err) in enumerate(rows):
        if ks is None:
            bad[0].append(f"budget {b!r} did not solve: {err}")
            continue
        if _rel_gap(b, budgets[i]) > PRINT_TOL:
            bad[0].append(f"row {i}: budget {b!r}, expected {budgets[i]!r}")
        used = optimizer.budget_usage(_with_budget(spec, budgets[i]), ks)
        if used > budgets[i] * (1 + BUDGET_TOL) * (1 + PRINT_TOL):
            bad[0].append(f"row {i}: widths use {used!r} > budget {budgets[i]!r}")
        if obj > prev * (1 + BUDGET_TOL):
            bad[0].append(f"row {i}: objective {obj!r} rose above {prev!r} at a larger budget")
        prev = obj

    oracle = set(oracle_indices(len(budgets)))
    for j, i in enumerate(order, start=1):
        b = float(budgets[i])
        try:
            alloc = json.loads(stdouts[j])
            ks = [float(k) for k in alloc["ks"]]
            obj = float(alloc["objective"])
            claimed = float(alloc["budget_used"])
        except (ValueError, KeyError, TypeError) as exc:
            bad[j].append(f"unreadable solve output: {exc}")
            continue
        limit = b * (1 + BUDGET_TOL) * (1 + PRINT_TOL)
        used = optimizer.budget_usage(_with_budget(spec, b), ks)
        if claimed > limit or used > limit:
            bad[j].append(f"budget {b!r}: uses {max(claimed, used)!r}, over budget")
        if rows and rows[i][2] is not None:
            _, row_obj, row_ks, _ = rows[i]
            gaps = [_rel_gap(x, y) for x, y in zip(ks + [obj], row_ks + [row_obj])]
            if len(ks) != len(row_ks) or max(gaps) > BUDGET_TOL:
                bad[j].append(f"budget {b!r}: solve {ks}, {obj} differs from pareto row")
        if i in oracle:
            grid = optimizer.brute_force_allocation(_with_budget(spec, b), ORACLE_STEP)
            if _rel_gap(obj, grid.objective) > ORACLE_REL:
                bad[j].append(
                    f"budget {b!r}: objective {obj!r} vs grid oracle {grid.objective!r}"
                )
    return bad


def frontier(name, spec_path: Path, b_min, b_max, points, seed, workdir: Path) -> Workload:
    """``pareto`` over ``points`` budgets, then one ``solve`` per budget, each
    from its own spec file, in an order drawn from the seed."""
    doc = json.loads(spec_path.read_text())
    budgets = np.linspace(b_min, b_max, points)
    spec_files = []
    for i, b in enumerate(budgets):
        doc["budget"] = float(b)  # json writes repr, so the budget round-trips exactly
        path = workdir / f"budget_{i:03d}.json"
        path.write_text(json.dumps(doc))
        spec_files.append(path)
    order = [int(i) for i in np.random.default_rng(seed).permutation(points)]
    commands = [
        Command(
            ("pareto", "--spec", str(spec_path), "--b-min", repr(b_min),
             "--b-max", repr(b_max), "--points", str(points))
        )
    ]
    commands += [Command(("solve", "--spec", str(spec_files[i]))) for i in order]
    spec = workload.load_spec(spec_path)
    return Workload(
        name, spec_path, commands,
        check=lambda stdouts: check_frontier(spec, budgets, order, stdouts),
        extra={"budgets": points},
    )


# -- trace replays -------------------------------------------------------------


def _policy_widths(label: str, spec, optimal_ks) -> np.ndarray | None:
    """Widths of a fixed-width policy label, or None for a pooled baseline."""
    kind, _, rest = label.partition(":")
    if kind == "optimal":
        return np.asarray(optimal_ks, dtype=float)
    if kind == "uniform":
        return np.full(len(spec.types), float(rest))
    if kind == "fixed":
        return np.array([float(x) for x in rest.split(",")])
    return None


def _speeds(spec, widths: np.ndarray) -> np.ndarray:
    return np.array([t.speedup(float(k)) for t, k in zip(spec.types, widths)])


def _pool_cap(label: str) -> tuple[float, float]:
    """(pool size C, most GPUs one job can hold) of a cluster/srf label."""
    kind, _, rest = label.partition(":")
    if kind == "cluster":
        c = float(rest)
        return c, c
    c, cap = (float(x) for x in rest.split(","))
    return c, min(c, cap)


def _extended_speed(spec, type_idx: int, a: float) -> float:
    """Speed on ``a`` GPUs; below one GPU the baselines scale s(1) linearly."""
    f = spec.types[type_idx].speedup
    return f(a) if a >= 1.0 else a * f(1.0)


def parse_compare(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["policy", *COMPARE_FIELDS]:
        raise ValueError(f"bad compare header {header!r}")
    return [
        {"policy": r[0], "job_count": int(r[1]),
         **{k: float(v) for k, v in zip(COMPARE_FIELDS[1:], r[2:], strict=True)}}
        for r in reader
    ]


def compare_errors(spec, trace, labels, optimal_ks, text) -> list[str]:
    """Invariants every policy's row must meet on ``trace``."""
    try:
        rows = parse_compare(text)
    except (ValueError, IndexError, StopIteration) as exc:
        return [f"unreadable compare output: {exc}"]
    if [r["policy"] for r in rows] != labels:
        return [f"compare rows {[r['policy'] for r in rows]} != {labels}"]
    errors = []
    n = len(trace)
    work = float(trace.sizes.sum())
    for r in rows:
        label = r["policy"]
        vals = (r["mean_response_time"], r["time_avg_budget"], r["total_gpu_hours"])
        if r["job_count"] != n:
            errors.append(f"{label}: job_count {r['job_count']} != {n}")
        if not all(math.isfinite(v) for v in vals):
            errors.append(f"{label}: non-finite metric in {vals}")
            continue
        if r["total_gpu_hours"] < work * (1 - BUDGET_TOL):
            errors.append(f"{label}: {r['total_gpu_hours']!r} GPU-hours < total work {work!r}")
        widths = _policy_widths(label, spec, optimal_ks)
        if widths is not None:
            # fixed width, no queueing: each job takes exactly size / s(k)
            speeds = _speeds(spec, widths)[trace.type_indices]
            mrt = float((trace.sizes / speeds).mean())
            hours = float((widths[trace.type_indices] * trace.sizes / speeds).sum())
            if _rel_gap(r["mean_response_time"], mrt) > BUDGET_TOL:
                errors.append(f"{label}: mean response {r['mean_response_time']!r} != {mrt!r}")
            if _rel_gap(r["total_gpu_hours"], hours) > BUDGET_TOL:
                errors.append(f"{label}: GPU-hours {r['total_gpu_hours']!r} != {hours!r}")
        else:
            pool, cap = _pool_cap(label)
            if r["time_avg_budget"] > pool * (1 + BUDGET_TOL):
                errors.append(f"{label}: time-average budget {r['time_avg_budget']!r} > pool")
            fastest = np.array([_extended_speed(spec, i, cap) for i in range(len(spec.types))])
            floor = float((trace.sizes / fastest[trace.type_indices]).mean())
            if r["mean_response_time"] < floor * (1 - BUDGET_TOL):
                errors.append(
                    f"{label}: mean response {r['mean_response_time']!r}"
                    f" < mean size/s(cap) {floor!r}"
                )
    return errors


def identity_tolerance(n: int) -> float:
    """Allowed replay-vs-prediction gap; sampling error shrinks as 1/sqrt(n)."""
    return IDENTITY_REL * math.sqrt(max(1.0, IDENTITY_JOBS / n))


def check_trace_replay(spec, n, seed, paths, stdouts) -> dict[int, list[str]]:
    """Commands: 0 gen-trace, 1 simulate --policy optimal, 2 compare."""
    bad: dict[int, list[str]] = defaultdict(list)
    trace = workload.generate_trace(spec, n, seed)
    try:
        if workload.read_trace(paths["trace"]) != trace:
            bad[0].append("trace file does not read back equal to generate_trace")
    except workload.TraceError as exc:
        bad[0].append(f"trace file unreadable: {exc}")

    alloc = optimizer.solve_allocation(spec)
    widths = np.asarray(alloc.ks)
    speeds = _speeds(spec, widths)[trace.type_indices]
    durations = trace.sizes / speeds
    completions = trace.arrival_times + durations

    tol = identity_tolerance(n)
    try:
        metrics = json.loads(stdouts[1])
        if metrics["job_count"] != n:
            bad[1].append(f"job_count {metrics['job_count']} != {n}")
        if _rel_gap(metrics["mean_response_time"], alloc.objective) > tol:
            bad[1].append(f"mean response {metrics['mean_response_time']!r}"
                          f" vs objective {alloc.objective!r}")
        if _rel_gap(metrics["time_avg_budget"], alloc.budget_used) > tol:
            bad[1].append(f"time-average budget {metrics['time_avg_budget']!r}"
                          f" vs budget_usage {alloc.budget_used!r}")
    except (ValueError, KeyError, TypeError) as exc:
        bad[1].append(f"unreadable simulate output: {exc}")
        metrics = None

    per_job = paths["per_job"].read_text().splitlines()
    if per_job[:1] != ["arrival,completion,response,gpu_hours"] or len(per_job) != n + 1:
        bad[1].append(f"per-job CSV has {len(per_job)} lines, expected {n + 1}")
    else:
        cols = np.loadtxt(per_job[1:], delimiter=",", ndmin=2)
        expect = np.column_stack(
            [trace.arrival_times, completions, completions - trace.arrival_times,
             widths[trace.type_indices] * durations]
        )
        gap = np.abs(cols - expect) / np.maximum(np.abs(expect), 1e-300)
        if gap.max() > BUDGET_TOL:
            row = int(np.argmax(gap.max(axis=1)))
            bad[1].append(f"per-job row {row + 1} {cols[row].tolist()} != {expect[row].tolist()}")
    k_rows = paths["timeseries"].read_text().count("\n")
    expect_rows = math.ceil(float(completions.max()) / TIMESERIES_STEP) + 2  # header, t = 0
    if k_rows != expect_rows:
        bad[1].append(f"K(t) CSV has {k_rows} lines, expected {expect_rows}")

    labels = TRACE_REPLAY_POLICIES.split(";")
    bad[2].extend(compare_errors(spec, trace, labels, alloc.ks, stdouts[2]))
    if metrics is not None and not bad[2]:
        opt = parse_compare(stdouts[2])[0]
        for key in ("mean_response_time", "time_avg_budget", "total_gpu_hours"):
            if _rel_gap(opt[key], metrics[key]) > PRINT_TOL:
                bad[2].append(f"optimal {key} {opt[key]!r} != simulate's {metrics[key]!r}")
    return {k: v for k, v in bad.items() if v}


def trace_replay(root: Path, seed: int, workdir: Path, jobs: int = IDENTITY_JOBS) -> Workload:
    spec_path = repo_spec(root)
    spec = workload.load_spec(spec_path)
    paths = {
        "trace": workdir / "trace.csv",
        "per_job": workdir / "per_job.csv",
        "timeseries": workdir / "k_of_t.csv",
    }
    s = str(spec_path)
    commands = [
        Command(("gen-trace", "--spec", s, "--jobs", str(jobs), "--seed", str(seed),
                 "--out", str(paths["trace"])), files=(paths["trace"],)),
        Command(("simulate", "--spec", s, "--trace", str(paths["trace"]), "--policy", "optimal",
                 "--per-job", str(paths["per_job"]), "--timeseries", str(paths["timeseries"]),
                 "--timeseries-step", str(TIMESERIES_STEP)),
                files=(paths["per_job"], paths["timeseries"])),
        Command(("compare", "--spec", s, "--trace", str(paths["trace"]),
                 "--policies", TRACE_REPLAY_POLICIES)),
    ]
    return Workload(
        "trace-replay", spec_path, commands,
        check=lambda stdouts: check_trace_replay(spec, jobs, seed, paths, stdouts),
        extra={"jobs": jobs},
    )


def cluster_baselines(root: Path, seed: int, workdir: Path, jobs: int = 50_000) -> Workload:
    spec_path = repo_spec(root)
    spec = workload.load_spec(spec_path)
    trace = workload.generate_trace(spec, jobs, seed)
    trace_path = workdir / "trace.csv"
    workload.write_trace(trace, trace_path)
    labels = CLUSTER_POLICIES.split(";")
    command = Command(("compare", "--spec", str(spec_path), "--trace", str(trace_path),
                       "--policies", CLUSTER_POLICIES))

    def check(stdouts):
        optimal_ks = optimizer.solve_allocation(spec).ks
        errors = compare_errors(spec, trace, labels, optimal_ks, stdouts[0])
        return {0: errors} if errors else {}

    return Workload("cluster-baselines", spec_path, [command], check=check, trace=trace,
                    baselines=BASELINE_LABELS, extra={"jobs": jobs})


# -- construction --------------------------------------------------------------


def build(name: str, root: Path, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Write the workload's inputs under ``workdir`` and return it.  ``tiny``
    shrinks every size for the benchmark's own tests."""
    if name == "frontier-smooth":
        return frontier(name, repo_spec(root), 0.85, 4.0, 8 if tiny else 200, seed, workdir)
    if name == "frontier-tabular":
        return frontier(name, TABULAR_SPEC, 1.55, 12.0, 8 if tiny else 200, seed, workdir)
    if name == "trace-replay":
        return trace_replay(root, seed, workdir, jobs=3000 if tiny else IDENTITY_JOBS)
    if name == "cluster-baselines":
        return cluster_baselines(root, seed, workdir, jobs=1500 if tiny else 50_000)
    raise ValueError(f"unknown workload {name!r}")


def baseline_policy(label: str):
    kind, _, rest = label.partition(":")
    if kind == "cluster":
        return simulator.StaticClusterEqualSplit(float(rest))
    pool, cap = rest.split(",")
    return simulator.SmallestRemainingFirst(float(pool), float(cap))


def jobs_in_system(wl: Workload, label: str) -> tuple[float, int]:
    """Time-average and peak number of jobs present under a baseline policy
    on the workload's trace, from per-job (arrival, completion) output over
    [0, last completion]."""
    spec = workload.load_spec(wl.spec_path)
    per_job = simulator.simulate(wl.trace, spec, baseline_policy(label)).per_job
    arrivals, completions = per_job[:, 0], per_job[:, 1]
    mean = float((completions - arrivals).sum()) / float(completions.max())
    times = np.concatenate([arrivals, completions])
    steps = np.concatenate([np.ones(len(arrivals)), -np.ones(len(completions))])
    order = np.lexsort((steps, times))  # at a tie, completions (-1) leave first
    return mean, int(np.cumsum(steps[order]).max())
