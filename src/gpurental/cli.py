"""Command-line interface: validate, solve, gen-trace, simulate, pareto, compare.

Exit codes: 0 success, 1 validation failure (from ``validate``, or a speedup
that fails the axioms in a command that solves), 2 instability (total load
>= budget, or >= the pool of a ``cluster``/``srf`` policy, or an ``srf``
pool at or below its usage at its largest grant), 3 I/O or parse errors,
or a command that runs out of memory.
All numbers are printed with 12 significant digits so repeated runs with
the same inputs are byte-identical.

The argument parser is built once per process and reused by every ``main``
call; parsing does not change it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import AxiomError, InstabilityError, ReplayError, SpecError
from .optimizer import pareto_frontier, solve_allocation
from .simulator import (
    FixedWidth,
    Policy,
    SimMetrics,
    SmallestRemainingFirst,
    StaticClusterEqualSplit,
    _check_policy,
    _measure,
    _per_job_rows,
    _replay,
    _sample_k,
    _simulate_each,
)
from .speedup import DEFAULT_K_MAX, _check_width
from .speedup import validate as validate_speedup
from .workload import (
    _BLOCK_ROWS,
    WorkloadSpec,
    _row_line,
    _write_rows,
    generate_trace,
    load_spec,
    read_trace,
    write_trace,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNSTABLE = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _numbers(ncols: int) -> str:
    """``%`` template of ncols comma-separated numbers, each written as
    ``_fmt`` writes it: ``%.12g`` and ``format(x, ".12g")`` share one
    float-to-decimal conversion."""
    return ",".join(["%.12g"] * ncols)


def _csv_block(table) -> str:
    """The CSV lines of a 2-D numeric table: one ``%`` of the row template,
    repeated once per row, over the table's values as one tuple of Python
    floats, so no call runs per row or per value."""
    table = np.asarray(table, dtype=float)
    return ((_numbers(table.shape[1]) + "\n") * len(table)) % tuple(table.ravel().tolist())


def _write_csv(path: str, header: str, rows: int, block) -> None:
    """Write the header and rows [0, rows) to path, where ``block(lo, hi)``
    gives rows [lo, hi) as a 2-D array of the header's columns.  The rows
    are asked for one block of _BLOCK_ROWS values at a time, so no more of
    the table than that need ever exist (see ``_write_rows``)."""
    _write_rows(path, header, rows, _BLOCK_ROWS // (header.count(",") + 1),
                lambda lo, hi: _csv_block(block(lo, hi)), "a CSV writer worker")


def _json_ready(value):
    """Round floats to 12 significant digits for reproducible output."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_policy(text: str, spec: WorkloadSpec, k_max: float) -> Policy:
    """Parse a policy string: optimal | fixed:k1,..,kM | uniform:k |
    cluster:C | srf:C,kcap.  ``uniform:k`` is ``fixed:k,...,k``.  Its
    errors do not quote text; the commands name the policy (``_refused``)."""
    if text == "optimal":
        return FixedWidth(solve_allocation(spec, k_max=k_max).ks)
    kind, _, rest = text.partition(":")
    try:
        if kind == "fixed":
            return FixedWidth(tuple(float(x) for x in rest.split(",")))
        if kind == "uniform":
            return FixedWidth((float(rest),) * len(spec.types))
        if kind == "cluster":
            return StaticClusterEqualSplit(float(rest))
        if kind == "srf":
            c, cap = rest.split(",")
            return SmallestRemainingFirst(float(c), float(cap))
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"bad arguments: {exc}") from None
    raise SpecError(f"unknown policy kind {kind!r}")


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with each ``"`` doubled, when it holds
    a comma, a quote, a CR or an LF (RFC 4180)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _refused(label: str, exc: Exception, trace_path: str) -> Exception:
    """The error to print for exc, raised for the policy ``label``: a
    SpecError or InstabilityError becomes one of its type worded ``policy
    '<label>': <reason>``, where a ReplayError's reason names the line of
    the trace file that holds its row.  Any other error (a trace that does
    not fit the spec, a dead worker, no memory) is not the policy's and
    comes back as it is."""
    if isinstance(exc, ReplayError) and exc.row is not None:
        reason = f"trace line {_row_line(trace_path, exc.row)}: {exc.reason}"
    elif isinstance(exc, (SpecError, InstabilityError)):
        reason = str(exc)
    else:
        return exc
    return type(exc)(f"policy {label!r}: {reason}")


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    axioms_ok = True
    for jt in spec.types:
        report = validate_speedup(jt.speedup)
        states = " ".join(f"{c.name}={'pass' if c.passed else 'FAIL'}" for c in report.checks())
        print(f"type {jt.name!r}: {states}")
        for check in report.checks():
            if not check.passed and check.detail:
                print(f"  {check.name}: {check.detail}")
        axioms_ok &= report.ok
    stable = spec.total_load < spec.budget
    rel = "<" if stable else ">="
    print(f"stability: total load {_fmt(spec.total_load)} {rel} budget {_fmt(spec.budget)}")
    if not axioms_ok:
        print("FAILED: speedup axioms violated")
        return EXIT_VALIDATION
    if not stable:
        print("FAILED: unstable workload")
        return EXIT_UNSTABLE
    print("OK")
    return EXIT_OK


def _cmd_solve(args) -> int:
    spec = load_spec(args.spec)
    _check_width("k_max", args.k_max)
    alloc = solve_allocation(spec, k_max=args.k_max)
    text = json.dumps(_json_ready(alloc.to_dict()), indent=2) + "\n"
    _emit(text, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    spec = load_spec(args.spec)
    trace = generate_trace(spec, args.jobs, args.seed, arrivals=args.arrivals)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} events to {args.out}")
    return EXIT_OK


def _metrics_json(metrics: SimMetrics) -> str:
    return json.dumps(_json_ready(metrics.to_dict()), indent=2) + "\n"


def _cmd_simulate(args) -> int:
    spec = load_spec(args.spec)
    trace = read_trace(args.trace)
    _check_width("k_max", args.k_max)
    # One replay serves the metrics and the K(t) samples: what simulate and
    # budget_timeseries would each compute from their own replay.
    try:
        rep = _replay(trace, spec, parse_policy(args.policy, spec, args.k_max))
        metrics = _measure(trace, rep, collect_per_job=False)
    except Exception as exc:
        raise _refused(args.policy, exc, args.trace) from None
    # The files take their rows from the replay a block at a time, so no
    # per-job or per-sample table is built.
    if args.per_job:
        _write_csv(args.per_job, "arrival,completion,response,gpu_hours", len(trace),
                   lambda lo, hi: _per_job_rows(trace, rep, lo, hi))
    if args.timeseries:
        _write_csv(args.timeseries, "t,K", *_sample_k(trace, rep, args.timeseries_step))
    sys.stdout.write(_metrics_json(metrics))
    return EXIT_OK


def _cmd_pareto(args) -> int:
    spec = load_spec(args.spec)
    _check_width("k_max", args.k_max)
    if args.points < 1:
        raise SpecError("--points must be >= 1")
    if args.points >= 2**60:  # numpy refuses an array of more than 2**63 - 1 bytes
        raise SpecError(
            f"--points must be < 2**60, the largest array of doubles, got {args.points}"
        )
    # The span is not finite when either bound is not, or when it overflows;
    # np.linspace would then make NaN or infinite budgets.
    if not math.isfinite(args.b_max - args.b_min):
        raise SpecError(
            f"--b-min, --b-max and their difference must be finite, "
            f"got {args.b_min} and {args.b_max}"
        )
    # np.linspace makes point i as b_min + i * (span / (points - 1)).  With a
    # span near the largest double, that product can overflow only for the
    # last point (in any grid that fits in memory), which np.linspace then
    # sets to b_max itself.
    with np.errstate(over="ignore"):
        budgets = np.linspace(args.b_min, args.b_max, args.points)
    points = pareto_frontier(spec, budgets, k_max=args.k_max)
    m = len(spec.types)
    solved_row = _numbers(2 + m) + "\n"
    error_row = _numbers(1) + ",error: %s" + "," * m + "\n"
    rows = ["budget,mean_response_time," + ",".join(f"k_{i + 1}" for i in range(m)) + "\n"]
    successes = 0
    for pt in points:
        if pt.allocation is not None:
            successes += 1
            rows.append(solved_row % (pt.budget, pt.allocation.objective, *pt.allocation.ks))
        else:
            rows.append(error_row % (pt.budget, pt.error.replace(",", ";")))
    _emit("".join(rows), args.out)
    if args.out:
        print(f"wrote {args.out} ({successes}/{len(points)} budgets solved)")
    return EXIT_OK if successes else EXIT_UNSTABLE


def _cmd_compare(args) -> int:
    spec = load_spec(args.spec)
    trace = read_trace(args.trace)
    _check_width("k_max", args.k_max)
    labels = [s for s in args.policies.split(";") if s]
    if not labels:
        raise SpecError("--policies must name at least one policy")
    # Each label is parsed and checked before the next is parsed, so the
    # refusal printed is the first in policy order, whichever step makes it.
    policies = []
    for label in labels:
        try:
            policy = parse_policy(label, spec, args.k_max)
            _check_policy(spec, policy)
        except Exception as exc:
            raise _refused(label, exc, args.trace) from None
        policies.append(policy)
    results, failure = _simulate_each(trace, spec, policies)
    if failure is not None:
        raise _refused(labels[failure[0]], failure[1], args.trace)
    row = "%s,%s,%s," + _numbers(2) + "\n"
    rows = ["policy,job_count,mean_response_time,time_avg_budget,total_gpu_hours\n"]
    for label, metrics in zip(labels, results):
        field = _csv_field(label)
        mrt = metrics.mean_response_time  # None when the trace has no jobs
        mrt = "" if mrt is None else _numbers(1) % mrt
        rows.append(
            row % (field, metrics.job_count, mrt, metrics.time_avg_budget, metrics.total_gpu_hours)
        )
    _emit("".join(rows), args.out)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpurental",
        description="Plan and verify cloud-GPU rental policies under a time-average budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--spec", required=True, help="workload config JSON")
        p.add_argument("--k-max", type=float, default=DEFAULT_K_MAX, help="cap on any width")

    p = sub.add_parser("validate", help="check speedup axioms and stability")
    p.add_argument("--spec", required=True, help="workload config JSON")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("solve", help="compute the optimal fixed-width allocation")
    add_common(p)
    p.add_argument("--out", help="write the allocation JSON here instead of stdout")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("gen-trace", help="generate a synthetic arrival trace CSV")
    p.add_argument("--spec", required=True, help="workload config JSON")
    p.add_argument("--jobs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arrivals", choices=["poisson", "periodic"], default="poisson")
    p.set_defaults(fn=_cmd_gen_trace)

    p = sub.add_parser("simulate", help="replay a trace under a policy")
    add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument(
        "--policy",
        required=True,
        help="optimal | fixed:k1,...,kM | uniform:k | cluster:C | srf:C,kcap",
    )
    p.add_argument("--per-job", help="write per-job CSV here")
    p.add_argument("--timeseries", help="write K(t) samples CSV here")
    p.add_argument("--timeseries-step", type=float, default=1.0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("pareto", help="sweep budgets and emit the frontier CSV")
    add_common(p)
    p.add_argument("--b-min", type=float, required=True)
    p.add_argument("--b-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", help="write the frontier CSV here instead of stdout")
    p.set_defaults(fn=_cmd_pareto)

    p = sub.add_parser("compare", help="simulate several policies on one trace")
    add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--policies", required=True, help="semicolon-separated policy strings")
    p.add_argument("--out", help="write the comparison CSV here instead of stdout")
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AxiomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
