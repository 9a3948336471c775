"""Benchmark for gpurental: drives the CLI in-process, one thread, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are made from the seed under ``.perfbench_work/`` and
removed at exit.  One *pass* runs the workload's command list through
``gpurental.cli.main``; after one untimed warm-up pass, timed passes
repeat for about ``--seconds`` seconds (at least three).  Every pass's
outputs must be byte-identical to the warm-up pass's, and the warm-up
pass's outputs are checked for correctness (see workloads.py).

Every end-to-end time is *speed-normalised* (see hostspeed.py): a fixed
piece of pure-Python work is timed right before and right after each
command, and the command's time is scaled by ``REF_NOMINAL_S`` over the
reference's time around it.  A set-up sample is scaled by the reference
timed inside the set-up process, after its imports.  A value reads as the
seconds the work takes when the reference takes ``REF_NOMINAL_S``; the raw
times go to the detail line.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports per-layer
self time and counts (see tracing.py); its spans go to
``.perfbench_out/spans-<workload>-<seed>.csv``.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it carries the run environment and the
per-command figures behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import normalised, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_SAMPLES = 15
# Reference samples per pass, split over its bursts (one before each command
# and one after the last); every burst takes at least one.
REF_SAMPLES_PER_PASS = 16

CLI_COMMANDS = ("pareto", "solve", "gen-trace", "simulate", "compare")
OPTIMIZER_FUNCS = (
    "solve_allocation", "pareto_frontier", "inner_minimize", "objective", "budget_usage"
)
WORKLOAD_FUNCS = ("load_spec", "generate_trace", "write_trace", "read_trace")
LAYERS = ("cli", "optimizer", "workload", "simulator")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import gpurental.cli
from gpurental.workload import load_spec
load_spec(sys.argv[2])
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from hostspeed import reference_time
print(repr(elapsed), repr(reference_time(5)))
"""


def unit_of(name: str) -> str:
    for suffix, unit in (
        (".mb_per_s", "MB/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), (".share", "ratio"),
        ("bytes", "bytes"), (".us_per_event", "us"),
        ("jobs_in_system_mean", "jobs"), ("jobs_in_system_peak", "jobs"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


# -- running passes ------------------------------------------------------------


@dataclass
class Pass:
    """Per-command timings, exit codes and output digests of one pass.
    ``refs[j]`` and ``refs[j + 1]`` are the reference times right before
    and right after command ``j``."""

    times: list[float]
    refs: list[float]
    rcs: list[int]
    stdouts: list[str]
    digests: list[str]
    out_bytes: list[int]

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def norm_times(self) -> list[float]:
        return [normalised(t, a, b) for t, a, b in zip(self.times, self.refs, self.refs[1:])]


def run_pass(wl) -> Pass:
    from gpurental import cli

    burst = max(1, REF_SAMPLES_PER_PASS // len(wl.commands))
    times, rcs, stdouts, refs = [], [], [], []
    for cmd in wl.commands:
        refs.append(reference_time(burst))
        # Start every command from the same collector state, as a fresh CLI
        # process would: drop the last command's cyclic garbage, then freeze
        # what is alive so collections inside the command scan only its own objects.
        gc.collect()
        gc.freeze()
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = -1
        times.append(perf_counter() - start)
        rcs.append(rc)
        stdouts.append(out.getvalue())
        if rc != 0:
            print(f"{wl.name}: {' '.join(cmd.argv)} exited {rc}: {err.getvalue()}", file=sys.stderr)
    refs.append(reference_time(burst))

    digests, out_bytes = [], []
    for cmd, text in zip(wl.commands, stdouts):
        h = hashlib.sha256(text.encode())
        size = len(text.encode())
        for path in cmd.files:
            data = path.read_bytes() if path.exists() else b""
            h.update(data)
            size += len(data)
        digests.append(h.hexdigest())
        out_bytes.append(size)
    return Pass(times, refs, rcs, stdouts, digests, out_bytes)


def count_failures(wl, passes, check_errors) -> int:
    """A command execution fails if it exits non-zero, prints other bytes
    than in the warm-up pass, or produced output the checks rejected."""
    reference = passes[0].digests
    failed = 0
    for p in passes:
        for j in range(len(wl.commands)):
            if p.rcs[j] != 0 or p.digests[j] != reference[j] or check_errors.get(j):
                failed += 1
    return failed


def setup_seconds(spec_path: Path) -> tuple[float, float]:
    """Seconds for ``import gpurental.cli`` plus ``load_spec`` in a fresh
    interpreter: raw and speed-normalised."""
    env = dict(os.environ)
    env.pop("RENTAL_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(spec_path), str(HERE)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True,
    )
    raw, ref = (float(x) for x in done.stdout.strip().splitlines()[-1].split())
    return raw, normalised(raw, ref, ref)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def command_stats(wl, timed) -> dict:
    """Per-command figures from speed-normalised times: each command's
    median over the timed passes; their sum (the typical pass, steadier
    than the median pass total when a host speed change falls inside a
    long command), and p50/p95/max across the command list; plus per-kind
    totals.  ``raw_wall_s`` is the median pass from raw times."""
    norm = [p.norm_times for p in timed]
    per_cmd = [statistics.median(t[j] for t in norm) for j in range(len(wl.commands))]
    stats = {
        "wall_s": sum(per_cmd),
        "raw_wall_s": statistics.median(p.wall for p in timed),
        "raw_fastest_wall_s": min(p.wall for p in timed),
        "ref_median_ms": statistics.median(r for p in timed for r in p.refs) * 1e3,
        "cmd_p50_ms": percentile(per_cmd, 50) * 1e3,
        "cmd_p95_ms": percentile(per_cmd, 95) * 1e3,
        "cmd_max_ms": max(per_cmd) * 1e3,
    }
    for kind in sorted({c.name for c in wl.commands}):
        times = [per_cmd[j] for j, c in enumerate(wl.commands) if c.name == kind]
        key = kind.replace("-", "_")
        stats[f"{key}_s"] = sum(times)
        if len(times) >= 200:  # the highest percentile with >= 10 samples beyond it
            stats[f"{key}_p50_ms"] = percentile(times, 50) * 1e3
            stats[f"{key}_p95_ms"] = percentile(times, 95) * 1e3
    return stats


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer, p: Pass, wl) -> dict[str, float]:
    """Every per-layer metric for one traced pass; layers the workload never
    enters read zero."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_ms(name):
        return st.get(name, (0, 0.0))[1] * 1e3

    m: dict[str, float] = {}
    for c in CLI_COMMANDS:
        m[f"cli.{c}.calls"] = calls(f"cli.{c}")
        m[f"cli.{c}.self_ms"] = self_ms(f"cli.{c}")
        m[f"cli.{c}.out_bytes"] = sum(
            b for cmd, b in zip(wl.commands, p.out_bytes) if cmd.name == c
        )
    for f in OPTIMIZER_FUNCS:
        m[f"optimizer.{f}.calls"] = calls(f"optimizer.{f}")
        m[f"optimizer.{f}.self_ms"] = self_ms(f"optimizer.{f}")
    solves = calls("optimizer.solve_allocation")
    m["optimizer.inner_minimize.calls_per_solve"] = (
        calls("optimizer.inner_minimize") / solves if solves else 0.0
    )
    for f in WORKLOAD_FUNCS:
        name = f"workload.{f}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
        if f in ("write_trace", "read_trace"):
            rows, nbytes = tracer.io.get(name, (0, 0))
            m[f"{name}.rows"] = rows
            m[f"{name}.bytes"] = nbytes
            ms = self_ms(name)
            m[f"{name}.mb_per_s"] = nbytes / 1e6 / (ms / 1e3) if ms > 0 else 0.0
    events_total = 0
    for kind in ("fixed", "cluster", "srf"):
        name = f"simulator.simulate.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
        if kind != "fixed":
            events = tracer.events.get(name, 0)
            events_total += events
            m[f"{name}.events"] = events
            m[f"{name}.us_per_event"] = self_ms(name) * 1e3 / events if events else 0.0
    m["simulator.compare_policies.self_ms"] = self_ms("simulator.compare_policies")
    m["simulator.budget_timeseries.self_ms"] = self_ms("simulator.budget_timeseries")

    shares = 0.0
    for layer in LAYERS:
        total = sum(s for name, (_, s) in st.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms"] = total * 1e3
        m[f"{layer}.share"] = total / p.wall
        shares += total / p.wall
    m["other.share"] = 1.0 - shares
    m["trace.spans"] = len(tracer.spans)
    return m


def eval_metrics(counter) -> dict[str, float]:
    """Speed evaluations from a counting pass, per solve and per event."""
    solves = counter.self_times().get("optimizer.solve_allocation", (0, 0.0))[0]
    events = sum(counter.events.values())
    evals = counter.scalar_evals()
    opt, sim = evals.get("optimizer", 0), evals.get("simulator", 0)
    return {
        "speedup.scalar_evals.optimizer": opt,
        "speedup.scalar_evals.simulator": sim,
        "speedup.array_calls": counter.array_calls,
        "speedup.evals_per_solve": opt / solves if solves else 0.0,
        "speedup.evals_per_event": sim / events if events else 0.0,
    }


def occupancy_metrics(wl) -> dict[str, float]:
    import workloads

    m = {}
    for label in workloads.BASELINE_LABELS:
        key = "simulator." + label.replace(":", "_").replace(",", "_")
        mean, peak = workloads.jobs_in_system(wl, label) if label in wl.baselines else (0.0, 0)
        m[f"{key}.jobs_in_system_mean"] = mean
        m[f"{key}.jobs_in_system_peak"] = peak
    return m


# -- environment ---------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "RENTAL_THREADS": "unset",
    }


# -- main ----------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark; return the result object and write the record."""
    import workloads
    from tracing import Tracer, installed

    os.environ.pop("RENTAL_THREADS", None)  # every sweep runs serially, in one thread
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(workload_name, ROOT, seed, workdir, tiny=tiny)
        setup = []
        if not trace:
            setup_seconds(wl.spec_path)  # may write bytecode caches; not counted

        passes, untraced, traced, tracers = [run_pass(wl)], [], [], []  # warm-up, untimed
        start = perf_counter()
        while len(untraced) < (1 if trace else MIN_PASSES) or (
            perf_counter() - start + untraced[-1].wall < seconds  # no pass ends far past the deadline
        ):
            if not trace:  # set-up samples spread over the run, one per timed pass
                setup.append(setup_seconds(wl.spec_path))
            untraced.append(run_pass(wl))
            passes.append(untraced[-1])
            if trace:
                tracer = Tracer()
                with installed(tracer):
                    traced.append(run_pass(wl))
                passes.append(traced[-1])
                tracers.append(tracer)
        if trace:  # counts come from a pass of their own: counting slows the hot loops
            counter = Tracer(count_evals=True)
            with installed(counter):
                passes.append(run_pass(wl))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        check_tracer = Tracer()
        with installed(check_tracer) if trace else contextlib.nullcontext():
            check_errors = wl.check(passes[0].stdouts)
        for j, errors in sorted(check_errors.items()):
            for e in errors[:5]:
                print(f"{wl.name}: check failed for {' '.join(wl.commands[j].argv)}: {e}",
                      file=sys.stderr)
        attempted = len(passes) * len(wl.commands)
        failed = count_failures(wl, passes, check_errors)

        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds(wl.spec_path))
        stats = command_stats(wl, untraced)
        detail = {
            "workload": wl.name,
            "env": environment(seed),
            "passes": len(untraced),
            "pass_wall_s": [round(p.wall, 4) for p in untraced],
            "commands_per_pass": len(wl.commands),
            "failed_frac": failed / attempted,
            "checks_failed": {" ".join(wl.commands[j].argv): e for j, e in check_errors.items()},
            **stats,
            **wl.extra,
        }
        if trace:
            # the traced pass of median duration, against the untraced median
            best = sorted(range(len(traced)), key=lambda i: traced[i].wall)[len(traced) // 2]
            values = layer_metrics(tracers[best], traced[best], wl)
            traced_wall = command_stats(wl, traced)["wall_s"]
            values["trace.wall_s"] = traced_wall
            values["trace.untraced_wall_s"] = stats["wall_s"]
            values["trace.overhead_s"] = traced_wall - stats["wall_s"]
            st = check_tracer.self_times()
            bf_calls, bf_s = st.get("optimizer.brute_force_allocation", (0, 0.0))
            values["optimizer.brute_force_allocation.calls"] = bf_calls
            values["optimizer.brute_force_allocation.self_ms"] = bf_s * 1e3
            values.update(eval_metrics(counter))
            values.update(occupancy_metrics(wl))
            detail["traced_passes"] = len(traced)
            detail["layer_share_by_command"] = tracers[best].layer_shares_by_root()
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"spans-{wl.name}-{seed}.csv", "w", encoding="utf-8") as fh:
                fh.write("pass,name,start,end,parent\n")
                for i, t in enumerate(tracers):
                    t.write_csv(fh, i)
        else:
            values = {
                "setup_s": statistics.median(norm for _, norm in setup),
                "wall_s": stats["wall_s"],
                "peak_rss_mb": peak_rss_mb,
                "cmd_p50_ms": stats["cmd_p50_ms"],
                "cmd_p95_ms": stats["cmd_p95_ms"],
            }
            detail["setup_samples"] = len(setup)
            detail["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
        }
        if not tiny:
            OUT.mkdir(exist_ok=True)
            record = OUT / f"{wl.name}-{seed}-trace{int(trace)}.json"
            times = [p.times for p in untraced]
            refs = [p.refs for p in untraced]
            record.write_text(json.dumps(
                {"detail": detail, "result": result, "times": times, "refs": refs}
            ))
        return {"detail": detail, "result": result}
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the gpurental CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gpurental" / "__init__.py").is_file():
        print(f"error: no gpurental sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gpurental

    if SRC not in Path(gpurental.__file__).resolve().parents:
        print(f"error: imported gpurental from {gpurental.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("perfbench " + json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
