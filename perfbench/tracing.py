"""Spans and counters around the calls into each gpurental layer.

The package has no tracing of its own, so the benchmark records it from the
outside: ``installed(tracer)`` replaces every public function of interest,
in every gpurental module namespace that binds it, with a wrapper that
records a span (name, start, end, parent).  ``cli`` imports its callees by
name, so both its bindings and the defining module's are patched; the
originals are restored on exit.  Spans stay in memory; the caller writes
them out when the run ends.

Speed evaluations are too frequent to span.  A tracer made with
``count_evals=True`` also wraps ``scalar_fn`` so the closures it hands out
count their calls, attributed to the layer of the innermost span open when
the closure was made (optimizer or simulator), and counts the vectorised
``SpeedupFunction.__call__``.  Counting slows the hot loops, so the
benchmark takes counts and self times from separate passes.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

import gpurental
from gpurental import cli, optimizer, simulator, speedup, workload

MODULES = (gpurental, cli, optimizer, simulator, speedup, workload)

# Public functions that get a span, by defining module.  brute_force_allocation
# runs only in the benchmark's check phase.
SPANNED = {
    cli: ("main", "parse_policy"),
    optimizer: (
        "solve_allocation",
        "pareto_frontier",
        "inner_minimize",
        "objective",
        "budget_usage",
        "brute_force_allocation",
    ),
    workload: ("load_spec", "generate_trace", "write_trace", "read_trace"),
    simulator: ("simulate", "compare_policies", "budget_timeseries"),
}


def policy_kind(policy) -> str:
    if isinstance(policy, simulator.StaticClusterEqualSplit):
        return "cluster"
    if isinstance(policy, simulator.SmallestRemainingFirst):
        return "srf"
    return "fixed"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, count_evals: bool = False):
        self.count_evals = count_evals
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._eval_cells: dict[str, list[list[int]]] = defaultdict(list)  # layer -> counters
        self.array_calls = 0
        self.io: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [rows, bytes]
        self.events: Counter = Counter()  # replay events by simulate span name

    def layer(self) -> str:
        if not self._stack:
            return "harness"
        return self.spans[self._stack[-1]][0].split(".", 1)[0]

    def wrap(self, fn, name_of, after=None):
        """Wrap ``fn`` in a span named ``name_of(args, kwargs)``; ``after``
        sees (name, args, kwargs, result) once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = (start, end)
            if after is not None:
                after(name, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name; self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = out[name]
            rec[0] += 1
            rec[1] += end - start - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def scalar_evals(self) -> dict[str, int]:
        return {layer: sum(c[0] for c in cells) for layer, cells in self._eval_cells.items()}

    def layer_shares_by_root(self) -> dict[str, dict[str, float]]:
        """For each root span name (a CLI command), each layer's share of
        the root spans' total duration."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        by_layer: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent) in enumerate(self.spans):
            root_name = self.spans[root[i]][0]
            if parent < 0:
                totals[root_name] += end - start
            by_layer[root_name][name.split(".", 1)[0]] += end - start - child[i]
        return {
            r: {layer: s / totals[r] for layer, s in sorted(layers.items())}
            for r, layers in by_layer.items()
        }

    def write_csv(self, fh, pass_index: int) -> None:
        for name, start, end, parent in self.spans:
            fh.write(f"{pass_index},{name},{start!r},{end!r},{parent}\n")

    # -- wrappers -----------------------------------------------------------

    def _wrappers(self) -> dict[int, object]:
        def fixed_name(mod, attr):
            label = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
            return lambda args, kwargs: label

        def main_name(args, kwargs):
            argv = _arg(args, kwargs, 0, "argv")
            return f"cli.{argv[0]}"

        def simulate_name(args, kwargs):
            return f"simulator.simulate.{policy_kind(_arg(args, kwargs, 2, 'policy'))}"

        def after_simulate(name, args, kwargs, result):
            if not name.endswith(".fixed"):
                # one loop iteration per arrival and per completion
                self.events[name] += 2 * len(_arg(args, kwargs, 0, "trace"))

        def after_write(name, args, kwargs, result):
            rec = self.io[name]
            rec[0] += len(_arg(args, kwargs, 0, "trace"))
            rec[1] += os.path.getsize(_arg(args, kwargs, 1, "path"))

        def after_read(name, args, kwargs, result):
            rec = self.io[name]
            rec[0] += len(result)
            rec[1] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        special = {
            (cli, "main"): (main_name, None),
            (simulator, "simulate"): (simulate_name, after_simulate),
            (workload, "write_trace"): (None, after_write),
            (workload, "read_trace"): (None, after_read),
        }
        wrappers = {}
        for mod, names in SPANNED.items():
            for attr in names:
                fn = getattr(mod, attr)
                name_of, after = special.get((mod, attr), (None, None))
                wrappers[id(fn)] = self.wrap(fn, name_of or fixed_name(mod, attr), after)

        if self.count_evals:
            original_scalar_fn = speedup.scalar_fn

            @functools.wraps(original_scalar_fn)
            def counting_scalar_fn(f):
                s = original_scalar_fn(f)
                cell = [0]
                self._eval_cells[self.layer()].append(cell)

                def counted(k):
                    cell[0] += 1
                    return s(k)

                return counted

            wrappers[id(original_scalar_fn)] = counting_scalar_fn
        return wrappers


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of the traced functions for the duration."""
    wrappers = tracer._wrappers()
    saved = []
    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            wrapper = wrappers.get(id(val))
            if wrapper is not None:
                saved.append((mod, attr, val))
                setattr(mod, attr, wrapper)

    original_call = speedup.SpeedupFunction.__call__

    def counted_call(fn_self, k):
        tracer.array_calls += 1
        return original_call(fn_self, k)

    if tracer.count_evals:
        speedup.SpeedupFunction.__call__ = counted_call
    try:
        yield tracer
    finally:
        speedup.SpeedupFunction.__call__ = original_call
        for mod, attr, val in saved:
            setattr(mod, attr, val)
