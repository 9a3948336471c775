"""Optimal fixed-width GPU allocation under a time-average budget.

The planning problem is separable: choose one width k_i per job type to
minimize the predicted mean response time (1/lambda) * sum_i rho_i / s_i(k_i)
subject to the time-average GPU usage sum_i rho_i * k_i / s_i(k_i) <= b.

``solve_allocation`` relaxes the budget with a multiplier mu.  The per-type
penalized cost (1 + mu*k) / s(k) has an exact minimizer for each speedup
family, and the usage of those minimizers is piecewise in mu: constant, or
a sum of powers of mu, between breakpoints each family names.  So mu is
found exactly, with no bisection: the piece on which usage crosses the
budget is located among the breakpoints, and the equation on it is solved
in closed form or by a few monotone Newton steps.  ``pareto_frontier`` and
``solve_allocation`` run this one search, over many budgets or one, and
``brute_force_allocation`` is the independent grid oracle that checks it.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AxiomError, BruteForceError
from .speedup import DEFAULT_K_MAX, SpeedupFunction, validate
from .speedup import _check_width
from .workload import WorkloadSpec, _check_budget, _check_stable

_BUDGET_TOL = 1e-9  # relative slack on the budget; the fill pass stops within it
_MAX_AXIS_POINTS = 30_000_000  # largest grid axis the oracle will enumerate


@dataclass(frozen=True)
class Allocation:
    """A fixed-width plan plus its predicted performance.

    ``objective`` and ``budget_used`` are always recomputed from ``ks``;
    ``multiplier`` is the budget shadow price found by the solver (0 when the
    budget did not bind) and ``cap_active`` flags widths pinned at k_max.
    """

    ks: tuple[float, ...]
    objective: float
    budget_used: float
    multiplier: float
    cap_active: bool

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "objective": self.objective,
            "budget_used": self.budget_used,
            "multiplier": self.multiplier,
            "cap_active": self.cap_active,
        }


@dataclass(frozen=True)
class ParetoPoint:
    """One budget sweep entry; exactly one of allocation/error is set."""

    budget: float
    allocation: Allocation | None = None
    error: str | None = None


def _plan(spec: WorkloadSpec, ks) -> Allocation:
    """The checked plan ``ks``, as the one-row case of ``_allocations``."""
    arr = np.asarray(ks, dtype=float)
    if arr.shape != (len(spec.types),):
        raise ValueError(f"expected {len(spec.types)} widths, got shape {arr.shape}")
    _check_width("widths", arr)
    return _allocations(spec, arr[None, :], np.zeros(1), k_max=math.inf)[0]


def objective(spec: WorkloadSpec, ks) -> float:
    """Predicted mean response time of the fixed-width plan ``ks``."""
    return _plan(spec, ks).objective


def budget_usage(spec: WorkloadSpec, ks) -> float:
    """Time-average GPU count the plan consumes: sum of load * k / s(k)."""
    return _plan(spec, ks).budget_used


def merge_segments(k1: float, t1: float, k2: float, t2: float) -> float:
    """Duration-weighted average width of two GPU assignments.

    Replacing two segments (k1 for t1 hours, k2 for t2 hours) of the same
    job with this single width finishes the combined work no later and with
    no more GPU-hours, for any valid concave speedup.
    """
    if not (0 < t1 < math.inf and 0 < t2 < math.inf):
        raise ValueError(f"segment durations must be positive and finite, got {t1} and {t2}")
    _check_width("widths", (k1, k2))
    return (k1 * t1 + k2 * t2) / (t1 + t2)


def inner_minimize(f: SpeedupFunction, mu: float, *, k_max: float = DEFAULT_K_MAX) -> float:
    """Minimize the penalized cost g(k) = (1 + mu*k) / s(k) over [1, k_max].

    The width of the family's closed form, ``f.minimizer(k_max).widths``,
    at the one multiplier mu: sqrt(p / (mu*(1-p))) for Amdahl(p) and
    alpha / (mu*(1-alpha)) for k**alpha, clipped to [1, k_max], so k_max
    at mu = 0.  For a tabular speedup, g over {1, knots, k_max} is a set of
    lines in mu; the width is that of their lower envelope at mu, the
    narrower one at a vertex, and 1 at mu = inf.
    """
    _check_width("k_max", k_max)
    if not mu >= 0:
        raise ValueError(f"multiplier must be >= 0, got {mu}")
    with np.errstate(divide="ignore", over="ignore"):
        k, _ = f.minimizer(k_max).widths(np.array([float(mu)]))
    return float(k[0])


def _fill_budget(
    spec: WorkloadSpec, b: float, ks: np.ndarray, use: np.ndarray, ks_upper: np.ndarray
) -> np.ndarray:
    """Raise widths toward ``ks_upper``, type by type, until the budget ``b`` binds.

    ``use`` holds each type's usage at ``ks``.  Tabular speedups need this:
    their minimizers jump from knot to knot, so usage can jump across the
    budget at a breakpoint of the multiplier, leaving slack that this pass
    spends at constant marginal cost.  Each raised width is the largest its
    type's usage plus the slack allows, ``width_at_usage`` in closed form.
    """
    ks, use = ks.copy(), use.copy()
    loads = spec.loads
    for i, t in enumerate(spec.types):
        slack = b - use.sum()
        if slack <= _BUDGET_TOL * b * 0.5:
            break
        if ks_upper[i] > ks[i]:
            k = t.speedup.width_at_usage((use[i] + slack) / loads[i], ks_upper[i])
            if k > ks[i]:
                ks[i] = k
                use[i] = loads[i] * (k / t.speedup._value(k))
    return ks


def _allocations(
    spec: WorkloadSpec, ks: np.ndarray, mu: np.ndarray, *, k_max: float
) -> list[Allocation]:
    """One allocation per row of the width matrix ``ks`` (one column per
    type), at the multipliers ``mu``.  Each type's speeds come from one
    evaluation of its column; the objective and usage are row sums.
    ``objective`` and ``budget_usage`` are its one-row case."""
    ks = np.clip(ks, 1.0, k_max)
    speeds = np.empty_like(ks)
    for i, t in enumerate(spec.types):
        speeds[:, i] = t.speedup._value(ks[:, i])
    loads = spec.loads
    objectives = (loads / speeds).sum(axis=1) / spec.total_rate
    used = (loads * (ks / speeds)).sum(axis=1)
    caps = (ks >= k_max * (1.0 - 1e-6)).any(axis=1)
    return [
        Allocation(tuple(row), obj, u, m, cap)
        for row, obj, u, m, cap in zip(
            ks.tolist(), objectives.tolist(), used.tolist(), mu.tolist(), caps.tolist()
        )
    ]


def _numpy_sum(row) -> float:
    """``row``, a list of doubles, summed with numpy's bits: by numpy past 7 terms, else
    left to right in a float loop (numpy's order there), never by the builtin ``sum``."""
    if len(row) >= 8:
        return float(np.add.reduce(np.array(row)))
    total = 0.0
    for x in row:
        total += x
    return total


def _search(spec: WorkloadSpec, budgets, *, k_max: float) -> list[Allocation]:
    """Optimal allocation of ``spec`` at each of ``budgets`` (all stable).

    Usage U(mu) of the per-type minimizers is non-increasing in mu and
    piecewise: between consecutive breakpoints (every type's, plus 0 and
    inf) each type's usage is constant or load * (a * mu**-e + c), its
    family's ``power_term``.  U is tabled at every breakpoint in one numpy
    call per type.  Each budget is then decided on Python floats: slack if
    U(0) meets it, else on the piece that ends at the first breakpoint
    whose usage fits.  On it C + sum_j A_j * mu**-e_j = b is solved, in
    closed form when the active exponents agree, else by Newton's method
    in log mu; or, where usage jumps across b at the piece's right end (a
    tabular width changes there), mu is that breakpoint and the fill pass
    spends the slack.  A budget that no breakpoint's usage fits, because
    the last one (mu = inf) rounds past it, takes that last row.  Powers,
    logs and exps are numpy's, and sums are ``_numpy_sum``'s: numpy's own
    past 7 terms, a plain float loop (numpy's order there) below, never the
    builtin ``sum``.  So one budget gets the same bits alone as in a sweep.

    A bad ``k_max`` raises SpecError first.  The minimizers assume the
    speedup axioms, so a type whose speedup fails ``validate`` raises
    AxiomError next.
    """
    _check_width("k_max", k_max)
    for t in spec.types:
        report = validate(t.speedup)
        if not report.ok:
            check = next(c for c in report.checks() if not c.passed)
            raise AxiomError(f"type {t.name!r}: speedup is not {check.name}: {check.detail}")
    if len(budgets) == 0:  # e.g. pareto with every budget unstable
        return []
    minimizers = [t.speedup.minimizer(k_max) for t in spec.types]
    power_terms = [m.power_term for m in minimizers]
    loads = spec.loads
    bps = sorted({0.0, math.inf}.union(*(m.breakpoints for m in minimizers)))
    ks_bp, speeds_bp = np.empty((len(bps), len(loads))), np.empty((len(bps), len(loads)))

    @functools.cache
    def piece(p: int) -> tuple:
        # Piece p is [bps[p], bps[p + 1]].  A type whose power term is active
        # on it uses load * (a * mu**-e + c); any other, its left end's usage.
        lo, hi = bps[p], bps[p + 1]
        const, A, E = zip(*(
            (load * t[4], load * t[2], t[3]) if t and t[0] <= lo and hi <= t[1] else (u, 0.0, 0.0)
            for load, u, t in zip(loads.tolist(), use_bp[p].tolist(), power_terms)
        ))
        C, exps = _numpy_sum(const), {e for a, e in zip(A, E) if a}
        powers = [a * float(np.power(hi, -e)) if a else 0.0 for a, e in zip(A, E)]
        # Without a term, usage is the left end's, past the budget: a jump.
        at_hi = C + _numpy_sum(powers) if exps else math.inf
        closed = exps.pop() if len(exps) == 1 else None
        return C, A, E, at_hi, closed, _numpy_sum(A), float(np.log(lo)), float(np.log(hi))

    # mu = 0 divides by zero and a subnormal breakpoint overflows the unclipped
    # width, which the clip makes the cap; types at such a cap can use more
    # than the largest double, alone or together, which no budget meets.
    with np.errstate(divide="ignore", over="ignore"):
        at = np.array(bps)
        for i, m in enumerate(minimizers):
            ks_bp[:, i], speeds_bp[:, i] = m.widths(at)
        # Each type's usage, as budget_usage has it: k / s(k) first, so a huge
        # load times a wide k_max does not overflow where their ratio is modest.
        use_bp = loads * (ks_bp / speeds_bp)
        fits = (-np.minimum.accumulate(use_bp.sum(axis=1))).tolist()
    rows, mus, jumps = [0] * len(budgets), [0.0] * len(budgets), []
    with np.errstate(divide="ignore"):  # log 0 = -inf: mu = 0, or a root past the smallest double
        for r, b in enumerate(budgets):
            j = bisect.bisect_left(fits, -b)  # the first breakpoint whose usage fits
            if j == 0:  # slack: mu = 0
                continue
            if j == len(bps):
                # No row fits, though the budget is stable: the last row's
                # usage is over b only by rounding.  Take its widths, with the
                # last finite breakpoint (0 if none) as the multiplier: every
                # smooth width is already 1 there, as in the last row.
                rows[r], mus[r] = j - 1, bps[-2]
                continue
            C, A, E, at_hi, closed, sum_a, x_lo, x_hi = piece(j - 1)
            if at_hi > b:  # usage jumps across b at bps[j]
                rows[r], mus[r] = j, bps[j]
                jumps.append((r, j))
                continue
            if b == C or closed is not None:  # at b == C the terms round away
                x = float(np.log(sum_a / (b - C))) / closed if b > C else math.inf
            else:
                # Usage is convex and decreasing in x = log mu, so Newton from the larger of
                # the left end and the terms' own roots (all left of the root) rises to it.
                x = max(x_lo, *(float(np.log(a / (b - C))) / e for a, e in zip(A, E) if a))
                while True:
                    ts = [a * float(np.exp(-e * x)) if a else 0.0 for a, e in zip(A, E)]
                    step = (C + _numpy_sum(ts) - b) / _numpy_sum([e * t for e, t in zip(E, ts)])
                    x_next = min(x + step, x_hi)
                    if not x_next > x:
                        break
                    x = x_next
            rows[r], mus[r] = j - 1, min(max(float(np.exp(x)), bps[j - 1]), bps[j])
    # A smooth type's width is its minimizer's at mu; any other's, its row's.
    ks, mu = ks_bp[rows], np.array(mus)
    with np.errstate(divide="ignore", over="ignore"):  # at mu = 0, as in the table
        for i in [i for i, t in enumerate(power_terms) if t]:
            ks[:, i] = minimizers[i].widths(mu)[0]
    # A jumping width may rise back to its left-side value; a smooth one stays.
    for r, j in jumps:
        upper = np.where([t is not None for t in power_terms], ks_bp[j], ks_bp[j - 1])
        ks[r] = _fill_budget(spec, budgets[r], ks[r], use_bp[j], upper)
    return _allocations(spec, ks, mu, k_max=k_max)


def solve_allocation(spec: WorkloadSpec, *, k_max: float = DEFAULT_K_MAX) -> Allocation:
    """Compute the optimal fixed-width allocation for the workload: the
    one-budget case of the search ``pareto_frontier`` runs.  Raises
    InstabilityError when total load >= budget.
    """
    spec.check_stability()
    return _search(spec, [spec.budget], k_max=k_max)[0]


_ZOOM_POINTS = 96  # per-axis sampling target for the coarse-to-fine passes


def _running_argmin(values: np.ndarray) -> np.ndarray:
    """Index of the first minimum among values[0..j], for every j."""
    best = np.minimum.accumulate(values)
    strict = np.empty(len(values), dtype=bool)
    strict[0] = True
    strict[1:] = best[1:] < best[:-1]
    pos = np.where(strict, np.arange(len(values)), 0)
    return np.maximum.accumulate(pos)


def brute_force_allocation(
    spec: WorkloadSpec, grid_step: float, *, k_max: float = DEFAULT_K_MAX
) -> Allocation:
    """Grid-search oracle for the allocation problem.

    Evaluates the canonical grid {1, 1+step, 1+2*step, ...} per axis, bounded
    by the width at which a type alone would exhaust the budget.  The last
    axis is resolved analytically (usage is non-decreasing and the objective
    non-increasing in k, so given the leftover budget the best choice is the
    widest feasible grid point); with three or four types the remaining axes
    are scanned coarse-to-fine, every level exhaustive on its subgrid.
    """
    _check_width("k_max", k_max)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    m = len(spec.types)
    if m > 4:
        raise BruteForceError(f"grid search supports at most 4 types, got {m}")
    spec.check_stability()
    b = spec.budget
    loads = spec.loads

    caps = [t.speedup.width_at_usage(b / loads[i], k_max) for i, t in enumerate(spec.types)]
    sizes = [int(math.floor((c - 1.0) / grid_step)) + 1 for c in caps]
    if max(sizes) > _MAX_AXIS_POINTS:
        raise BruteForceError(
            f"axis needs {max(sizes)} grid points at step {grid_step}; "
            f"raise grid_step or lower the budget"
        )

    def axis_values(i: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ks = 1.0 + idx.astype(float) * grid_step
        s = spec.types[i].speedup(ks)
        return loads[i] * (ks / s), loads[i] / s

    last = int(np.argmax(sizes))
    outer = [i for i in range(m) if i != last]

    u_last, obj_last = axis_values(last, np.arange(sizes[last]))
    # Axioms make these monotone; accumulate guards against round-off wiggles.
    u_last = np.maximum.accumulate(u_last)
    best_obj_last = np.minimum.accumulate(obj_last)
    arg_last = _running_argmin(obj_last)

    def evaluate(idx_lists: list[np.ndarray]) -> tuple[float, list[int], int] | None:
        """Best feasible point with outer axes restricted to idx_lists."""
        axes = [axis_values(ax, idx) for ax, idx in zip(outer, idx_lists)]
        grids_u = np.meshgrid(*(u for u, _ in axes), indexing="ij") if axes else [np.zeros(1)]
        grids_o = np.meshgrid(*(o for _, o in axes), indexing="ij") if axes else [np.zeros(1)]
        rem = b - sum(g.ravel() for g in grids_u)
        outer_obj = sum(g.ravel() for g in grids_o)
        j = np.searchsorted(u_last, rem, side="right") - 1
        feasible = j >= 0
        if not feasible.any():
            return None
        total = np.where(feasible, outer_obj + best_obj_last[np.maximum(j, 0)], np.inf)
        flat = int(np.argmin(total))
        shape = tuple(len(x) for x in idx_lists) if idx_lists else (1,)
        picked = [int(idx[c]) for idx, c in zip(idx_lists, np.unravel_index(flat, shape))]
        return float(total[flat]), picked, int(arg_last[j[flat]])

    windows = [(0, sizes[ax] - 1) for ax in outer]
    strides = [max(1, (hi - lo) // _ZOOM_POINTS + 1) for lo, hi in windows]
    best = None
    while True:
        # Every st-th grid point of each window, and its right end.
        idx_lists = [np.append(np.arange(lo, hi, st), hi) for (lo, hi), st in zip(windows, strides)]
        res = evaluate(idx_lists)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
        if all(st == 1 for st in strides):
            break
        center = res[1] if res is not None else [w[0] for w in windows]
        windows = [(max(lo, c - 2 * st), min(hi, c + 2 * st))
                   for (lo, hi), st, c in zip(windows, strides, center)]
        strides = [max(1, st // 16) for st in strides]

    if best is None:
        raise BruteForceError("no feasible grid point")
    _, picked, j_last = best
    idx = np.empty(m)
    idx[outer], idx[last] = picked, j_last
    return _allocations(spec, 1.0 + idx[None, :] * grid_step, np.zeros(1), k_max=k_max)[0]


def pareto_frontier(
    spec: WorkloadSpec, budgets, *, k_max: float = DEFAULT_K_MAX
) -> list[ParetoPoint]:
    """Solve the allocation for each budget, ordered by budget.

    Infeasible budgets become per-point errors so partial frontiers still
    come out; the rest go through one multiplier search together and get
    the allocations ``solve_allocation`` would give them one at a time."""
    budgets = np.sort([float(b) for b in budgets], kind="stable").tolist()  # NaN last
    load = spec.total_load
    errors: list[str | None] = []
    for b in budgets:
        try:
            _check_budget(b)
            _check_stable(load, b)
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    feasible = [b for b, err in zip(budgets, errors) if err is None]
    solved = iter(_search(spec, feasible, k_max=k_max))
    return [
        ParetoPoint(b, error=err) if err is not None else ParetoPoint(b, next(solved))
        for b, err in zip(budgets, errors)
    ]
