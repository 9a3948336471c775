"""The multiplier search as it stood before ``gpurental.optimizer._search``
decided each budget on Python floats, kept verbatim as the oracle for tests
only: vectorised in numpy over the budgets, with a Newton loop driven by
``todo``/``moved`` index arrays.  The current search must return equal
allocations for any number of types: it takes numpy's powers, logs and exps
and sums in numpy's order.
"""

from __future__ import annotations

import math

import numpy as np

from gpurental.errors import AxiomError
from gpurental.optimizer import Allocation, _allocations, _fill_budget
from gpurental.speedup import _check_width, validate
from gpurental.workload import WorkloadSpec


def _search(spec: WorkloadSpec, budgets: np.ndarray, *, k_max: float) -> list[Allocation]:
    """Optimal allocation of ``spec`` at each of ``budgets`` (all stable).

    Usage U(mu) of the per-type minimizers is non-increasing in mu and
    piecewise: between consecutive breakpoints (every type's, plus 0 and
    inf) each type's usage is constant or load * (a * mu**-e + c), its
    family's ``power_term``.  U is evaluated at every breakpoint in one
    call per type.  A budget that U(0) meets is slack.  Otherwise the first
    breakpoint whose usage fits ends the piece on which U crosses the
    budget, and on that piece C + sum_j A_j * mu**-e_j = b is solved: in
    closed form, mu = (sum A / (b - C))**(1/e), when the active exponents
    agree, else by Newton's method in log mu.  That function is convex and
    decreasing in log mu, so Newton started left of the root rises
    monotonically to it; the start is the larger of the piece's left end
    and the root of each term alone, and the iteration stops when a step
    makes no progress.  If usage instead jumps across the budget at the
    piece's right end (a tabular width changes there), mu is that
    breakpoint and the fill pass raises the jumping widths back toward
    their left-side values until the budget binds.  The widths come from
    the piece: a slack or jumping budget takes its breakpoint's; on a
    solved piece a smooth type takes its minimizer at mu and any other
    keeps its width there.  Each budget does the arithmetic it would do
    alone, so a one-budget call gives the same bits as a sweep.

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
    b = np.asarray(budgets, dtype=float)
    fs = [t.speedup for t in spec.types]
    minimizers = [f.minimizer(k_max) for f in fs]
    loads = spec.loads

    bps = np.array(sorted({0.0, math.inf}.union(*(m.breakpoints for m in minimizers))))
    ks_bp, speeds_bp = np.empty((len(bps), len(fs))), np.empty((len(bps), len(fs)))
    # mu = 0 divides by zero and a subnormal breakpoint can overflow the
    # unclipped width; either way the clip makes the width the cap.
    with np.errstate(divide="ignore", over="ignore"):
        for i, m in enumerate(minimizers):
            ks_bp[:, i], speeds_bp[:, i] = m.widths(bps)
    # Each type's usage, as budget_usage has it: k / s(k) first, so a huge
    # load times a wide k_max does not overflow where their ratio is modest.
    use_bp = loads * (ks_bp / speeds_bp)
    # The first breakpoint whose usage fits the budget; 0 when it is slack.
    j = np.searchsorted(-np.minimum.accumulate(use_bp.sum(axis=1)), -b)

    # Piece p runs from bps[p] to bps[p + 1].  On it a type whose power term
    # is active uses load * (a * mu**-e + c); any other type's usage is
    # constant, its value at the piece's left end.
    none = (math.inf, -math.inf, 0.0, 0.0, 0.0)
    lo, hi, a, e, c = np.array([m.power_term or none for m in minimizers]).T
    left, right = bps[:-1], bps[1:]
    active = (lo <= left[:, None]) & (right[:, None] <= hi)
    coef = np.where(active, loads * a, 0.0)
    const = np.where(active, loads * c, use_bp[:-1]).sum(axis=1)

    rows = np.flatnonzero(j > 0)
    p = j[rows] - 1
    A, C, target, mu_lo, mu_hi = coef[p], const[p], b[rows], left[p], right[p]
    jump = C + (A * mu_hi[:, None] ** -e).sum(axis=1) > target
    mu = np.zeros(len(b))
    mu[rows] = mu_hi

    # The other pieces have an active term: a constant piece's usage is its
    # left end's, which exceeds the budget, so it ends in a jump.
    solved = ~jump
    A, C, target, mu_lo, mu_hi = A[solved], C[solved], target[solved], mu_lo[solved], mu_hi[solved]
    on = A > 0.0
    e_lo = np.where(on, e, math.inf).min(axis=1)
    closed = e_lo == np.where(on, e, -math.inf).max(axis=1)
    todo = np.flatnonzero(~closed)
    with np.errstate(divide="ignore"):
        x = np.log(A.sum(axis=1) / (target - C)) / e_lo  # log mu, in closed form
        # Newton starts at the larger of the left end and the roots of the
        # terms alone; at each such root the other terms add usage, so it
        # lies left of the piece's root.
        alone = np.log(A[todo] / (target[todo] - C[todo])[:, None]) / np.where(on[todo], e, 1.0)
        x[todo] = np.maximum(np.log(mu_lo[todo]), alone.max(axis=1))
    x_hi = np.log(mu_hi)
    e_on = np.where(on, e, 0.0)
    while todo.size:
        terms = A[todo] * np.exp(-e_on[todo] * x[todo, None])
        step = (C[todo] + terms.sum(axis=1) - target[todo]) / (e * terms).sum(axis=1)
        x_next = np.minimum(x[todo] + step, x_hi[todo])
        moved = x_next > x[todo]
        x[todo[moved]] = x_next[moved]
        todo = todo[moved]
    mu_on = np.clip(np.exp(x), mu_lo, mu_hi)
    mu[rows[solved]] = mu_on
    ks = ks_bp[j]  # at the breakpoint, where a slack or jumping budget's mu is
    on_piece = ks_bp[p[solved]]
    smooth = np.isfinite(lo)
    with np.errstate(divide="ignore", over="ignore"):
        for i in np.flatnonzero(smooth):
            on_piece[:, i] = minimizers[i].widths(mu_on)[0]
    ks[rows[solved]] = on_piece
    # A jumping width may rise back to its left-side value; a smooth one is
    # continuous and stays.
    for r, q in zip(rows[jump], p[jump]):
        upper = np.where(smooth, ks_bp[q + 1], ks_bp[q])
        ks[r] = _fill_budget(spec, float(b[r]), ks[r], use_bp[q + 1], upper)
    return _allocations(spec, ks, mu, k_max=k_max)
