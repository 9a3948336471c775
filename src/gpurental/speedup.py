"""Speedup functions: how much faster a job runs when given k GPUs.

A speedup function s(k) is defined for k >= 1 and must be monotone
non-decreasing and concave, with non-increasing average speedup s(k)/k
(diminishing returns per GPU).  ``validate`` decides those axioms exactly,
on the few widths each family names in ``axiom_ks``; the solver refuses a
speedup that fails them, and the simulator assumes they hold.

All speedup values are immutable after construction and safe to evaluate
from any number of threads.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import SpecError

# Axiom violations smaller than this (relative) are treated as round-off.
REL_TOL = 1e-9

# Default cap on any width the solver picks.
DEFAULT_K_MAX = float(2**20)

# Amdahl's law and k**alpha are decided on these widths; see ``axiom_ks``.
_SMOOTH_AXIOM_KS = (1.0, 2.0, 4.0)


def _check_width(what: str, value) -> None:
    """The one rule for a GPU width, pool size or cap (a scalar or an
    array of them): finite and >= 1."""
    if isinstance(value, float):
        if not 1.0 <= value < math.inf:
            raise SpecError(f"{what} must be finite and >= 1, got {float(value)}")
        return
    arr = np.asarray(value, dtype=float)
    bad = ~((arr >= 1.0) & (arr < math.inf))
    if bad.any():
        raise SpecError(f"{what} must be finite and >= 1, got {float(arr[bad].flat[0])}")


def _number(value, where: str) -> float:
    """A number of a spec document, or a refusal named by its JSON path."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{where}: expected a number") from None
    except OverflowError as exc:  # an integer past the range of a double
        raise SpecError(f"{where}: {exc}") from None


def _from_kind(obj, where: str, kinds: dict, noun: str):
    """The family that the spec object at JSON path ``where`` names by its
    ``kind``, which ``kinds`` maps to a class and its fields' readers, in
    order; ``noun`` names the kinds.  A class's refusal is prefixed ``where``."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"{where}.kind: unknown {noun} {kind!r}")
    cls, readers = kinds[kind]
    args = []
    for name, read in readers.items():
        if name not in obj:
            raise SpecError(f"{where}: missing field {name!r} for kind {kind!r}")
        args.append(read(obj[name], f"{where}.{name}"))
    try:
        return cls(*args)
    except SpecError as exc:
        raise SpecError(f"{where}: {exc}") from None


class Minimizer(NamedTuple):
    """A family's exact minimizer of g(k) = (1 + mu*k) / s(k) over [1, k_max].

    ``widths`` maps an array of mu >= 0 to the minimizing widths and their
    speeds; mu = inf gives width 1, or the cap where s is linear.
    ``breakpoints`` are the increasing mu > 0 at which the width changes
    form: between two consecutive ones it is constant or follows
    ``power_term``.  ``power_term`` is (lo, hi, a, e, c) such that on
    lo <= mu <= hi the width k has k / s(k) = a * mu**-e + c, its ends being
    the breakpoints; None when the width is piecewise constant in mu.
    """

    widths: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    breakpoints: tuple[float, ...] = ()
    power_term: tuple[float, float, float, float, float] | None = None


class SpeedupFunction:
    """Base class; subclasses provide ``_value`` vectorized over k >= 1 and,
    for the solver, their family's closed-form ``minimizer``, which also
    describes its usage as a function of mu, and the inverse of its usage
    per unit load, ``width_at_usage``; and the widths ``axiom_ks`` on which
    ``validate`` decides the axioms."""

    def _value(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def axiom_ks(self) -> tuple[float, ...]:
        """The increasing widths, from 1, on which the axioms are decided
        exactly: the function satisfies them for all k >= 1 iff consecutive
        pairs are monotone and sub-linear and every interior width lies on
        or above the chord of its neighbours."""
        raise TypeError(f"no axiom decision points for speedup {type(self).__name__}")

    def _axiom_speeds(self) -> tuple[tuple[float, ...], list[float]]:
        """``axiom_ks`` and the speeds there, as Python floats: what
        ``validate`` decides on.  A family that holds those speeds returns
        them without evaluating."""
        ks = self.axiom_ks()
        with np.errstate(over="ignore"):  # k**alpha past the range of a double
            return ks, self._value(np.array(ks)).tolist()

    def minimizer(self, k_max: float) -> Minimizer:
        """The exact minimizer of g(k) = (1 + mu*k) / s(k) over [1, k_max],
        with the breakpoints and power term of its usage in mu.

        The family's constants and its constant ends are decided once, here.
        mu = 0 divides by zero, and a small enough mu overflows a width that
        is past any cap, on purpose (the width goes to the cap); callers
        silence both warnings.
        """
        raise TypeError(f"no closed-form minimizer for speedup {type(self).__name__}")

    def width_at_usage(self, v: float, k_max: float) -> float:
        """The largest width k in [1, k_max] whose usage per unit load,
        k / s(k), is at most v: the family's closed-form inverse of k / s(k),
        which the axioms make non-decreasing, exact up to rounding.  1 when
        even width 1 uses more than v."""
        raise TypeError(f"no closed-form usage inverse for speedup {type(self).__name__}")

    def __call__(self, k):
        """Evaluate s(k). Accepts a float or an ndarray; k must be >= 1."""
        arr = np.asarray(k, dtype=float)
        if np.any(arr < 1.0):
            raise ValueError(f"speedup is defined for k >= 1, got {np.min(arr)}")
        out = self._value(arr)
        return float(out) if arr.ndim == 0 else out


def _fixed_width(f: SpeedupFunction, k: float) -> Minimizer:
    """A ``minimizer`` whose width k does not depend on mu."""
    s = f._value(np.float64(k))
    return Minimizer(lambda mu: (np.full_like(mu, k), np.full_like(mu, s)))


@dataclass(frozen=True)
class Amdahl(SpeedupFunction):
    """Amdahl's law with parallel fraction p: s(k) = 1 / ((1-p) + p/k)."""

    parallel_fraction: float

    def __post_init__(self):
        p = self.parallel_fraction
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            raise SpecError(f"amdahl parallel fraction must be in [0, 1], got {p}")

    def _value(self, k):
        p = self.parallel_fraction
        return 1.0 / ((1.0 - p) + p / k)

    def axiom_ks(self):
        # Every p in [0, 1] satisfies the axioms; these widths confirm it.
        return _SMOOTH_AXIOM_KS

    def minimizer(self, k_max: float) -> Minimizer:
        # g'(k) = 0 where mu*(1-p)*k^2 = p.  The ends are constant in mu:
        # s = 1 (p = 0) runs no faster wider, and s = k (p = 1) makes g
        # decreasing, so the cap.  Between the cap (mu = r/k_max^2) and
        # width 1 (mu = r), k/s(k) = (1-p)*k + p with k = sqrt(r/mu).
        p = self.parallel_fraction
        if p == 0.0 or p == 1.0:
            return _fixed_width(self, 1.0 if p == 0.0 else k_max)
        r = p / (1.0 - p)
        # r/mu overflows at a small mu whose width sqrt(r/mu) is finite and
        # may lie under a cap past 2**512.  Scaling r by a power of 4 to
        # about 2**-52 cannot overflow, and gives the same bits wherever
        # r/mu does not.
        h = (math.frexp(r)[1] + 52) // 2
        r_scaled, scale = math.ldexp(r, -2 * h), math.ldexp(1.0, h)

        def widths(mu):
            k = np.minimum(np.maximum(np.sqrt(r_scaled / mu) * scale, 1.0), k_max)
            return k, self._value(k)

        # Past a cap of ~1.3e154, k_max * k_max overflows where r / k_max / k_max
        # may still be a normal double; elsewhere one division keeps its bits.
        cap = r / (k_max * k_max) if k_max * k_max < math.inf else r / k_max / k_max
        term = cap, r, (1.0 - p) * math.sqrt(r), 0.5, p
        return Minimizer(widths, term[:2], term)

    def width_at_usage(self, v: float, k_max: float) -> float:
        # k/s(k) = (1-p)*k + p, so k = (v - p)/(1 - p); at p = 1 it is 1 at
        # every width.
        p = self.parallel_fraction
        if p == 1.0:
            return k_max if v >= 1.0 else 1.0
        return min(max((v - p) / (1.0 - p), 1.0), k_max)


@dataclass(frozen=True)
class PowerLaw(SpeedupFunction):
    """Power-law speedup s(k) = k**alpha.

    Sub-linearity requires alpha <= 1; larger exponents are constructible so
    that ``validate`` can report the violation, but they fail validation.
    """

    exponent: float

    def __post_init__(self):
        a = self.exponent
        if not (a > 0.0) or not math.isfinite(a):
            raise SpecError(f"power-law exponent must be positive, got {a}")

    def _value(self, k):
        return k**self.exponent

    def axiom_ks(self):
        # With x = 2**alpha, the pair (1, 2) is sub-linear iff x <= 2, and the
        # chord of (1, 4) lies above s(2) by (x-1)(x-2)/3, positive iff
        # alpha > 1: the three widths decide all three axioms.
        return _SMOOTH_AXIOM_KS

    def minimizer(self, k_max: float) -> Minimizer:
        # g'(k) = 0 where mu*(1-alpha)*k = alpha; alpha >= 1 keeps g
        # decreasing, so the cap.  The solver refuses alpha > 1, so that side
        # is reached only by calling the minimizer directly.  Between the cap
        # (mu = c/k_max) and width 1 (mu = c), k/s(k) = k**(1-alpha) with
        # k = c/mu.
        a = self.exponent
        if a >= 1.0:
            return _fixed_width(self, k_max)
        c = a / (1.0 - a)

        def widths(mu):
            k = np.minimum(np.maximum(c / mu, 1.0), k_max)
            return k, self._value(k)

        term = c / k_max, c, c ** (1.0 - a), 1.0 - a, 0.0
        return Minimizer(widths, term[:2], term)

    def width_at_usage(self, v: float, k_max: float) -> float:
        # k/s(k) = k**(1-alpha), so k = v**(1/(1-alpha)); at alpha = 1 it is
        # 1 at every width.  Comparing with the cap first keeps the power from
        # overflowing.
        a = self.exponent
        if v >= k_max ** (1.0 - a):
            return k_max
        if a >= 1.0 or v <= 1.0:
            return 1.0
        return min(v ** (1.0 / (1.0 - a)), k_max)


@dataclass(frozen=True)
class Tabular(SpeedupFunction):
    """Piecewise-linear speedup through measured (k, s) points.

    Between points the value is linearly interpolated; beyond the last point
    (and below the first) it is held constant, so a saturating tail stays
    monotone and sub-linear.  ``knots`` holds the points' k values as a
    read-only array, built once.
    """

    points: tuple[tuple[float, float], ...]
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    _speeds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((float(k), float(s)) for k, s in self.points)
        if len(pts) == 0:
            raise SpecError("tabular speedup needs at least one (k, s) point")
        ks = [k for k, _ in pts]
        for k, s in pts:
            if not (math.isfinite(k) and math.isfinite(s)):
                raise SpecError(f"tabular point is not finite: ({k}, {s})")
            _check_width("tabular point k", k)
            if not s > 0.0:
                raise SpecError(f"tabular point has non-positive speed: {s}")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise SpecError("tabular points must have strictly increasing k")
        object.__setattr__(self, "points", pts)
        for name, column in (("knots", ks), ("_speeds", [s for _, s in pts])):
            arr = np.array(column)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _value(self, k):
        return np.interp(k, self.knots, self._speeds)

    def axiom_ks(self):
        # Piecewise linear and flat at both ends: the breakpoints, with 1 and
        # a width past the last knot so that the kinks into the flat ends are
        # interior.  Monotonicity and s(k)/k are monotone on each piece, and
        # the slopes fall iff every interior breakpoint passes the chord test.
        # Past ~9e307, 2 * last overflows; the largest double stays finite.
        last = float(self.knots[-1])
        return tuple(sorted({1.0, *self.knots.tolist(), min(2.0 * last, sys.float_info.max)}))

    def _axiom_speeds(self):
        # The table's own entries, with no np.interp: s is flat below the
        # first knot and past the last, and np.interp at a knot returns its speed.
        ks, ss = self.axiom_ks(), self._speeds.tolist()
        head = ss[:1] if ks[0] < self.knots[0] else []
        tail = ss[-1:] if ks[-1] > self.knots[-1] else []
        return ks, head + ss + tail

    def _walk_envelope(self, k_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # g is monotone on each linear piece, so the minimum sits on a knot,
        # at 1 or at the cap: one line in mu, g = 1/s + mu*k/s, per width.
        # From the lowest at mu = 0 (the narrowest of equals), each vertex of
        # their lower envelope is the earliest crossing with a flatter line,
        # and the envelope goes on along the flattest one crossing there.
        # Returns the vertices, the last at mu = inf (every g is inf; width 1
        # is taken), and the width and speed on each stretch.
        # A sorted set, not np.unique, which imports numpy.ma on first use.
        cand = np.array(sorted({1.0, k_max, *np.minimum(self.knots, k_max).tolist()}))
        s = self._value(cand)
        # (intercept, slope) on Python floats, whose division gives inf past the
        # largest double without a warning: an infinite slope never wins.
        lines = [(1.0 / v, k / v) for k, v in zip(cand.tolist(), s.tolist())]
        j = min(range(len(lines)), key=lambda i: lines[i][0])
        vertices, stretches = [0.0], [j]
        while True:
            icept, slope = lines[j]
            crossings = [
                ((other - icept) / (slope - flatter), flatter, i)
                for i, (other, flatter) in enumerate(lines)
                if flatter < slope
            ]
            if not crossings:
                stretches.append(0)
                return np.array(vertices[1:] + [math.inf]), cand[stretches], s[stretches]
            mu, _, j = min(crossings)
            vertices.append(max(mu, vertices[-1]))
            stretches.append(j)

    def minimizer(self, k_max: float) -> Minimizer:
        """The width on the stretch of the envelope that holds mu; at a
        vertex, the stretch to its right, whose width is the narrower.  The
        breakpoints are the finite vertices."""
        vertices, ks, speeds = self._walk_envelope(k_max)

        def widths(mu):
            i = np.searchsorted(vertices, mu, side="right")
            return ks[i], speeds[i]

        return Minimizer(widths, tuple(vertices[:-1].tolist()))

    def width_at_usage(self, v: float, k_max: float) -> float:
        # The knots' own usages pick the piece.  Below the first knot and
        # past the last, s is flat, so k = v*s.  Between two knots s = a + c*k,
        # so k/s(k) = v at k = a*v/(1 - c*v).  On a piece whose usage is flat
        # at 1/c (a = 0), rounding can put v inside it with c*v = 1: the whole
        # piece then fits, so it takes its right end.
        ks, ss = self.knots.tolist(), self._speeds.tolist()
        j = bisect.bisect_right([k / s for k, s in zip(ks, ss)], v)
        if j == 0 or j == len(ks):
            k = v * ss[min(j, len(ks) - 1)]
        else:
            k0, s0, k1, s1 = ks[j - 1], ss[j - 1], ks[j], ss[j]
            c = (s1 - s0) / (k1 - k0)
            k = min(max((s0 - c * k0) * v / (1.0 - c * v), k0), k1) if c * v < 1.0 else k1
        return min(max(k, 1.0), k_max)


@dataclass(frozen=True)
class AxiomCheck:
    """Outcome of one axiom check; ``detail`` names the first violating pair."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    monotone: AxiomCheck
    sublinear: AxiomCheck
    concave: AxiomCheck
    normalized: AxiomCheck  # s(1) = 1; a warning, not a failure

    @property
    def ok(self) -> bool:
        return self.monotone.passed and self.sublinear.passed and self.concave.passed

    @property
    def warnings(self) -> list[str]:
        return [] if self.normalized.passed else [self.normalized.detail]

    def checks(self) -> list[AxiomCheck]:
        return [self.monotone, self.sublinear, self.concave, self.normalized]


_AXIOMS = ("monotone", "sublinear", "concave")


def _axiom_failures(f: SpeedupFunction) -> tuple[dict[str, str], float]:
    """The axiom decision of ``validate``, without its report: the detail of
    each failed axiom's first violation, by name in ``_AXIOMS`` order, and
    s(1)."""
    ks, s = f._axiom_speeds()
    mono = sub = conc = None
    for i in range(1, len(ks)):
        a, b, sa, sb = ks[i - 1], ks[i], s[i - 1], s[i]
        if mono is None and sa - sb > REL_TOL * max(abs(sb), abs(sa)):
            mono = f"s({a:.6g}) = {sa:.6g} > s({b:.6g}) = {sb:.6g}"
        ra, rb = sa / a, sb / b
        if sub is None and (
            rb - ra > REL_TOL * max(abs(ra), abs(rb))
            or not (math.isfinite(sa) and math.isfinite(sb))
        ):
            sub = f"s({a:.6g})/{a:.6g} = {ra:.6g} < s({b:.6g})/{b:.6g} = {rb:.6g}"
        if conc is None and i >= 2:
            lo, s_lo = ks[i - 2], s[i - 2]
            theta = (b - a) / (b - lo)
            chord = theta * s_lo + (1.0 - theta) * sb
            if chord - sa > REL_TOL * max(abs(s_lo), abs(sb)):
                conc = f"s({a:.6g}) = {sa:.6g} < chord of s({lo:.6g}), s({b:.6g}) = {chord:.6g}"
    failed = {name: d for name, d in zip(_AXIOMS, (mono, sub, conc)) if d is not None}
    return failed, s[0]  # the widths start at 1


def validate(f: SpeedupFunction) -> ValidationReport:
    """Decide the speedup axioms for all k >= 1 on the family's ``axiom_ks``:
    monotonicity and sub-linearity on consecutive pairs, concavity on
    consecutive triples (each interior width on or above the chord of its
    neighbours).  Violations below REL_TOL, relative to the compared
    quantities (speeds, or for sub-linearity the average speeds s(k)/k), are
    ignored.  A speed that is not finite fails sub-linearity at the first
    pair that reaches it.  The solver refuses a speedup on this same
    decision, ``_axiom_failures``, without building the report.
    """
    failed, s1 = _axiom_failures(f)
    checks = [AxiomCheck(name, name not in failed, failed.get(name, "")) for name in _AXIOMS]
    norm = AxiomCheck("normalized", abs(s1 - 1.0) <= REL_TOL)
    if not norm.passed:
        norm = AxiomCheck("normalized", False, f"s(1) = {s1:.6g}, expected 1")
    return ValidationReport(*checks, norm)


def scalar_fn(f: SpeedupFunction):
    """Scalar evaluator: the family's own ``_value`` on a float k >= 1,
    without ``__call__``'s array conversion and domain check.  No package
    code calls it any more (every replay and the solver evaluate ``_value``
    on arrays); it stays for the benchmark's tracer, which binds it by name."""
    value = f._value
    return lambda k: float(value(k))


def _points(value, where: str) -> tuple[tuple[float, float], ...]:
    """A table's points: a list of [k, s] pairs, each a list or a tuple.  A
    number's path is built only when ``_number`` must name it."""
    if not isinstance(value, list):
        raise SpecError(f"{where}: expected a list of [k, s] pairs")
    pairs = []
    for i, point in enumerate(value):
        if not (isinstance(point, (list, tuple)) and len(point) == 2):
            raise SpecError(f"{where}[{i}]: expected a [k, s] pair")
        try:
            pairs.append((float(point[0]), float(point[1])))
        except (TypeError, ValueError, OverflowError):  # the first that fails is named
            for j, x in enumerate(point):
                _number(x, f"{where}[{i}][{j}]")
            raise
    return tuple(pairs)


_SPEEDUP_KINDS = {
    "amdahl": (Amdahl, {"p": _number}),
    "power": (PowerLaw, {"alpha": _number}),
    "tabular": (Tabular, {"points": _points}),
}


def parse_speedup(obj, where: str = "speedup") -> SpeedupFunction:
    """Build a speedup function from its config-document form, the object at
    JSON path ``where``.  A refusal reads ``<path>: <reason>``: the path of
    a field that does not read, or ``where`` for values the family refuses."""
    return _from_kind(obj, where, _SPEEDUP_KINDS, "speedup kind")
