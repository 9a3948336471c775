import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpurental import Amdahl, PowerLaw, SpecError, Tabular, parse_speedup, validate
from gpurental.speedup import REL_TOL, scalar_fn
from reference_validate import validate as reference_validate


def concave_tabular(rng, n_knots=6):
    """Random concave, monotone, s(1)=1 piecewise-linear speedup."""
    ks = np.cumsum(rng.uniform(0.5, 3.0, size=n_knots))
    ks = np.concatenate([[1.0], 1.0 + ks])
    slopes = np.sort(rng.uniform(0.0, 1.0, size=n_knots))[::-1]
    ss = np.concatenate([[1.0], 1.0 + np.cumsum(slopes * np.diff(ks))])
    return Tabular(tuple(zip(ks, ss)))


class TestEval:
    def test_amdahl_at_one(self):
        assert Amdahl(0.8)(1.0) == pytest.approx(1.0)

    def test_power_law_sqrt(self):
        assert PowerLaw(0.5)(4.0) == pytest.approx(2.0)

    def test_amdahl_closed_form(self):
        assert Amdahl(0.8)(4.0) == pytest.approx(2.5)

    def test_domain_error_below_one(self):
        with pytest.raises(ValueError):
            Amdahl(0.8)(0.5)
        with pytest.raises(ValueError):
            PowerLaw(0.5)(np.array([2.0, 0.99]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        ks = rng.uniform(1.0, 50.0, size=100)
        for f in (Amdahl(0.7), Tabular(((1, 1), (4, 2.5), (16, 4)))):
            fast = scalar_fn(f)
            assert f(ks).tolist() == [fast(k) for k in ks]
        # Python's ** and numpy's array power are different implementations
        # and disagree in the last bit on about 5% of sampled widths.
        f = PowerLaw(0.4)
        fast = scalar_fn(f)
        np.testing.assert_allclose(f(ks), [fast(k) for k in ks], rtol=1e-14)

    def test_tabular_knots_are_read_only(self):
        f = Tabular(((1, 1), (4, 2.5), (16, 4)))
        assert f.knots.tolist() == [1.0, 4.0, 16.0]
        with pytest.raises(ValueError):
            f.knots[0] = 2.0
        assert f(2.0) == 1.5

    def test_tabular_interpolates_and_saturates(self):
        f = Tabular(((1, 1), (2, 1.8), (4, 2.4)))
        assert f(1.5) == pytest.approx(1.4)
        assert f(3.0) == pytest.approx(2.1)
        assert f(100.0) == pytest.approx(2.4)  # constant beyond last knot

    def test_tabular_reproduces_knots_exactly(self):
        pts = ((1.0, 1.0), (2.0, 1.8), (7.0, 3.1), (30.0, 4.0))
        f = Tabular(pts)
        for k, s in pts:
            assert f(k) == s


class TestConstruction:
    def test_amdahl_fraction_bounds(self):
        Amdahl(0.0)
        Amdahl(1.0)
        with pytest.raises(SpecError):
            Amdahl(-0.1)
        with pytest.raises(SpecError):
            Amdahl(1.5)

    def test_power_law_positive_exponent(self):
        with pytest.raises(SpecError):
            PowerLaw(0.0)
        with pytest.raises(SpecError):
            PowerLaw(-1.0)
        PowerLaw(2.0)  # constructible; validation reports the violation

    def test_tabular_structural_errors(self):
        with pytest.raises(SpecError):
            Tabular(())
        with pytest.raises(SpecError):
            Tabular(((2, 1.5), (1, 1)))  # unsorted
        with pytest.raises(SpecError):
            Tabular(((1, 1), (1, 2)))  # duplicate k
        with pytest.raises(SpecError):
            Tabular(((0.5, 1),))  # k below 1
        with pytest.raises(SpecError):
            Tabular(((1, 0.0),))  # non-positive speed


class TestValidate:
    def test_amdahl_passes_all(self):
        report = validate(Amdahl(0.8))
        assert report.ok
        assert all(c.passed for c in report.checks())

    def test_superlinear_power_fails_sublinearity(self):
        report = validate(PowerLaw(2.0))
        assert not report.sublinear.passed
        assert not report.ok

    def test_tabular_sublinearity_failure_names_pair(self):
        # s(2)/2 = 1.5 exceeds s(1)/1 = 1, so the average speedup grows.
        report = validate(Tabular(((1, 1), (2, 3), (3, 3.5))))
        assert not report.sublinear.passed
        assert report.sublinear.detail == "s(1)/1 = 1 < s(2)/2 = 1.5"

    @pytest.mark.parametrize(
        "points, detail",
        [
            (((1, 1), (1e9, 1.5e9)), "s(1)/1 = 1 < s(1e+09)/1e+09 = 1.5"),
            # s(k)/k rises by a relative 5e-7 from k = 1 to k = 1000.
            (((1, 1), (1000, 1000.0005)), "s(1)/1 = 1 < s(1000)/1000 = 1"),
        ],
        ids=["rise-to-1e9", "rise-to-1000"],
    )
    def test_wide_pairs_measure_average_speed_rises_in_its_own_units(self, points, detail):
        # The rise of s(k)/k is compared with REL_TOL times s(k)/k, not times
        # s(k): a tolerance in speed units would forgive these across a wide
        # pair.
        report = validate(Tabular(points))
        assert report.concave.passed
        assert report.sublinear.detail == detail

    def test_tabular_convex_kink_fails_concavity(self):
        report = validate(Tabular(((1, 1), (2, 1.05), (3, 2.0))))
        assert not report.concave.passed
        assert report.concave.detail == "s(2) = 1.05 < chord of s(1), s(3) = 1.5"

    def test_failures_name_the_users_knots(self):
        report = validate(Tabular(((1, 1), (2, 1.1), (4, 3.5))))
        assert report.sublinear.detail == "s(2)/2 = 0.55 < s(4)/4 = 0.875"
        assert report.concave.detail == "s(2) = 1.1 < chord of s(1), s(4) = 1.83333"

    def test_kink_at_a_first_knot_above_one_fails_concavity(self):
        # s is held at 2 on [1, 2] and then rises: a convex kink at k = 2.
        report = validate(Tabular(((2, 2), (4, 3))))
        assert report.monotone.passed and report.sublinear.passed
        assert report.concave.detail == "s(2) = 2 < chord of s(1), s(4) = 2.33333"

    def test_kink_into_the_flat_tail_is_decided(self):
        # A falling last piece meets the flat tail in a convex kink.
        report = validate(Tabular(((1, 1), (2, 2), (3, 1.5))))
        assert report.monotone.detail == "s(2) = 2 > s(3) = 1.5"
        assert report.concave.detail == "s(3) = 1.5 < chord of s(2), s(6) = 1.875"

    def test_decision_points(self):
        assert Amdahl(0.5).axiom_ks() == PowerLaw(0.5).axiom_ks() == (1.0, 2.0, 4.0)
        assert Tabular(((1, 1), (4, 2.5), (16, 4))).axiom_ks() == (1.0, 4.0, 16.0, 32.0)
        assert Tabular(((3, 1),)).axiom_ks() == (1.0, 3.0, 6.0)

    def test_width_past_a_last_knot_near_the_largest_double_is_finite(self):
        # 2 * 1e308 overflows; the largest double stands in for it, and the
        # kinks stay decided without an inf - inf in the chord test.
        big = sys.float_info.max
        assert Tabular(((1, 1), (1e308, 2))).axiom_ks() == (1.0, 1e308, big)
        assert validate(Tabular(((1, 1), (1e308, 2)))).ok
        report = validate(Tabular(((1, 1), (1e300, 2), (1e308, 1.5))))
        assert report.monotone.detail == "s(1e+300) = 2 > s(1e+308) = 1.5"
        assert report.concave.detail == (
            "s(1e+308) = 1.5 < chord of s(1e+300), s(1.79769e+308) = 1.72187"
        )

    def test_decreasing_tabular_fails_monotonicity(self):
        report = validate(Tabular(((1, 1), (2, 0.8))))
        assert not report.monotone.passed

    def test_normalization_is_warning_only(self):
        report = validate(Tabular(((1, 2.0), (4, 4.0))))
        assert report.ok  # axioms hold
        assert not report.normalized.passed
        assert report.warnings

    def test_linear_speedup_passes(self):
        assert validate(PowerLaw(1.0)).ok

    def test_constant_speedup_passes(self):
        assert validate(Tabular(((1, 1.0),))).ok


def relative_violations(f, axiom, ks):
    """How far the widths break an axiom, as validate measures it: pairs
    (a, b) for monotone (relative to the larger speed) and sublinear
    (relative to the larger s(k)/k), triples (lo, mid, hi) for concave
    (relative to the larger speed at the outer widths)."""
    if axiom == "concave":
        lo, mid, hi = ks
        theta = (hi - mid) / (hi - lo)
        chord = theta * f(lo) + (1.0 - theta) * f(hi)
        return (chord - f(mid)) / np.maximum(np.abs(f(lo)), np.abs(f(hi)))
    a, b = ks
    va, vb = (f(a), f(b)) if axiom == "monotone" else (f(a) / a, f(b) / b)
    return (vb - va if axiom == "sublinear" else va - vb) / np.maximum(np.abs(va), np.abs(vb))


@st.composite
def eighth_grid_tables(draw):
    """Tables with any slope signs and a first knot >= 1.  Knots lie on a
    1/8 grid and speeds on a 1/1024 grid, so the six-digit details name the
    knots exactly and every violation is either 0 or over 5 * REL_TOL."""
    n = draw(st.integers(1, 8))
    first = 1.0 + draw(st.integers(0, 16)) / 8.0
    steps = draw(st.lists(st.integers(1, 16), min_size=n - 1, max_size=n - 1))
    ks = first + np.cumsum([0] + steps) / 8.0
    speeds = draw(st.lists(st.integers(1, 20 * 1024), min_size=n, max_size=n))
    return Tabular(tuple(zip(ks.tolist(), (np.array(speeds) / 1024.0).tolist())))


# Exponents in (0, 3], often close to 1, where violations are near REL_TOL.
POWER_LAWS = (st.floats(0.0, 3.0, exclude_min=True) | st.floats(1.0 - 1e-6, 1.0 + 1e-6)).map(
    PowerLaw)


@settings(max_examples=400, deadline=None)
@given(f=eighth_grid_tables() | POWER_LAWS)
def test_validate_is_exact(f):
    """Every FAIL names decision points that break its axiom by more than
    REL_TOL; every pass holds on 2,000 sampled pairs and midpoint triples in
    [1, 4 * last knot] (for k**alpha, [1, 16]).

    For k**alpha a relative tolerance depends on spacing.  s(k)/k changes by
    the factor (b/a)**(alpha-1) across a pair, so a pass on (1, 2) bounds the
    relative rise across (a, b) by REL_TOL * log2(b/a), not by REL_TOL.  And
    with alpha about 1 + 7e-9, (1, 2, 4) passes concavity while wider
    triples fall short of their chords by just over REL_TOL; such an alpha
    fails sub-linearity, so for power laws the sampled check covers families
    that pass whole."""
    report = validate(f)
    for check in (report.monotone, report.sublinear, report.concave):
        if not check.passed:
            ks = [float(k) for k in re.findall(r"s\(([^)]+)\)", check.detail)]
            assert set(ks) <= set(f.axiom_ks())
            if check.name == "concave":
                ks = [ks[1], ks[0], ks[2]]  # the detail names mid, then lo and hi
            assert relative_violations(f, check.name, ks) > REL_TOL
    hi = 4.0 * (f.knots[-1] if isinstance(f, Tabular) else 4.0)
    rng = np.random.default_rng(0)
    a, b = np.sort(np.exp(rng.uniform(0.0, np.log(hi), size=(2, 2000))), axis=0)
    pairs = {"monotone": (a, b), "sublinear": (a, b), "concave": (a, 0.5 * (a + b), b)}
    tol = {name: REL_TOL for name in pairs}
    if isinstance(f, PowerLaw):
        tol["sublinear"] = REL_TOL * np.maximum(1.0, np.log2(b / a))
    for check in (report.monotone, report.sublinear, report.concave):
        if check.passed and (report.ok or isinstance(f, Tabular)):
            assert np.all(relative_violations(f, check.name, pairs[check.name]) <= tol[check.name])


@st.composite
def wide_tables(draw):
    """Tables of 1-8 knots anywhere in [1, 1e308], with speeds anywhere in
    (0, 1e308]: monotone or not, concave or not, far from any grid."""
    ks = sorted(draw(st.sets(st.floats(1.0, 1e308), min_size=1, max_size=8)))
    speeds = draw(st.lists(st.floats(0.0, 1e308, exclude_min=True),
                           min_size=len(ks), max_size=len(ks)))
    return Tabular(tuple(zip(ks, speeds)))


@settings(max_examples=600, deadline=None)
@given(f=(
    (st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])).map(Amdahl)
    | (st.floats(0.0, 1024.0, exclude_min=True) | st.sampled_from([1.0, 1.0 + 1e-12, 1024.0])
       ).map(PowerLaw)
    | eighth_grid_tables()
    | wide_tables()
))
def test_validate_matches_the_numpy_reference(f):
    """The float decision returns the report of the numpy one it replaced,
    verdicts and details, wherever every speed at the axiom widths is
    finite.  A speed that is not finite (k**alpha past alpha = 512) fails
    sub-linearity: at alpha = 1024, s(2) = inf, and the reference let
    inf - 1 > REL_TOL * inf pass."""
    with np.errstate(all="ignore"):
        speeds = f._value(np.array(f.axiom_ks()))
        expected = reference_validate(f)
    report = validate(f)
    if np.all(np.isfinite(speeds)):
        assert report == expected
    else:
        assert not report.ok and not report.sublinear.passed


class TestAxiomProperties:
    """Sampled-pair checks of the axioms for every validated family."""

    def families(self):
        rng = np.random.default_rng(7)
        out = [Amdahl(p) for p in (0.0, 0.3, 0.8, 0.95, 1.0)]
        out += [PowerLaw(a) for a in (0.1, 0.5, 0.9, 1.0)]
        out += [concave_tabular(rng) for _ in range(5)]
        return out

    def test_monotone_and_sublinear_on_sampled_pairs(self):
        rng = np.random.default_rng(123)
        for f in self.families():
            assert validate(f).ok
            ks = np.sort(np.exp(rng.uniform(0.0, np.log(1e6), size=200)))
            s = f(ks)
            assert np.all(np.diff(s) >= -1e-9 * s[:-1])
            avg = s / ks
            assert np.all(np.diff(avg) <= 1e-9 * avg[:-1])

    def test_cost_rate_non_decreasing(self):
        rng = np.random.default_rng(42)
        for f in self.families():
            ks = np.sort(np.exp(rng.uniform(0.0, np.log(1e6), size=200)))
            cr = ks / f(ks)  # GPU-hours per unit of work
            assert np.all(np.diff(cr) >= -1e-9 * cr[:-1])

    def test_amdahl_saturates(self):
        for p in (0.5, 0.8, 0.99):
            assert Amdahl(p)(1e6) <= 1.0 / (1.0 - p) + 1e-9


class TestUsageLaw:
    """Each family's minimizer names the breakpoints and power term that
    describe how the usage k/s(k) of its width moves with the multiplier mu."""

    K_MAX = 2.0**20

    def widths(self, f, mu, k_max=K_MAX):
        with np.errstate(divide="ignore", over="ignore"):
            return f.minimizer(k_max).widths(np.asarray(mu, dtype=float))

    def check_power_term(self, f, k_max):
        m = f.minimizer(k_max)
        lo, hi, a, e, c = m.power_term
        assert m.power_term[:2] == m.breakpoints
        # A subnormal mu holds too few bits to pin the width to 1e-13, so the
        # law is checked from the smallest normal double on.
        tiny = np.finfo(float).tiny
        if hi < tiny:
            return
        mu = np.geomspace(max(lo, tiny), hi, 200)
        k, s = self.widths(f, mu, k_max)
        np.testing.assert_allclose(k / s, a * mu**-e + c, rtol=1e-13)
        # Outside [lo, hi] the width is pinned: at the cap, then at 1.
        below = [lo * 0.999] if lo >= tiny else []
        k, _ = self.widths(f, np.array([0.0, *below, hi * 1.001, np.inf]), k_max)
        assert k.tolist() == [k_max] * (1 + len(below)) + [1.0, 1.0]

    @pytest.mark.parametrize("f", [Amdahl(0.3), Amdahl(0.8), Amdahl(0.999), PowerLaw(0.1),
                                   PowerLaw(0.5), PowerLaw(0.9)], ids=repr)
    def test_power_term_matches_the_minimizer(self, f):
        self.check_power_term(f, self.K_MAX)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from([Amdahl, PowerLaw]),
           x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           k_max=st.sampled_from([1.0, 6.0, 2.0**20, 1e300]))
    def test_power_term_matches_the_minimizer_for_any_exponent(self, family, x, k_max):
        # Past a cap of 2**512 the width sqrt(r/mu) of Amdahl's law is
        # finite where r/mu overflows; it must not snap to the cap there.
        self.check_power_term(family(x), k_max)

    def test_amdahl_cap_breakpoint_where_the_squared_cap_overflows(self):
        # k_max * k_max is inf past ~1.34e154, yet r / k_max**2 is still a
        # normal double for p near 1: the breakpoint must not fall to 0.
        f, k_max = Amdahl(0.999999), 1.4e154
        m = f.minimizer(k_max)
        assert m.breakpoints[0] == 5.102035714139002e-303
        assert m.power_term[0] == 5.102035714139002e-303
        self.check_power_term(f, k_max)

    @pytest.mark.parametrize("f", [Amdahl(0.0), Amdahl(1.0), PowerLaw(1.0)], ids=repr)
    def test_constant_families_have_no_breakpoints(self, f):
        m = f.minimizer(self.K_MAX)
        assert m.breakpoints == ()
        assert m.power_term is None
        k, _ = self.widths(f, np.array([0.0, 0.5, np.inf]))
        assert len(set(k.tolist())) == 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_knots=st.integers(1, 8),
           k_max=st.sampled_from([2.0**20, 64.0, 6.0, 1.0]))
    def test_tabular_width_changes_exactly_at_its_breakpoints(self, seed, n_knots, k_max):
        f = concave_tabular(np.random.default_rng(seed), n_knots)
        m = f.minimizer(k_max)
        assert m.power_term is None
        bps = np.array(m.breakpoints)
        assert np.all(bps > 0) and np.all(np.diff(bps) > 0)
        # One probe inside each piece, before the first and past the last.
        ends = [bps[0] / 4, bps[-1] * 4] if len(bps) else [1.0, 2.0]
        edges = np.concatenate([ends[:1], bps, ends[1:]])
        probes = np.sqrt(edges[:-1] * edges[1:])
        k, s = self.widths(f, probes, k_max)
        assert np.all(np.diff(k) < 0)  # a new width on every piece
        # Each breakpoint already takes the width of the piece to its right.
        k_at, _ = self.widths(f, bps, k_max)
        assert k_at.tolist() == k[1:].tolist()
        # Just left of it the width is the left piece's, though g of the two
        # widths differs there by far less than 1e-12.
        assume(np.all(bps[1:] * (1 - 1e-13) > bps[:-1]))
        k_left, _ = self.widths(f, bps * (1 - 1e-13), k_max)
        assert k_left.tolist() == k[:-1].tolist()


@st.composite
def concave_tables(draw):
    """Tables that pass the axioms, from (1, s0) with s0 in {0.5, 1, 2}:
    knots on a 1/8 grid, slopes s0 * i/16 non-increasing (equal slopes make
    collinear knots, 0 a flat tail).  A first slope of s0 makes s = s0 * k
    on the first piece, where k/s is flat at 1/s0, so c*v = 1 at v = 1/s0;
    the powers of two keep that exact."""
    n = draw(st.integers(1, 6))
    ks = 1.0 + np.cumsum([0] + draw(st.lists(st.integers(1, 16), min_size=n - 1,
                                              max_size=n - 1))) / 8.0
    s0 = draw(st.sampled_from([0.5, 1.0, 2.0]))
    slopes = sorted(draw(st.lists(st.integers(0, 16), min_size=n - 1, max_size=n - 1)),
                    reverse=True)
    ss = s0 + np.concatenate([[0.0], np.cumsum(np.array(slopes) * s0 / 16.0 * np.diff(ks))])
    return Tabular(tuple(zip(ks.tolist(), ss.tolist())))


# Exponents and fractions where k/s(k) rises resolvably (its elasticity is
# at least 1e-3 on [1, k_max]), plus the constant-usage edges p = 1 and
# alpha = 1.
USAGE_FAMILIES = (
    st.sampled_from([Amdahl(0.0), Amdahl(1.0), PowerLaw(1.0)])
    | st.floats(0.0, 0.999).map(Amdahl)
    | st.floats(0.01, 0.999).map(PowerLaw)
    | concave_tables()
)


class TestUsageInverse:
    """``width_at_usage`` inverts the usage per unit load h(k) = k/s(k):
    the width it returns uses at most v, and a width just past it uses
    more, unless it is the cap."""

    @staticmethod
    def h(f, k):
        return k / f(k)

    @settings(max_examples=500, deadline=None)
    @given(f=USAGE_FAMILIES, data=st.data(),
           k_max=st.sampled_from([2.0**20, 64.0, 3.5, 1.0]))
    def test_inverts_the_usage(self, f, data, k_max):
        knot_usages = [k / s for k, s in f.points] if isinstance(f, Tabular) else [1.0]
        v = data.draw(st.sampled_from(knot_usages)
                      | st.floats(0.5, 1e4).map(lambda x: x / f(1.0)), label="v")
        assert validate(f).ok
        k = f.width_at_usage(v, k_max)
        assert 1.0 <= k <= k_max
        if self.h(f, 1.0) > v:
            assert k == 1.0
            return
        assert self.h(f, k) <= v * (1 + 1e-14)  # the closed forms round by a few ulps
        if k < k_max:
            assert self.h(f, k * (1 + 1e-9)) > v

    def test_flat_piece_takes_its_right_end(self):
        # s = 2k up to k = 3, so k/s is 1/2 there and c*v = 1 at v = 1/2.
        f = Tabular(((1, 2), (3, 6), (5, 7)))
        assert f.width_at_usage(0.5, 2.0**20) == 3.0
        assert f.width_at_usage(0.25, 2.0**20) == 1.0  # width 1 uses 1/2 > 1/4
        # s = 0.51k: the knots' usages round to 1/0.51 and 1 ulp above it, so
        # v = 1/0.51 lands inside the piece with c*v == 1.0, where the closed
        # form would divide by zero.
        f = Tabular(((1, 0.51), (5, 2.55)))
        v = 1.0 / 0.51
        assert (f.knots[0] / f(1.0), 0.51 * v) == (v, 1.0) and 5.0 / f(5.0) > v
        assert f.width_at_usage(v, 2.0**20) == 5.0

    @pytest.mark.parametrize("f", [Amdahl(1.0), PowerLaw(1.0)], ids=repr)
    def test_constant_usage_fits_whole_or_not_at_all(self, f):
        assert f.width_at_usage(1.0, 64.0) == 64.0
        assert f.width_at_usage(0.5, 64.0) == 1.0

    def test_closed_forms(self):
        assert Amdahl(0.8).width_at_usage(0.2 * 6 + 0.8, 2.0**20) == pytest.approx(6.0, rel=1e-15)
        assert PowerLaw(0.5).width_at_usage(3.0, 2.0**20) == pytest.approx(9.0, rel=1e-15)
        assert Tabular(((1, 1), (4, 3), (16, 6))).width_at_usage(2.0, 2.0**20) == 8.0
        assert Tabular(((1, 1), (4, 3))).width_at_usage(3.0, 2.0**20) == 9.0  # flat tail
        assert PowerLaw(0.5).width_at_usage(1e300, 64.0) == 64.0  # no overflow


class TestParse:
    def test_amdahl(self):
        assert parse_speedup({"kind": "amdahl", "p": 0.8}) == Amdahl(0.8)

    def test_power(self):
        assert parse_speedup({"kind": "power", "alpha": 0.5}) == PowerLaw(0.5)

    def test_tabular(self):
        f = parse_speedup({"kind": "tabular", "points": [[1, 1], [2, 1.8]]})
        assert f == Tabular(((1.0, 1.0), (2.0, 1.8)))

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown"):
            parse_speedup({"kind": "cubic"})

    def test_missing_field(self):
        with pytest.raises(SpecError, match="missing"):
            parse_speedup({"kind": "amdahl"})

    def test_not_a_dict(self):
        with pytest.raises(SpecError):
            parse_speedup("amdahl")
