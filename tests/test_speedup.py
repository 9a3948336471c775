import numpy as np
import pytest

from gpurental import Amdahl, PowerLaw, SpecError, Tabular, parse_speedup, validate
from gpurental.speedup import scalar_fn


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
        # s(2)/2 = 1.5 exceeds s(1)/1 = 1, so the average speedup grows;
        # the first violating grid pair starts at k = 1.
        report = validate(Tabular(((1, 1), (2, 3), (3, 3.5))))
        assert not report.sublinear.passed
        assert report.sublinear.detail.startswith("s(1)")

    def test_tabular_convex_kink_fails_concavity(self):
        report = validate(Tabular(((1, 1), (2, 1.05), (3, 2.0))))
        assert not report.concave.passed

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

    @pytest.mark.parametrize("k_max", [0.5, np.nan, np.inf])
    def test_k_max_must_be_finite_and_at_least_one(self, k_max):
        with pytest.raises(SpecError, match="k_max must be finite and >= 1"):
            validate(PowerLaw(0.5), k_max=k_max)


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
