import math

import numpy as np
import pytest

from gpurental import (
    Amdahl,
    BoundedPareto,
    Deterministic,
    Exponential,
    InstabilityError,
    JobType,
    PowerLaw,
    SpecError,
    Trace,
    TraceError,
    Weibull,
    WorkloadSpec,
    empirical_loads,
    generate_trace,
    read_trace,
    spec_from_dict,
    write_trace,
)


def one_type_spec(dist=Deterministic(1.0), rate=1.0, budget=10.0):
    return WorkloadSpec(
        types=(JobType("t0", PowerLaw(0.5), arrival_rate=rate, size_dist=dist),),
        budget=budget,
    )


class TestSizeDistributions:
    def test_deterministic_mean(self):
        assert Deterministic(2.5).mean == 2.5

    def test_exponential_mean(self):
        assert Exponential(3.0).mean == 3.0

    def test_bounded_pareto_mean_vs_quadrature(self):
        # Independent oracle: numerical integration of x * pdf(x).
        for shape in (0.5, 1.5, 2.5):
            lo, hi = 0.5, 40.0
            xs = np.linspace(lo, hi, 2_000_001)
            pdf = shape * lo**shape * xs ** (-shape - 1.0) / (1.0 - (lo / hi) ** shape)
            numeric = np.trapezoid(xs * pdf, xs)
            assert BoundedPareto(shape, lo, hi).mean == pytest.approx(numeric, rel=1e-6)

    def test_bounded_pareto_log_case(self):
        # shape = 1: mean = lo*hi*ln(hi/lo)/(hi-lo)
        d = BoundedPareto(1.0, 1.0, math.e)
        assert d.mean == pytest.approx(math.e / (math.e - 1.0))

    def test_bounded_pareto_samples_in_range(self):
        d = BoundedPareto(1.2, 0.25, 50.0)
        xs = d.sample(np.random.default_rng(3), 10_000)
        assert xs.min() >= 0.25 and xs.max() <= 50.0
        assert xs.mean() == pytest.approx(d.mean, rel=0.05)

    def test_weibull_mean_matches_samples(self):
        d = Weibull(1.5, 2.0)
        assert d.mean == pytest.approx(2.0 * math.gamma(1 + 1 / 1.5))
        xs = d.sample(np.random.default_rng(5), 200_000)
        assert xs.mean() == pytest.approx(d.mean, rel=0.02)

    def test_exponential_samples(self):
        xs = Exponential(2.0).sample(np.random.default_rng(1), 100_000)
        assert xs.mean() == pytest.approx(2.0, rel=0.02)


class TestSpecTypes:
    def test_load_is_rate_times_mean(self):
        jt = JobType("a", Amdahl(0.5), arrival_rate=0.4, size_dist=Exponential(2.0))
        assert jt.load == pytest.approx(0.8)

    def test_positive_rate_required(self):
        with pytest.raises(SpecError):
            JobType("a", Amdahl(0.5), arrival_rate=0.0, size_dist=Deterministic(1.0))

    def test_bad_dist_params(self):
        with pytest.raises(SpecError):
            JobType("a", Amdahl(0.5), 1.0, Deterministic(-1.0))
        with pytest.raises(SpecError):
            JobType("a", Amdahl(0.5), 1.0, BoundedPareto(1.0, 2.0, 1.0))

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecError):
            WorkloadSpec(types=(), budget=1.0)

    def test_stability_check(self):
        spec = one_type_spec(rate=1.0, budget=0.5)  # load 1 > budget 0.5
        with pytest.raises(InstabilityError):
            spec.check_stability()
        one_type_spec(rate=1.0, budget=2.0).check_stability()

    def test_spec_from_dict_errors(self):
        with pytest.raises(SpecError):
            spec_from_dict({"types": []})
        with pytest.raises(SpecError):
            spec_from_dict({"types": [{}], "budget": 1})
        with pytest.raises(SpecError):
            spec_from_dict(
                {
                    "types": [
                        {
                            "name": "x",
                            "speedup": {"kind": "amdahl", "p": 0.5},
                            "arrival_rate": 1,
                            "size_dist": {"kind": "exponential"},
                        }
                    ],
                    "budget": 1,
                }
            )


class TestTraceType:
    def test_unsorted_rejected(self):
        with pytest.raises(TraceError):
            Trace(np.array([1.0, 0.5]), np.array([0, 0]), np.array([1.0, 1.0]))

    def test_non_positive_size_rejected(self):
        with pytest.raises(TraceError):
            Trace(np.array([0.5]), np.array([0]), np.array([0.0]))

    @pytest.mark.parametrize("t, x", [(np.inf, 1.0), (0.5, np.inf), (np.nan, 1.0), (0.5, np.nan)])
    def test_non_finite_rejected(self, t, x):
        with pytest.raises(TraceError, match="finite"):
            Trace(np.array([0.0, t]), np.array([0, 0]), np.array([1.0, x]))

    def test_type_bounds_checked_against_spec(self):
        spec = one_type_spec()
        tr = Trace(np.array([1.0]), np.array([3]), np.array([1.0]))
        with pytest.raises(TraceError):
            tr.check_against(spec)

    def test_equality_ignores_seed(self):
        a = Trace(np.array([1.0]), np.array([0]), np.array([2.0]), seed=1)
        b = Trace(np.array([1.0]), np.array([0]), np.array([2.0]), seed=9)
        assert a == b


class TestGenerateTrace:
    def test_zero_jobs(self):
        tr = generate_trace(one_type_spec(), 0, seed=1)
        assert len(tr) == 0

    def test_deterministic_in_seed(self, two_type_spec):
        a = generate_trace(two_type_spec, 5000, seed=11)
        b = generate_trace(two_type_spec, 5000, seed=11)
        c = generate_trace(two_type_spec, 5000, seed=12)
        assert a == b
        assert a != c

    def test_exact_count_and_sorted(self, two_type_spec):
        tr = generate_trace(two_type_spec, 2345, seed=0)
        assert len(tr) == 2345
        assert np.all(np.diff(tr.arrival_times) >= 0)

    def test_per_type_interarrivals_exponential(self, two_type_spec):
        tr = generate_trace(two_type_spec, 50_000, seed=2)
        for i in (0, 1):
            ts = tr.arrival_times[tr.type_indices == i]
            gaps = np.diff(ts)
            assert gaps.mean() == pytest.approx(1.0 / 0.4, rel=0.03)
            # exponential: coefficient of variation 1, P(gap > mean) = 1/e
            assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)
            assert (gaps > gaps.mean()).mean() == pytest.approx(1.0 / math.e, abs=0.02)

    def test_periodic_arrivals(self):
        spec = one_type_spec(rate=2.0)
        tr = generate_trace(spec, 100, seed=0, arrivals="periodic")
        np.testing.assert_allclose(np.diff(tr.arrival_times), 0.5, rtol=1e-12)

    def test_two_type_loads_converge(self, two_type_spec):
        tr = generate_trace(two_type_spec, 100_000, seed=42)
        for est in empirical_loads(tr, two_type_spec):
            assert 0.392 <= est.load <= 0.408

    def test_wellbehaved_convergence_in_length(self, two_type_spec):
        # Median absolute load error must not grow as traces get longer.
        lengths = (1_000, 10_000, 100_000)
        medians = []
        for n in lengths:
            errs = []
            for seed in range(20):
                est = empirical_loads(generate_trace(two_type_spec, n, seed=seed), two_type_spec)
                errs.append(abs(est[0].load - 0.4))
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]


class TestEmpiricalLoads:
    def test_direct_ratio(self):
        spec = one_type_spec()
        tr = Trace(np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4, dtype=int), np.full(4, 2.0))
        (est,) = empirical_loads(tr, spec)
        assert est.arrival_rate == pytest.approx(1.0)
        assert est.mean_size == pytest.approx(2.0)
        assert est.load == pytest.approx(2.0)

    def test_zero_horizon_rejected(self):
        spec = one_type_spec()
        tr = Trace(np.array([0.0]), np.array([0]), np.array([1.0]))
        with pytest.raises(TraceError):
            empirical_loads(tr, spec)

    def test_empty_rejected(self):
        spec = one_type_spec()
        with pytest.raises(TraceError):
            empirical_loads(Trace(np.array([]), np.array([], dtype=int), np.array([])), spec)

    def test_absent_type_reports_zeros(self, two_type_spec):
        tr = Trace(np.array([1.0, 2.0]), np.array([0, 0]), np.array([1.0, 1.0]))
        ests = empirical_loads(tr, two_type_spec)
        assert ests[1] == pytest.approx((0.0, 0.0, 0.0)) or (
            ests[1].arrival_rate == 0 and ests[1].load == 0
        )


class TestTraceFiles:
    def test_single_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n0.5,0,1.25\n", encoding="utf-8")
        tr = read_trace(p)
        assert len(tr) == 1
        assert tr.arrival_times[0] == 0.5
        assert tr.type_indices[0] == 0
        assert tr.sizes[0] == 1.25

    def test_unsorted_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n2.0,0,1\n1.0,0,1\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 3"):
            read_trace(p)

    def test_negative_size_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n1.0,0,-2\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 2"):
            read_trace(p)

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n1.0,0\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 2"):
            read_trace(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,type,size\n", encoding="utf-8")
        with pytest.raises(TraceError, match="line 1"):
            read_trace(p)

    def test_roundtrip_large_trace(self, tmp_path, two_type_spec):
        tr = generate_trace(two_type_spec, 100_000, seed=9)
        p = tmp_path / "big.csv"
        write_trace(tr, p)
        back = read_trace(p)
        assert back == tr  # bit-exact round trip

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "nope.csv")
