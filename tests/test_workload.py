import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
    def test_budget_positive_and_finite(self, budget):
        with pytest.raises(SpecError, match=f"^budget must be positive and finite, got {budget}$"):
            one_type_spec(budget=budget)

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


# Values that stress the text round trip: ties, zero, subnormals, the
# largest finite double.
EDGE_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1.0, 1.7976931348623157e308]


@st.composite
def valid_traces(draw, min_size=0):
    n = draw(st.integers(min_size, 20))
    floats = st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e300)
    times = sorted(draw(st.lists(floats, min_size=n, max_size=n)))
    types = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
    sizes = draw(
        st.lists((st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e308)).filter(bool),
                 min_size=n, max_size=n)
    )
    return Trace(np.array(times), np.array(types, dtype=np.int64), np.array(sizes))


# One fault per case: (name, column, value) for a value rule; a text edit
# of the row for the parse faults.
VALUE_FAULTS = [
    ("negative arrival", 0, -1.0),
    ("nan arrival", 0, math.nan),
    ("infinite arrival", 0, math.inf),
    ("decreasing arrival", 0, None),
    ("negative type", 1, -1),
    ("zero size", 2, 0.0),
    ("negative size", 2, -2.5),
    ("nan size", 2, math.nan),
    ("infinite size", 2, math.inf),
]
TEXT_FAULTS = {
    "too few fields": lambda row: row.rsplit(",", 1)[0],
    "too many fields": lambda row: row + ",1",
    "unparsable field": lambda row: row.replace(",", ",x", 1),
    "type beyond int64": lambda row: re.sub(",[^,]*,", f",{2**63},", row, count=1),
}


class TestTraceBoundary:
    """Property tests for trace files: exact round trips, and the first bad
    row named by its line in the file and by its index in ``Trace``."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tr=valid_traces())
    def test_write_then_read_is_bit_exact(self, tmp_path, tr):
        p = tmp_path / "t.csv"
        write_trace(tr, p)
        back = read_trace(p)
        for col in ("arrival_times", "type_indices", "sizes"):
            a, b = getattr(tr, col), getattr(back, col)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), col

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), tr=valid_traces(min_size=1),
           fault=st.sampled_from([f[0] for f in VALUE_FAULTS] + list(TEXT_FAULTS)))
    def test_first_bad_row_is_named(self, tmp_path, data, tr, fault):
        n = len(tr)
        r = data.draw(st.integers(0, n - 1), label="row")
        blanks = data.draw(st.integers(0, 2), label="blank lines before the row")
        cols = [tr.arrival_times.tolist(), tr.type_indices.tolist(), tr.sizes.tolist()]
        value = next((f for f in VALUE_FAULTS if f[0] == fault), None)
        if value is not None:
            _, col, v = value
            if v is None:  # just below the previous arrival
                assume(r > 0 and cols[0][r - 1] > 0.0)
                v = float(np.nextafter(cols[0][r - 1], 0.0))
            cols[col][r] = v
        lines = [f"{t!r},{ty},{x!r}" for t, ty, x in zip(*cols)]
        if value is None:
            lines[r] = TEXT_FAULTS[fault](lines[r])
        at = data.draw(st.integers(0, r), label="blank line position")
        lines[at:at] = [""] * blanks
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(["arrival_time,type,size"] + lines) + "\n", encoding="utf-8")

        with pytest.raises(TraceError) as from_file:
            read_trace(p)
        assert from_file.value.line == r + 2 + blanks
        if value is not None:
            with pytest.raises(TraceError) as from_arrays:
                Trace(np.array(cols[0]), np.array(cols[1], dtype=np.int64), np.array(cols[2]))
            reason = str(from_arrays.value).removeprefix(f"row {r}: ")
            assert str(from_arrays.value) == f"row {r}: {reason}"
            assert str(from_file.value) == f"line {r + 2 + blanks}: {reason}"
            if not math.isfinite(v):
                assert "finite" in reason

    def test_negative_type_index_rejected(self):
        with pytest.raises(TraceError, match="row 1: negative type index -1"):
            Trace(np.array([0.0, 1.0]), np.array([0, -1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [0.7, math.nan, math.inf, -0.5, 1e30])
    def test_non_integral_type_index_rejected(self, bad):
        reason = f"row 1: type index {bad} is not an int64 integer"
        with pytest.raises(TraceError, match=f"^{re.escape(reason)}$"):
            Trace([0.0, 1.0], [1.0, bad], [1.0, 1.0])

    def test_integral_float_type_index_accepted(self):
        tr = Trace([0.0, 1.0], [1.0, 0.0], [1.0, 1.0])
        assert tr.type_indices.dtype == np.int64
        assert tr.type_indices.tolist() == [1, 0]

    def test_earlier_value_fault_beats_later_parse_fault(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n2.0,0,1\n1.0,0,1\n3.0,0,1\n4.0,zero,1\n",
                     encoding="utf-8")
        with pytest.raises(TraceError, match="^line 3: arrival time 1.0 is before previous 2.0"):
            read_trace(p)

    def test_parse_fault_named_when_rows_before_it_pass(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n1.0,0,1\n\n2.0,zero,1\n0.5,0,1\n",
                     encoding="utf-8")
        with pytest.raises(TraceError, match="^line 4: could not parse row"):
            read_trace(p)

    def test_line_after_blank_lines(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n\n1.0,0,1\n\n\n2.0,-1,1\n", encoding="utf-8")
        with pytest.raises(TraceError, match="^line 6: negative type index -1"):
            read_trace(p)
