import dataclasses
import io
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
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
from gpurental import workload
from randspecs import random_spec


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
            ys = xs * pdf  # the trapezoid rule, spelled out for numpy 1.x and 2.x alike
            numeric = float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0))
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

    @pytest.mark.parametrize(
        "family, params",
        [(Weibull, (0.005, 1.0)), (BoundedPareto, (30.5, 1e-12, 2e-12)),
         (BoundedPareto, (1e-300, 1.0, 100.0))],
        ids=["weibull-gamma-overflows", "bounded-pareto-power-overflows",
             "bounded-pareto-normaliser-is-zero"],
    )
    def test_mean_past_a_double_refused(self, family, params):
        # The family refuses it as it is built, before any JobType sees it.
        with pytest.raises(SpecError, match="^size distribution mean is not positive "
                                            "and finite$"):
            JobType("a", Amdahl(0.5), 1.0, family(*params))

    @pytest.mark.parametrize("family, params, reason", [
        (Deterministic, (0.0,), "deterministic size must be positive"),
        (Exponential, (math.nan,), "size distribution parameters must be finite"),
        (BoundedPareto, (1.0, 1.0, math.inf), "size distribution parameters must be finite"),
        (BoundedPareto, (1.0, 2.0, 1.0), "bounded pareto needs shape > 0 and 0 < min < max"),
        (Weibull, (-math.inf, 1.0), "size distribution parameters must be finite"),
        (Weibull, (1.0, -1.0), "weibull needs positive shape and scale"),
    ], ids=["deterministic", "exponential-nan", "pareto-inf", "pareto-order", "weibull-inf",
            "weibull-scale"])
    def test_family_refuses_its_parameters_when_built(self, family, params, reason):
        # Finiteness is checked before the family's own rule.
        with pytest.raises(SpecError, match=f"^{re.escape(reason)}$"):
            family(*params)

    def test_mean_computed_once(self, monkeypatch):
        calls, gamma = [], math.gamma
        monkeypatch.setattr(math, "gamma", lambda x: calls.append(x) or gamma(x))
        spec = one_type_spec(Weibull(0.8, 1.0))
        assert spec.total_load == spec.types[0].size_dist.mean == gamma(1.0 + 1.0 / 0.8)
        assert len(calls) == 1

    def test_load_overflow_refused(self):
        with pytest.raises(SpecError, match="^type 'a': load arrival_rate \\* mean size overflows$"):
            JobType("a", Amdahl(0.5), 1e10, Deterministic(1e300))

    def test_mean_response_rounded_past_a_double_refused(self):
        # Each type's mean size / s(1) is the largest double, and so is
        # their rate-weighted mean, but it rounds past it as computed.
        big = Deterministic(1.7976931348623157e308)
        types = (JobType("a", PowerLaw(0.5), 0.1, big),
                 JobType("b", PowerLaw(0.5), 0.15838287025480557, big))
        with pytest.raises(SpecError, match="^mean response time at width 1 overflows$"):
            WorkloadSpec(types, budget=1.0)

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

    def test_spec_from_dict_reads_every_size_kind(self):
        dists = [
            ({"kind": "deterministic", "x": 2}, Deterministic(2.0)),
            ({"kind": "exponential", "mean": 1.5}, Exponential(1.5)),
            ({"kind": "bounded_pareto", "shape": 1.5, "min": 1, "max": 100},
             BoundedPareto(1.5, 1.0, 100.0)),
            ({"kind": "weibull", "shape": 0.5, "scale": 2}, Weibull(0.5, 2.0)),
        ]
        doc = {
            "types": [
                {"name": f"t{i}", "speedup": {"kind": "amdahl", "p": 0.5}, "arrival_rate": 0.1,
                 "size_dist": obj}
                for i, (obj, _) in enumerate(dists)
            ],
            "budget": 10,
        }
        spec = spec_from_dict(doc)
        assert [t.size_dist for t in spec.types] == [dist for _, dist in dists]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
           kinds=st.lists(st.integers(0, 3), min_size=12, max_size=12))
    def test_derived_values_are_the_expressions_they_replace(self, seed, m, kinds):
        # Derived once at construction, each value has the bits of the
        # expression that computed it on every read before; up to 12 types,
        # so numpy's pairwise sum (past 7 terms) is met too.
        rng = np.random.default_rng(seed)
        dists = (Deterministic(float(rng.uniform(0.5, 2.0))),
                 Exponential(float(rng.uniform(0.5, 2.0))),
                 BoundedPareto(float(rng.uniform(0.5, 3.0)), 1.0, float(rng.uniform(2.0, 50.0))),
                 Weibull(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 2.0))))
        base = random_spec(rng, m, with_tabular=True)
        types = tuple(dataclasses.replace(t, size_dist=dists[k]) for t, k in zip(base.types, kinds))
        spec = WorkloadSpec(types, budget=base.budget)
        for t in types:
            assert t.load == t.arrival_rate * t.size_dist.mean
            assert t.least_usage == t.load / float(t.speedup._value(1.0))
        assert spec.loads.tobytes() == np.array([t.arrival_rate * t.size_dist.mean
                                                 for t in types]).tobytes()
        least = [t.arrival_rate * t.size_dist.mean / float(t.speedup._value(1.0)) for t in types]
        assert spec.total_load == float(np.array(least).sum())
        assert spec.total_rate == float(np.array([t.arrival_rate for t in types]).sum())

        # perfbench's _with_budget: a replaced spec derives values of its own.
        other = dataclasses.replace(spec, budget=2.0 * spec.budget)
        assert other.loads is not spec.loads and other.loads.tobytes() == spec.loads.tobytes()
        assert (other.total_load, other.total_rate) == (spec.total_load, spec.total_rate)
        first = dataclasses.replace(spec, types=types[:1])
        assert first.loads.tolist() == [types[0].load]
        assert (first.total_load, first.total_rate) == (least[0], types[0].arrival_rate)
        faster = dataclasses.replace(types[0], arrival_rate=2.0 * types[0].arrival_rate)
        assert faster.load == 2.0 * types[0].arrival_rate * types[0].size_dist.mean

    def test_loads_are_read_only(self):
        spec = one_type_spec()
        with pytest.raises(ValueError, match="read-only"):
            spec.loads[0] = 2.0
        assert spec.loads.tolist() == [1.0]

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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(TraceError, match="^arrival_times, type_indices and sizes must have"):
            Trace(np.array([0.0, 1.0]), np.array([0]), np.array([1.0]))

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


class TestGenerateTrace:
    def test_zero_jobs(self):
        tr = generate_trace(one_type_spec(), 0, seed=1)
        assert len(tr) == 0

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(SpecError, match="^unknown arrival process 'bursty'$"):
            generate_trace(one_type_spec(), 10, seed=1, arrivals="bursty")

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

    @pytest.mark.parametrize("data, line", [
        (b"arrival_time,type,size\n1.0,0,1.0\n2.0,0,\xe9\n", 3),
        (b"arrival_time,type,siz\xe9\n1.0,0,1.0\n", 1),
        (b"arrival_time,type,size\r1.0,0,1.0\r\r2.0,0,1\xe9\r", 4),
        (b"arrival_time,type,size\r\n1.0,0,1.0\r\n \r\n2.0,\xe9,1.0\r\n", 4),
    ], ids=["row", "header", "cr-and-blank-line", "crlf-and-blank-line"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line):
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        for read in (read_trace, workload._scan_trace):
            with pytest.raises(TraceError, match=f"^line {line}: byte 0xe9 is not UTF-8$"):
                read(p)

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_ends_and_blank_lines_read_alike(self, tmp_path, end):
        p = tmp_path / "t.csv"
        p.write_bytes(end.join(["arrival_time,type,size", "0.5,0,1.25", "", " ", "1.5,1,2.0",
                                ""]).encode("utf-8"))
        assert read_trace(p) == Trace(np.array([0.5, 1.5]), np.array([0, 1]),
                                      np.array([1.25, 2.0]))

    def test_a_byte_order_mark_is_not_the_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes("\ufeffarrival_time,type,size\n0.5,0,1.25\n".encode("utf-8"))
        with pytest.raises(TraceError) as exc:
            read_trace(p)
        assert str(exc.value) == ("line 1: expected header 'arrival_time,type,size', "
                                  "got '\\ufeffarrival_time,type,size'")

    def test_roundtrip_large_trace(self, tmp_path, two_type_spec):
        tr = generate_trace(two_type_spec, 100_000, seed=9)
        p = tmp_path / "big.csv"
        write_trace(tr, p)
        back = read_trace(p)
        assert back == tr  # bit-exact round trip

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path / "nope.csv")

    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 28])  # blocks of 7 rows
    def test_blocks_match_per_row_repr(self, tmp_path, monkeypatch, two_type_spec, rows):
        monkeypatch.setattr(workload, "_BLOCK_ROWS", 7)
        tr = generate_trace(two_type_spec, rows, seed=2)
        p = tmp_path / "t.csv"
        write_trace(tr, p)
        reference = "arrival_time,type,size\n" + "".join(
            f"{t!r},{ty},{x!r}\n"
            for t, ty, x in zip(tr.arrival_times.tolist(), tr.type_indices.tolist(),
                                tr.sizes.tolist())
        )
        assert p.read_bytes() == reference.encode("utf-8")
        assert read_trace(p) == tr

    def test_memory_does_not_grow_with_rows(self, tmp_path, two_type_spec):
        # One block of Python numbers is alive at a time: ~0.6 MB for 8192
        # rows, where the whole trace's would be ~7 MB.
        tr = generate_trace(two_type_spec, 100_000, seed=9)
        tracemalloc.start()
        try:
            write_trace(tr, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_a_writer_child_holds_its_range_once(self, two_type_spec):
        # What a forked trace writer runs, here on a range of 100k rows, ~4
        # MB of text: each block is encoded into the one buffer it sends as
        # the block is made.  Joining the range's text and then encoding it
        # would hold the range about three times.
        tr = generate_trace(two_type_spec, 100_000, seed=9)
        tracemalloc.start()
        try:
            sent = workload._write_range(io.BytesIO(), 0, len(tr), workload._BLOCK_ROWS,
                                         lambda lo, hi: workload._trace_block(tr, lo, hi))
            sent = sent.getbuffer()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(sent)
        assert bytes(sent) == workload._trace_block(tr, 0, len(tr)).encode("utf-8")


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

    def test_text_past_a_parse_fault_is_not_decoded(self, tmp_path):
        # The scanner stops at the parse fault on line 6; naming the earlier
        # faulty row, past a blank line, must not read on to the bytes that
        # are not UTF-8, thousands of lines later.
        rows = ["0.5,0,1.0", "", "0.6,0,-1.0", "0.7,0,1.0", "bad"]
        rows += [f"{1.0 + i!r},0,1.0" for i in range(3000)]
        p = tmp_path / "t.csv"
        p.write_bytes(("arrival_time,type,size\n" + "\n".join(rows) + "\n").encode()
                      + b"\xff\xfe,0,1\n")
        with pytest.raises(TraceError, match="^line 4: size -1.0 is not positive and finite$"):
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

    def test_header_only_file_is_empty_without_warning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr = read_trace(p)
        assert caught == [] and len(tr) == 0
        assert [a.dtype for a in (tr.arrival_times, tr.type_indices, tr.sizes)] == [
            np.float64, np.int64, np.float64]

    def test_blank_body_is_empty_without_warning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n\n  \n\t\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr = read_trace(p)
        assert caught == [] and len(tr) == 0

    def test_parses_under_the_process_warning_filters(self, tmp_path, two_type_spec,
                                                      monkeypatch):
        # The filters are process-wide: swapping them while numpy parses
        # would change them for every other thread.
        filters = list(warnings.filters)
        real = np.loadtxt

        def loadtxt(*args, **kwargs):
            assert warnings.filters == filters
            return real(*args, **kwargs)

        monkeypatch.setattr(workload.np, "loadtxt", loadtxt)
        p = tmp_path / "t.csv"
        write_trace(generate_trace(two_type_spec, 50, seed=1), p)
        for text in (p.read_text(encoding="utf-8"), "arrival_time,type,size\n1.0,1.0,2.0\n"):
            p.write_text(text, encoding="utf-8")
            try:
                read_trace(p)
            except TraceError:
                pass
        assert warnings.filters == filters

    def test_float_type_field_is_refused(self, tmp_path):
        # numpy 1.x reads 1.0 into an int column with only a DeprecationWarning.
        p = tmp_path / "t.csv"
        p.write_text("arrival_time,type,size\n1.0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(TraceError, match=r"^line 2: could not parse row '1\.0,1\.0,2\.0'$"):
            read_trace(p)

    @pytest.mark.skipif(not workload._C_READER,
                        reason="numpy 1.x reads every file with the line scanner")
    def test_valid_file_is_not_rescanned(self, tmp_path, two_type_spec, monkeypatch):
        def rescan(path):
            raise AssertionError("a valid file was rescanned")

        monkeypatch.setattr(workload, "_scan_trace", rescan)
        tr = generate_trace(two_type_spec, 500, seed=4)
        p = tmp_path / "t.csv"
        write_trace(tr, p)
        text = p.read_text(encoding="utf-8")
        p.write_bytes((text.replace("\n", "\r\n", 3) + "\n").encode("utf-8"))
        assert read_trace(p) == tr


# Field texts for the two trace readers to agree on: odd spellings of valid
# values and values or spellings that one of them refuses.  "\udce9" is
# written as the byte 0xe9, which is not UTF-8.
ODD_FLOATS = ["-0", "+0", "1_0", "\u0661", "\u00b2", " 2.5 ", "\u20032.5", "1e400", "1e-400",
              "nan", "inf", "-inf", "Infinity", "#1", '"1"', "0x1p3", "1 0", "", "1\udce9"]
ODD_TYPES = ["-0", "+0", "1_0", "\u0661", " 1 ", "1.0", "1e0", "nan", str(2**63),
             str(-(2**63)), "#0", '"0"', "0x1", "", "\udce9"]
SKIPPED_LINES = ["", " ", "\t", "\x0c", "\x1c", "\u3000", "# comment", '""']
NEWLINES = ["\n", "\r\n", "\r"]


@st.composite
def trace_files(draw):
    """The text of a trace file: rows that are mostly valid, spelled oddly or
    broken at one per-file rate, lines that may look skippable between them
    at another, and mixed line endings."""
    n = draw(st.integers(0, 12))
    odd_rate = draw(st.sampled_from([0, 0, 1, 4]))  # in 40ths of a field
    skip_rate = draw(st.sampled_from([0, 4, 12]))  # in 40ths of a row
    times = sorted(draw(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(0.0, 1e6),
                                 min_size=n, max_size=n)))

    def field(valid, odd):
        return draw(st.sampled_from(odd) if draw(st.integers(0, 39)) < odd_rate else valid)

    lines = ["arrival_time,type,size"]
    for t in times:
        if draw(st.integers(0, 39)) < skip_rate:
            lines.append(draw(st.sampled_from(SKIPPED_LINES)))
        fields = [
            field(st.just(repr(t)), ODD_FLOATS),
            field(st.integers(0, 3).map(str) | st.just(str(2**63 - 1)), ODD_TYPES),
            field(st.floats(1e-3, 1e3).map(repr), ODD_FLOATS),
        ]
        cut = draw(st.integers(0, 39)) < odd_rate
        extra = draw(st.integers(0, 39)) < odd_rate
        lines.append(",".join(fields[:2] if cut else fields + ["1"] * extra))
    ends = [draw(st.sampled_from(NEWLINES)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no newline after the last line
    return "".join(line + end for line, end in zip(lines, ends))


def _read_outcome(read, path):
    """The trace's column dtypes and bytes, or the refusal's message and line."""
    try:
        tr = read(path)
    except TraceError as exc:
        return str(exc), exc.line
    return [(a.dtype.str, a.tobytes()) for a in (tr.arrival_times, tr.type_indices, tr.sizes)]


class TestTraceReaders:
    """``read_trace`` parses with numpy's C reader and falls back to the line
    scanner ``workload._scan_trace``; on any file the two must agree."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=trace_files())
    def test_fast_reader_agrees_with_line_scanner(self, tmp_path, text):
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert _read_outcome(read_trace, p) == _read_outcome(workload._scan_trace, p)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=trace_files(), cpus=st.integers(2, 4), range_bytes=st.sampled_from([1, 16, 64]))
    # A range that holds only a whitespace line: numpy refuses that line, so
    # the ranges, like one range, send the file to the scanner.
    @example(text="arrival_time,type,size\n0.0,9223372036854775807,1.0\n0.0,0,1.0147994494625436\r"
                  "0.0,9223372036854775807,1.7444452639994097\n \n0.0,9223372036854775807,"
                  "1.6336317857727636\n0.0,0,1.095183793577121\n0.0,9223372036854775807,1.0\n",
             cpus=4, range_bytes=1)
    def test_ranges_read_what_one_range_reads(self, tmp_path, text, cpus, range_bytes):
        # With ranges of a few bytes, the cuts land between any two lines,
        # among blank and faulty ones, and ranges may hold no row at all:
        # numpy, which warns on those, must not see them.  Forked children
        # inherit the warning filters, so a warning there fails too.  A file
        # that one range reads without the line scanner, the ranges read
        # without it too.
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        scans, scan = [], workload._scan_trace

        def counted_scan(path):
            scans.append(path)
            return scan(path)

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(workload, "_RANGE_BYTES", range_bytes)
            mp.setattr(workload, "_scan_trace", counted_scan)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = _read_outcome(read_trace, p)
            serial_scans = len(scans)
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert _read_outcome(read_trace, p) == serial
            assert len(scans) == 2 * serial_scans
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
