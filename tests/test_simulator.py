import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpurental import (
    Amdahl,
    Deterministic,
    Exponential,
    FixedWidth,
    InstabilityError,
    JobType,
    PowerLaw,
    SmallestRemainingFirst,
    SpecError,
    StaticClusterEqualSplit,
    Tabular,
    Trace,
    WorkloadSpec,
    budget_timeseries,
    budget_usage,
    compare_policies,
    generate_trace,
    objective,
    simulate,
    solve_allocation,
)
from gpurental import simulator
from gpurental.simulator import _k_steps, _replay, _replay_cluster
from reference_replay import _replay_cluster as reference_replay_cluster

ALL_POLICIES = [
    FixedWidth((3.0, 5.0)),
    FixedWidth((2.0, 2.0)),
    StaticClusterEqualSplit(4.0),
    SmallestRemainingFirst(4.0, 3.0),
]


def empty_trace():
    return Trace(np.array([]), np.array([], dtype=int), np.array([]))


@st.composite
def tie_heavy_traces(draw):
    """1-12 jobs of the two-type spec whose arrival times and sizes come from
    small sets, so that simultaneous arrivals and equal sizes are common."""
    n = draw(st.integers(1, 12))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                                 min_size=n, max_size=n)))
    types = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 1.05, 2.0, 3.0]),
                          min_size=n, max_size=n))
    return Trace(np.array(times), np.array(types), np.array(sizes))


@st.composite
def spread_out_traces(draw):
    """1-14 jobs of the two-type spec with gaps from none to long, so that
    jobs that run alone alternate with busy periods, and solo durations
    (size / s(first)) often equal a gap exactly."""
    n = draw(st.integers(1, 14))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 10.0]) | st.floats(0.0, 10.0),
                         min_size=n, max_size=n))
    types = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sizes = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]) | st.floats(0.01, 5.0),
                          min_size=n, max_size=n))
    return Trace(np.cumsum(gaps), np.array(types), np.array(sizes))


def pool_sizes(lo, hi):
    return st.sampled_from([float(c) for c in range(lo, hi + 1)]) | st.floats(lo, hi)


def assert_work_conserved(tr, spec):
    for pol in ALL_POLICIES:
        rep = _replay(tr, spec, pol)
        err = np.abs(rep.work_done - tr.sizes)
        assert np.all(err <= 1e-9 * np.maximum(1.0, tr.sizes)), type(pol).__name__


def replay_arrays(tr, rep):
    """A replay's per-job arrays and its K(t) steps, named as the reference
    oracle names them."""
    seg_times, seg_k = _k_steps(tr, rep)
    return {
        "completions": rep.completions,
        "gpu_hours": rep.gpu_hours,
        "work_done": rep.work_done,
        "seg_times": seg_times,
        "seg_k": seg_k,
    }


def assert_same_replay(a, b):
    assert a.keys() == b.keys()
    for field in a:
        assert np.array_equal(a[field], b[field]), field


class TestPolicyTypes:
    def test_width_bounds(self):
        with pytest.raises(SpecError):
            FixedWidth((0.5, 2.0))
        with pytest.raises(SpecError):
            FixedWidth((0.0, 0.0))
        with pytest.raises(SpecError):
            StaticClusterEqualSplit(0.9)
        with pytest.raises(SpecError):
            SmallestRemainingFirst(4.0, 0.5)
        for v in (np.nan, np.inf):
            for make in (
                lambda: FixedWidth((v, 2.0)),
                lambda: StaticClusterEqualSplit(v),
                lambda: SmallestRemainingFirst(v, 2.0),
                lambda: SmallestRemainingFirst(8.0, v),
            ):
                with pytest.raises(SpecError, match="finite and >= 1"):
                    make()

    def test_cap_equal_to_pool_grants_like_the_pool(self, two_type_spec):
        # An infinite cap is refused; a cap equal to the pool grants
        # min(C, left) = left, as any larger cap does, bit for bit.
        tr = generate_trace(two_type_spec, 300, seed=8)
        a = _replay(tr, two_type_spec, SmallestRemainingFirst(3.5, 3.5))
        b = _replay(tr, two_type_spec, SmallestRemainingFirst(3.5, 1e300))
        assert_same_replay(replay_arrays(tr, a), replay_arrays(tr, b))

    def test_dimension_mismatch_detected(self, two_type_spec):
        # An empty trace is no exception.
        for tr in (Trace(np.array([0.0]), np.array([0]), np.array([1.0])), empty_trace()):
            with pytest.raises(SpecError, match="^policy has 1 widths but workload has 2 types$"):
                simulate(tr, two_type_spec, FixedWidth((2.0,)))
            with pytest.raises(SpecError, match="^policy has 1 widths but workload has 2 types$"):
                budget_timeseries(tr, two_type_spec, FixedWidth((2.0,)), 0.5)

    def test_trace_spec_mismatch(self, two_type_spec):
        tr = Trace(np.array([0.0]), np.array([7]), np.array([1.0]))
        with pytest.raises(Exception):
            simulate(tr, two_type_spec, FixedWidth((1.0, 1.0)))


class TestFixedWidth:
    def test_empty_trace(self, two_type_spec):
        m = simulate(empty_trace(), two_type_spec, FixedWidth((1.0, 1.0)))
        assert m.job_count == 0
        assert m.mean_response_time is None
        assert m.time_avg_budget == 0.0
        assert m.total_gpu_hours == 0.0

    def test_single_job(self, two_type_spec):
        # type 1 (sqrt speedup), size 2, k=4: response 2/sqrt(4)=1, 4 GPU-hours
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))
        m = simulate(tr, two_type_spec, FixedWidth((1.0, 4.0)))
        assert m.mean_response_time == pytest.approx(1.0)
        assert m.total_gpu_hours == pytest.approx(4.0)
        assert m.time_avg_budget == pytest.approx(4.0)

    def test_no_queueing(self, two_type_spec):
        tr = generate_trace(two_type_spec, 500, seed=3)
        ks = np.array([3.0, 5.0])
        m = simulate(tr, two_type_spec, FixedWidth(tuple(ks)))
        speeds = np.array([t.speedup(k) for t, k in zip(two_type_spec.types, ks)])
        expected = tr.arrival_times + tr.sizes / speeds[tr.type_indices]
        np.testing.assert_allclose(m.per_job[:, 1], expected, rtol=1e-12)

    def test_uniform_one_gives_mean_size(self, two_type_spec):
        tr = generate_trace(two_type_spec, 5000, seed=4)
        m = simulate(tr, two_type_spec, FixedWidth((1.0, 1.0)))
        assert m.mean_response_time == pytest.approx(float(tr.sizes.mean()), rel=1e-12)

    def test_identities_converge(self, two_type_spec):
        alloc = solve_allocation(two_type_spec)
        tr = generate_trace(two_type_spec, 50_000, seed=1)
        m = simulate(tr, two_type_spec, FixedWidth(alloc.ks))
        assert m.time_avg_budget == pytest.approx(budget_usage(two_type_spec, alloc.ks), rel=0.02)
        assert m.mean_response_time == pytest.approx(objective(two_type_spec, alloc.ks), rel=0.02)

    def test_budget_identity_error_shrinks_with_length(self, two_type_spec):
        ks = (4.0, 6.0)
        analytic = budget_usage(two_type_spec, ks)
        medians = []
        for n in (1_000, 10_000, 100_000):
            errs = []
            for seed in range(20):
                tr = generate_trace(two_type_spec, n, seed=seed)
                m = simulate(tr, two_type_spec, FixedWidth(ks), collect_per_job=False)
                errs.append(abs(m.time_avg_budget - analytic) / analytic)
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_response_identity_error_shrinks_with_length(self, two_type_spec):
        ks = (4.0, 6.0)
        analytic = objective(two_type_spec, ks)
        medians = []
        for n in (1_000, 10_000, 100_000):
            errs = []
            for seed in range(20):
                tr = generate_trace(two_type_spec, n, seed=seed)
                m = simulate(tr, two_type_spec, FixedWidth(ks), collect_per_job=False)
                errs.append(abs(m.mean_response_time - analytic) / analytic)
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]


class TestDynamicPolicies:
    def test_equal_split_single_job_uses_whole_cluster(self, two_type_spec):
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))
        m = simulate(tr, two_type_spec, StaticClusterEqualSplit(4.0))
        # alone in the cluster: k=4, sqrt speedup, response 1
        assert m.mean_response_time == pytest.approx(1.0)
        assert m.total_gpu_hours == pytest.approx(4.0)

    def test_equal_split_two_jobs_share(self, two_type_spec):
        # both sqrt type, cluster of 4, both present from t=0: each runs at
        # s(2)=sqrt(2) until the small one finishes.
        tr = Trace(np.array([0.0, 0.0]), np.array([1, 1]), np.array([1.0, 10.0]))
        m = simulate(tr, two_type_spec, StaticClusterEqualSplit(4.0))
        t_first = 1.0 / np.sqrt(2.0)
        rest = 10.0 - np.sqrt(2.0) * t_first
        t_second = t_first + rest / 2.0  # alone afterwards: s(4) = 2
        np.testing.assert_allclose(np.sort(m.per_job[:, 1]), [t_first, t_second], rtol=1e-12)

    def test_fractional_allocation_below_one_gpu(self, two_type_spec):
        # 8 simultaneous sqrt jobs on a cluster of 4: each gets 0.5 GPUs,
        # speed extends linearly below one: 0.5 * s(1) = 0.5.
        tr = Trace(np.zeros(8), np.full(8, 1), np.full(8, 1.0))
        m = simulate(tr, two_type_spec, StaticClusterEqualSplit(4.0))
        # all finish together at t=2 (work 1 at speed 0.5)
        assert m.per_job[:, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "pol", [StaticClusterEqualSplit(4.0), SmallestRemainingFirst(4.0, 1.5)],
        ids=["cluster", "srf"],
    )
    def test_cluster_budget_never_exceeds_c(self, two_type_spec, pol):
        tr = generate_trace(two_type_spec, 3000, seed=8)
        _, ks = _k_steps(tr, _replay(tr, two_type_spec, pol))
        assert ks.max() <= 4.0 + 1e-9

    def test_srf_grants_and_queueing(self, two_type_spec):
        # cluster 2, cap 2: the smaller job takes both GPUs, larger waits.
        tr = Trace(np.array([0.0, 0.0]), np.array([1, 1]), np.array([1.0, 4.0]))
        m = simulate(tr, two_type_spec, SmallestRemainingFirst(2.0, 2.0))
        t_first = 1.0 / np.sqrt(2.0)
        t_second = t_first + 4.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.sort(m.per_job[:, 1]), [t_first, t_second], rtol=1e-12)

    def test_srf_splits_pool_leftover(self, two_type_spec):
        # cluster 3, cap 2: smallest gets 2, next gets the leftover 1.
        tr = Trace(np.array([0.0, 0.0]), np.array([1, 1]), np.array([1.0, 4.0]))
        times, ks = _k_steps(tr, _replay(tr, two_type_spec, SmallestRemainingFirst(3.0, 2.0)))
        assert ks[np.searchsorted(times, 0.0, side="right") - 1] == pytest.approx(3.0)

    def test_work_conservation_every_policy(self, two_type_spec):
        assert_work_conserved(generate_trace(two_type_spec, 3000, seed=21), two_type_spec)

    @settings(max_examples=100, deadline=None)
    @given(tr=tie_heavy_traces())
    def test_work_conservation_every_policy_on_drawn_traces(self, two_type_spec, tr):
        assert_work_conserved(tr, two_type_spec)

    def test_srf_reranks_only_at_events(self, two_type_spec):
        # srf:7,4 at t=0: the size-1 sqrt job ranks first and gets 4 GPUs, the
        # size-1.05 Amdahl(0.8) job gets 3.  The latter overtakes at t~0.35
        # but keeps 3 GPUs until it completes at 1.05/s_0(3) = 0.49; the
        # sqrt job then finishes alone on 4 GPUs at 1/s_1(4) = 0.5.
        tr = Trace(np.array([0.0, 0.0]), np.array([1, 0]), np.array([1.0, 1.05]))
        m = simulate(tr, two_type_spec, SmallestRemainingFirst(7.0, 4.0))
        s0_at_3 = 1.0 / (0.2 + 0.8 / 3.0)
        assert m.per_job[1, 1] == pytest.approx(1.05 / s0_at_3, rel=1e-12)
        assert m.per_job[0, 1] == pytest.approx(1.0 / np.sqrt(4.0), rel=1e-12)
        assert 1.05 / s0_at_3 == pytest.approx(0.49, rel=1e-12)

    def test_total_gpu_hours_equals_k_integral(self, two_type_spec):
        tr = generate_trace(two_type_spec, 3000, seed=22)
        for pol in ALL_POLICIES:
            rep = _replay(tr, two_type_spec, pol)
            times, ks = _k_steps(tr, rep)
            integral = float((ks[:-1] * np.diff(times)).sum())
            total = float(rep.gpu_hours.sum())
            assert integral == pytest.approx(total, rel=1e-9), type(pol).__name__

    def test_event_order_independence_on_ties(self, two_type_spec):
        # same multiset of events, tied arrival stamps input in both orders
        times = np.array([0.0, 1.0, 1.0, 2.5])
        a = Trace(times, np.array([0, 0, 1, 1]), np.array([2.0, 1.0, 3.0, 0.5]))
        b = Trace(times, np.array([0, 1, 0, 1]), np.array([2.0, 3.0, 1.0, 0.5]))
        for pol in ALL_POLICIES:
            ma = simulate(a, two_type_spec, pol)
            mb = simulate(b, two_type_spec, pol)
            assert ma.mean_response_time == pytest.approx(mb.mean_response_time, rel=1e-12)
            assert ma.total_gpu_hours == pytest.approx(mb.total_gpu_hours, rel=1e-12)


class TestReplayMatchesReference:
    """The pooled replay, with K(t) built from its arrivals and completions,
    against the loop it replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(tr=tie_heavy_traces(), pool=pool_sizes(1, 8), cap=pool_sizes(1, 4))
    def test_drawn_traces(self, two_type_spec, tr, pool, cap):
        for pol in (StaticClusterEqualSplit(pool), SmallestRemainingFirst(pool, cap)):
            assert_same_replay(
                replay_arrays(tr, _replay_cluster(tr, two_type_spec, pol)),
                reference_replay_cluster(tr, two_type_spec, pol),
            )

    def test_exact_completion_tie_goes_to_earliest_arrival(self, two_type_spec):
        # Under srf:6,3 both jobs get 3 GPUs, and size / speed rounds to the
        # same double for both, yet neither remainder is exactly zero there.
        # The earlier arrival (ranked second) must complete first, as before.
        sizes = np.array([2.2171330912780918, 1.7920873419100867])
        tr = Trace(np.zeros(2), np.array([0, 1]), sizes)
        speeds = np.array([1.0 / (0.2 + 0.8 / 3.0), np.sqrt(3.0)])
        assert sizes[0] / speeds[0] == sizes[1] / speeds[1]
        pol = SmallestRemainingFirst(6.0, 3.0)
        assert_same_replay(
            replay_arrays(tr, _replay_cluster(tr, two_type_spec, pol)),
            reference_replay_cluster(tr, two_type_spec, pol),
        )

    @pytest.mark.parametrize(
        "pol",
        [StaticClusterEqualSplit(8.0), SmallestRemainingFirst(8.0, 4.0),
         StaticClusterEqualSplit(1.25), SmallestRemainingFirst(1.25, 1.0)],
        ids=str,
    )
    def test_generated_trace(self, two_type_spec, pol):
        tr = generate_trace(two_type_spec, 3000, seed=31)
        assert_same_replay(
            replay_arrays(tr, _replay_cluster(tr, two_type_spec, pol)),
            reference_replay_cluster(tr, two_type_spec, pol),
        )


# Three types whose speeds differ at every width, one of them tabular with
# s(1) = 0.5: a job given another type's speed column shows in its output.
THREE_TYPE_SPEC = WorkloadSpec(
    types=(
        JobType("amdahl", Amdahl(0.8), arrival_rate=0.3, size_dist=Exponential(1.0)),
        JobType("sqrt", PowerLaw(0.5), arrival_rate=0.3, size_dist=Exponential(1.0)),
        JobType("tab", Tabular(((1, 0.5), (2, 0.9), (4, 1.5))), arrival_rate=0.3,
                size_dist=Exponential(1.0)),
    ),
    budget=3.0,
)


@st.composite
def three_type_traces(draw):
    """1-12 jobs of THREE_TYPE_SPEC, with tied arrivals and sizes common."""
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 3.0),
                         min_size=n, max_size=n))
    types = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    sizes = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 5.0),
                          min_size=n, max_size=n))
    return Trace(np.cumsum(gaps), np.array(types), np.array(sizes))


class TestOnePassLoop:
    """One pass per event advances the jobs present, re-grants the pool and
    finds the next completion; under SRF only granted jobs advance.  Checked
    against the reference loop, bit for bit, where it can replay."""

    @settings(max_examples=300, deadline=None)
    @given(tr=three_type_traces(), pool=pool_sizes(1, 4),
           cap=st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 2.0))
    def test_three_types_small_pools(self, tr, pool, cap):
        # With up to 12 jobs on at most 4 GPUs, equal-split shares drop
        # below one GPU (a * s(1)), as can the last SRF grant, the pool's
        # leftover; later ranks wait.
        for pol in (StaticClusterEqualSplit(pool), SmallestRemainingFirst(pool, cap)):
            assert_same_replay(
                replay_arrays(tr, _replay_cluster(tr, THREE_TYPE_SPEC, pol)),
                reference_replay_cluster(tr, THREE_TYPE_SPEC, pol),
            )

    @pytest.mark.parametrize(
        "pol", [StaticClusterEqualSplit(2.0), SmallestRemainingFirst(2.0, 1.0)], ids=str
    )
    def test_jobs_that_never_complete(self, pol):
        # Each job holds 1 GPU at s(1) = 0.5, so 1e308 / 0.5 overflows: no
        # completion is finite, under SRF a tie of two infinite times.
        spec = WorkloadSpec(
            (JobType("tab", Tabular(((1, 0.5), (2, 0.9))), 0.1, Deterministic(1.0)),),
            budget=2.0,
        )
        tr = Trace(np.array([1.0, 2.0]), np.array([0, 0]), np.array([1e308, 1e308]))
        rep = _replay_cluster(tr, spec, pol)
        assert rep.completions.tolist() == [np.inf, np.inf]

    @pytest.mark.parametrize(
        "pol", [StaticClusterEqualSplit(2.0), SmallestRemainingFirst(2.0, 1.0)], ids=str
    )
    def test_completion_rounded_past_the_next_arrival(self, two_type_spec, pol):
        # Two sqrt jobs arrive at a and run at s(1) = 1.  The first completes
        # after exactly arr - a, tied with the next arrival, so it goes first,
        # but a + (arr - a) rounds to one ulp past arr.  That arrival is then
        # at or before the clock and advances nothing.  (The reference's K(t)
        # steps then go back in time, so only the per-job arrays compare.)
        a, arr = 0.9014274576114836, 3.0589983033553536
        assert a + (arr - a) > arr
        tr = Trace(np.array([a, a, arr]), np.array([1, 1, 1]), np.array([arr - a, 5.0, 1.0]))
        rep = _replay_cluster(tr, two_type_spec, pol)
        ref = reference_replay_cluster(tr, two_type_spec, pol)
        assert rep.completions[0] > arr
        for field in ("completions", "gpu_hours", "work_done"):
            assert np.array_equal(getattr(rep, field), ref[field]), field

    def test_srf_arrival_sends_a_running_job_to_wait(self, two_type_spec):
        # srf:4,4 grants only the first rank.  The size-4 sqrt job runs at
        # s(4) = 2 until the size-0.5 job arrives at t = 1 and outranks its
        # remaining 2.  The newcomer completes at 1.25; the first job waits
        # meanwhile, then finishes its 2 at speed 2, at 2.25.
        tr = Trace(np.array([0.0, 1.0]), np.array([1, 1]), np.array([4.0, 0.5]))
        pol = SmallestRemainingFirst(4.0, 4.0)
        rep = _replay_cluster(tr, two_type_spec, pol)
        assert_same_replay(replay_arrays(tr, rep),
                           reference_replay_cluster(tr, two_type_spec, pol))
        assert rep.completions.tolist() == [2.25, 1.25]
        assert rep.gpu_hours.tolist() == [8.0, 1.0]
        assert rep.work_done.tolist() == [4.0, 0.5]


class TestBusyPeriods:
    """Jobs that run alone take their solo outcome; the loop runs only on
    busy periods.  Each case is checked against the reference loop, which
    replays every job, bit for bit."""

    # Both grant 4 GPUs to a job alone; two jobs present each get less than
    # that under equal split, and the second in rank gets 2 under SRF.
    POOLED = [StaticClusterEqualSplit(4.0), SmallestRemainingFirst(6.0, 4.0)]

    def assert_matches_reference(self, tr, spec, pol):
        rep = _replay_cluster(tr, spec, pol)
        assert_same_replay(replay_arrays(tr, rep), reference_replay_cluster(tr, spec, pol))
        return rep

    @settings(max_examples=300, deadline=None)
    @given(tr=spread_out_traces(), pool=pool_sizes(1, 8), cap=pool_sizes(1, 4))
    def test_spread_out_traces(self, two_type_spec, tr, pool, cap):
        for pol in (StaticClusterEqualSplit(pool), SmallestRemainingFirst(pool, cap)):
            self.assert_matches_reference(tr, two_type_spec, pol)

    @pytest.mark.parametrize("pol", POOLED, ids=str)
    def test_solo_run_equal_to_the_gap_completes_first(self, two_type_spec, pol):
        # Alone on 4 GPUs a size-2 sqrt job runs at 2 for exactly the gap of
        # 1: it completes as the next job arrives, so that one runs alone too.
        tr = Trace(np.array([0.0, 1.0]), np.array([1, 1]), np.array([2.0, 2.0]))
        rep = self.assert_matches_reference(tr, two_type_spec, pol)
        assert rep.completions.tolist() == [1.0, 2.0]
        assert rep.gpu_hours.tolist() == [4.0, 4.0]
        # One ulp more work and the two share the pool.
        tr = Trace(np.array([0.0, 1.0]), np.array([1, 1]), np.array([np.nextafter(2.0, 3.0), 2.0]))
        rep = self.assert_matches_reference(tr, two_type_spec, pol)
        assert rep.completions[0] > 1.0

    def test_srf_budget_timeseries_when_every_job_runs_alone(self, two_type_spec):
        # The first SRF grant, 4 of the 8 GPUs, is K(t) while a job runs,
        # though the event loop never runs.
        tr = Trace(np.array([0.0, 5.0, 10.0]), np.array([0, 1, 1]), np.array([1.0, 1.0, 3.0]))
        pol = SmallestRemainingFirst(8.0, 4.0)
        self.assert_matches_reference(tr, two_type_spec, pol)
        ts = budget_timeseries(tr, two_type_spec, pol, 0.25)
        ref = reference_replay_cluster(tr, two_type_spec, pol)
        ref_k = ref["seg_k"][np.searchsorted(ref["seg_times"], ts[:, 0], side="right") - 1]
        assert np.array_equal(ts[:, 1], ref_k)
        assert ts[0, 1] == 4.0 and ts[:, 1].max() == 4.0 and ts[-1, 1] == 0.0

    @pytest.mark.parametrize("pol", POOLED, ids=str)
    def test_last_job_alone(self, two_type_spec, pol):
        # Jobs 0 and 1 share the pool; the last job arrives long after.
        tr = Trace(np.array([0.0, 0.1, 5.0]), np.array([1, 0, 1]), np.array([1.0, 1.0, 1.0]))
        rep = self.assert_matches_reference(tr, two_type_spec, pol)
        assert rep.completions[1] > 0.1 + 1.0 / two_type_spec.types[0].speedup(4.0)
        assert rep.completions[2] == 5.0 + 1.0 / 2.0

    @pytest.mark.parametrize("pol", POOLED, ids=str)
    def test_last_job_in_a_busy_period(self, two_type_spec, pol):
        # Job 0 runs alone; jobs 1 and 2 share the pool, and the last job
        # completes after its solo time.
        tr = Trace(np.array([0.0, 5.0, 5.1]), np.array([1, 1, 0]), np.array([1.0, 1.0, 1.0]))
        rep = self.assert_matches_reference(tr, two_type_spec, pol)
        assert rep.completions[0] == 0.5
        assert rep.completions[2] > 5.1 + 1.0 / two_type_spec.types[0].speedup(4.0)

    @pytest.mark.parametrize("pol", POOLED, ids=str)
    def test_empty_trace(self, two_type_spec, pol):
        self.assert_matches_reference(empty_trace(), two_type_spec, pol)
        m = simulate(empty_trace(), two_type_spec, pol)
        assert (m.job_count, m.mean_response_time, m.total_gpu_hours) == (0, None, 0.0)
        assert budget_timeseries(empty_trace(), two_type_spec, pol, 0.5).tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize(
        "pol",
        [StaticClusterEqualSplit(8.0), SmallestRemainingFirst(8.0, 4.0),
         StaticClusterEqualSplit(1.25), SmallestRemainingFirst(1.25, 1.0)],
        ids=str,
    )
    def test_periodic_arrivals(self, two_type_spec, pol):
        tr = generate_trace(two_type_spec, 2000, seed=32, arrivals="periodic")
        self.assert_matches_reference(tr, two_type_spec, pol)


class TestAloneInAPool:
    """A job alone in a pool holds the first grant for its whole run, so it
    replays bit for bit as under a fixed width of that grant: pooled and
    fixed-width replay take their speeds from one evaluator."""

    @staticmethod
    def assert_pooled_matches_fixed(alpha, pool, sizes):
        spec = WorkloadSpec((JobType("pow", PowerLaw(alpha), 0.1, Exponential(1.0)),), budget=2.0)
        # s(k) >= 1, so each job completes within its size, before the next
        # arrival: every job runs alone.
        arrivals = np.cumsum(np.concatenate([[0.0], sizes[:-1] + 1.0]))
        tr = Trace(arrivals, np.zeros(len(sizes), dtype=int), sizes)
        fixed = _replay(tr, spec, FixedWidth((pool,)))
        for pol in (StaticClusterEqualSplit(pool), SmallestRemainingFirst(pool, pool)):
            rep = _replay(tr, spec, pol)
            for field in ("completions", "gpu_hours"):
                assert np.array_equal(getattr(rep, field), getattr(fixed, field)), (pol, field)

    def test_sqrt_on_a_pool_of_56_5(self):
        sizes = np.random.default_rng(21).exponential(1.0, 200)
        self.assert_pooled_matches_fixed(0.5, 56.51989828254439, sizes)

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.05, 1.0), pool=st.floats(1.0, 1e6),
           sizes=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
    def test_drawn_pools_and_exponents(self, alpha, pool, sizes):
        self.assert_pooled_matches_fixed(alpha, pool, np.array(sizes))


def doubled_rates(spec, factor=2.0):
    """spec with every arrival rate multiplied by factor."""
    return WorkloadSpec(
        tuple(JobType(t.name, t.speedup, t.arrival_rate * factor, t.size_dist)
              for t in spec.types),
        budget=spec.budget * factor,
    )


class TestPooledRefusals:
    def test_pool_below_load_refused_before_any_replay(self, two_type_spec, monkeypatch):
        def refuse(*args):
            raise AssertionError("replayed an unstable pool")

        monkeypatch.setattr(simulator, "_replay_cluster", refuse)
        spec = doubled_rates(two_type_spec)  # load 1.6
        tr = generate_trace(spec, 200, seed=3)
        for pol, pool in ((StaticClusterEqualSplit(1.0), "1"),
                          (SmallestRemainingFirst(1.5, 1.0), "1.5")):
            with pytest.raises(InstabilityError, match=f"^total load 1.6 >= budget {pool}$"):
                simulate(tr, spec, pol)
            with pytest.raises(InstabilityError, match=f"^total load 1.6 >= budget {pool}$"):
                budget_timeseries(tr, spec, pol, 1.0)

    def test_pool_equal_to_load_refused(self, two_type_spec):
        spec = doubled_rates(two_type_spec, 1.25)  # load 1.0
        tr = generate_trace(spec, 50, seed=4)
        with pytest.raises(InstabilityError, match="^total load 1 >= budget 1$"):
            simulate(tr, spec, StaticClusterEqualSplit(1.0))
        assert simulate(tr, spec, StaticClusterEqualSplit(1.0 + 1e-9)).job_count == 50

    def test_srf_pool_below_its_usage_at_the_largest_grant_refused(self, two_type_spec,
                                                                   monkeypatch):
        # Load 1.9 passes a pool of 2, but at grant 2 the types use
        # 0.95 * 2 / s(2) each, 2.4835 in all.  Grants of 1 use 1.9.
        spec = WorkloadSpec(
            tuple(JobType(t.name, t.speedup, 0.95, t.size_dist) for t in two_type_spec.types),
            budget=2.0,
        )
        tr = generate_trace(spec, 200, seed=7)
        assert simulate(tr, spec, SmallestRemainingFirst(2.0, 1.0)).job_count == 200
        assert simulate(tr, spec, StaticClusterEqualSplit(2.0)).job_count == 200
        def refuse(*args):
            raise AssertionError("replayed an unstable pool")

        monkeypatch.setattr(simulator, "_replay_cluster", refuse)
        for pol in (SmallestRemainingFirst(2.0, 2.0), SmallestRemainingFirst(2.0, 3.0)):
            with pytest.raises(InstabilityError, match="^usage 2.4835 at grant 2 >= pool 2$"):
                simulate(tr, spec, pol)

    def test_fixed_widths_need_no_pool(self, two_type_spec):
        spec = doubled_rates(two_type_spec)
        tr = generate_trace(spec, 50, seed=5)
        assert simulate(tr, spec, FixedWidth((1.0, 1.0))).job_count == 50

    @pytest.mark.parametrize(
        "pol", [StaticClusterEqualSplit(4.0), SmallestRemainingFirst(8.0, 4.0),
                FixedWidth((4.0, 4.0)), FixedWidth((1.0, 4.0))],
        ids=str,
    )
    def test_infinite_speed_refused(self, two_type_spec, pol):
        # 4**717 overflows a double; 2**717 does not.
        blowup = JobType("steep", PowerLaw(717.0), 0.4, Exponential(1.0))
        spec = WorkloadSpec((two_type_spec.types[0], blowup), budget=2.0)
        tr = generate_trace(spec, 20, seed=6)
        for call in (lambda: simulate(tr, spec, pol),
                     lambda: budget_timeseries(tr, spec, pol, 1.0)):
            with pytest.raises(SpecError, match="^type 'steep': speed at width 4 is not finite$"):
                call()
        assert simulate(tr, spec, FixedWidth((4.0, 2.0))).job_count == 20
        assert simulate(tr, spec, SmallestRemainingFirst(8.0, 2.0)).job_count == 20


class TestCompare:
    def test_identical_policies_identical_metrics(self, two_type_spec):
        tr = generate_trace(two_type_spec, 2000, seed=13)
        res = compare_policies(tr, two_type_spec, [FixedWidth((3.0, 5.0)), FixedWidth((3.0, 5.0))])
        assert res[0][1].mean_response_time == res[1][1].mean_response_time
        assert res[0][1].time_avg_budget == res[1][1].time_avg_budget

    def test_optimal_beats_unit_width(self, two_type_spec):
        tr = generate_trace(two_type_spec, 20_000, seed=14)
        alloc = solve_allocation(two_type_spec)
        res = compare_policies(tr, two_type_spec, [FixedWidth(alloc.ks), FixedWidth((1.0, 1.0))])
        assert res[0][1].mean_response_time <= res[1][1].mean_response_time
        assert res[1][1].mean_response_time == pytest.approx(float(tr.sizes.mean()))

    def test_order_preserved(self, two_type_spec):
        tr = generate_trace(two_type_spec, 100, seed=15)
        pols = [FixedWidth((2.0, 2.0)), FixedWidth((1.0, 1.0))]
        res = compare_policies(tr, two_type_spec, pols)
        assert [p for p, _ in res] == pols


class TestBudgetTimeseries:
    def test_k_built_only_when_sampled(self, two_type_spec, monkeypatch):
        tr = generate_trace(two_type_spec, 200, seed=5)
        k_at, calls = simulator._k_at, []

        def refuse(*args):
            raise AssertionError("K(t) built but not sampled")

        def counted(*args):
            calls.append(args)
            return k_at(*args)

        monkeypatch.setattr(simulator, "_k_at", refuse)
        for pol in ALL_POLICIES:
            simulate(tr, two_type_spec, pol)
        compare_policies(tr, two_type_spec, ALL_POLICIES)
        monkeypatch.setattr(simulator, "_k_at", counted)
        for n, pol in enumerate(ALL_POLICIES, start=1):
            budget_timeseries(tr, two_type_spec, pol, 0.5)
            assert len(calls) == n
        assert all(args[0] is tr for args in calls)

    def test_empty_trace_all_zero(self, two_type_spec):
        ts = budget_timeseries(empty_trace(), two_type_spec, FixedWidth((1.0, 1.0)), 0.5)
        assert np.all(ts[:, 1] == 0.0)

    def test_single_job_step_function(self, two_type_spec):
        # one job on k=4 for exactly 1 hour: K=4 at t in {0, 0.5}, K=0 at t=1
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))
        ts = budget_timeseries(tr, two_type_spec, FixedWidth((1.0, 4.0)), 0.5)
        np.testing.assert_allclose(ts[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(ts[:, 1], [4.0, 4.0, 0.0])

    def test_non_positive_step_rejected(self, two_type_spec):
        tr = Trace(np.array([0.0]), np.array([0]), np.array([1.0]))
        for step in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                budget_timeseries(tr, two_type_spec, FixedWidth((1.0, 1.0)), step)

    def test_sample_count_capped(self, two_type_spec, monkeypatch):
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))  # horizon 1.0
        policy = FixedWidth((1.0, 4.0))
        # Refused before the samples are allocated: numpy could not allocate
        # these counts, and would say so in other words.
        with pytest.raises(ValueError, match="needs 1e\\+20 samples .* more than 10000000"):
            budget_timeseries(tr, two_type_spec, policy, 1e-20)
        with pytest.raises(ValueError, match="needs inf samples"):
            budget_timeseries(tr, two_type_spec, policy, 1e-320)
        monkeypatch.setattr(simulator, "MAX_TIMESERIES_SAMPLES", 3)
        assert len(budget_timeseries(tr, two_type_spec, policy, 0.5)) == 3
        with pytest.raises(ValueError, match="needs 4 samples"):
            budget_timeseries(tr, two_type_spec, policy, 0.49)

    def test_riemann_sum_near_integral(self, two_type_spec):
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))
        step = 0.01
        ts = budget_timeseries(tr, two_type_spec, FixedWidth((1.0, 4.0)), step)
        m = simulate(tr, two_type_spec, FixedWidth((1.0, 4.0)))
        riemann = float(ts[:-1, 1].sum() * step)
        assert abs(riemann - m.total_gpu_hours) <= step * ts[:, 1].max()

    def test_right_continuity_at_events(self, two_type_spec):
        # K sampled exactly at a completion instant reports the post-event value
        tr = Trace(np.array([0.0]), np.array([1]), np.array([2.0]))
        ts = budget_timeseries(tr, two_type_spec, FixedWidth((1.0, 4.0)), 1.0)
        assert ts[-1, 0] == pytest.approx(1.0)
        assert ts[-1, 1] == 0.0

    # The optimal widths of the two-type spec.  A running float sum of +k and
    # -k over their events left residues such as -3.6e-15 where no job is
    # present.
    DRIFTING = FixedWidth((6.0, 8.999999999999996))

    @staticmethod
    def counted_k(tr, widths, completions, ts):
        """K at each time of ts as the sum, over distinct widths w, of w times
        the jobs of width w present, counted from the per-job (arrival,
        completion) pairs; and whether any job is present."""
        t = ts[:, None]
        present = (tr.arrival_times <= t) & (t < completions)
        job_w = np.asarray(widths)[tr.type_indices]
        expect = np.zeros(len(ts))
        for w in sorted(set(widths)):
            expect += w * (present & (job_w == w)).sum(axis=1)
        return expect, present.any(axis=1)

    def test_fixed_width_idle_samples_are_exactly_zero(self, two_type_spec):
        tr = generate_trace(two_type_spec, 3000, seed=4)
        ts = budget_timeseries(tr, two_type_spec, self.DRIFTING, 0.5)
        completions = simulate(tr, two_type_spec, self.DRIFTING).per_job[:, 1]
        expect, busy = self.counted_k(tr, self.DRIFTING.ks, completions, ts[:, 0])
        assert (~busy).sum() > 100
        assert np.all(ts[~busy, 1] == 0.0)
        assert np.array_equal(ts[:, 1], expect)

    @settings(max_examples=150, deadline=None)
    @given(
        tr=spread_out_traces() | tie_heavy_traces(),
        widths=st.tuples(*[st.sampled_from([1.0, 2.5, 3.0, 8.999999999999996])] * 2),
        step=st.sampled_from([0.1, 0.25, 1.0]),
    )
    def test_fixed_width_k_is_width_times_count(self, two_type_spec, tr, widths, step):
        pol = FixedWidth(widths)
        ts = budget_timeseries(tr, two_type_spec, pol, step)
        completions = simulate(tr, two_type_spec, pol).per_job[:, 1]
        expect, busy = self.counted_k(tr, widths, completions, ts[:, 0])
        assert np.array_equal(ts[:, 1], expect)
        assert np.all(ts[~busy, 1] == 0.0)

    def test_k_never_negative(self, two_type_spec):
        tr = generate_trace(two_type_spec, 3000, seed=6)
        for pol in [*ALL_POLICIES, self.DRIFTING]:
            ts = budget_timeseries(tr, two_type_spec, pol, 0.25)
            assert ts[:, 1].min() >= 0.0, pol
