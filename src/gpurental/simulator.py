"""Discrete-event replay of a trace under a GPU rental policy.

Every replay, fixed-width or pooled, takes a type's speed at a width from
one evaluator, ``_speeds``: its speedup's ``_value``, which the solver also
uses, extended linearly below one GPU.  So a job that holds the same width
under two policies runs at the same speed, to the last bit.

Fixed-width policies never queue, so their replay is closed-form: each job
finishes at arrival + size / s(k).

The pooled baselines (equal split and SRF) share one event loop.  Each event
is an arrival or a completion.  Between events every present job depletes its
remaining work at a constant speed, so the next completion is solved exactly
(no time stepping): the loop advances time to the earlier of the next arrival
and the smallest remaining/speed.  At each event one pass over the present
jobs advances them to it, re-grants the pool and finds that smallest
remaining/speed for the next event; under SRF the advance takes only the
jobs granted at the last event, since a waiting job's fields do not change.
A completion tied with an arrival goes first; of tied completions, the job
that arrived first goes first.  Each present job is one record, kept in
arrival order; its work and GPU-hours go to the outputs once, when it
completes.  A grant depends only on m, the number of jobs present (equal
split: C/m each), or on a job's rank by remaining work (SRF: min(k_cap, what
is left), in rank order), so grants and their speed per job type are
computed once per m or rank and then looked up.

Most jobs at moderate load never share the pool.  A job that arrives to an
empty pool runs alone on the first grant: the pool under equal split,
min(k_cap, C) under SRF.  If that solo run, size / s(first), lasts no longer
than the gap to the next arrival, the job completes first (the tie rule
above) and the next job also finds the pool empty.  So every job's solo
outcome is computed up front in one vectorised step, each value by the same
single floating-point operation the loop would do, and whenever the loop
finds the pool empty it jumps to the next arrival that outlasts its gap.
The loop thus runs only on busy periods of two or more jobs, and its results
are bit for bit those of replaying every job through it.

K(t), the number of GPUs rented at time t, depends only on the jobs present,
so it is counted from arrivals and completions, and only when sampled.  The
jobs present at t are those arrived by t less those completed by t, an
integer count, so K(t) is right-continuous (at the instant a job completes,
it is gone) and exactly 0 when no job is present.

One replay is strictly sequential (event-ordered); distinct replays share
no state and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import InstabilityError, ReplayError, SpecError
from .speedup import _check_width
from .workload import Trace, WorkloadSpec, _check_stable

MAX_TIMESERIES_SAMPLES = 10**7  # ~160 MB of (t, K) rows


@dataclass(frozen=True)
class FixedWidth:
    """Every type-i job runs on ks[i] GPUs from arrival to completion."""

    ks: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(float(k) for k in self.ks))
        if len(self.ks) == 0:
            raise SpecError("fixed-width policy needs at least one width")
        _check_width("widths", self.ks)


@dataclass(frozen=True)
class StaticClusterEqualSplit:
    """A fixed cluster of C GPUs re-split equally among present jobs."""

    cluster_size: float

    def __post_init__(self):
        _check_width("cluster size", self.cluster_size)


@dataclass(frozen=True)
class SmallestRemainingFirst:
    """Size-priority baseline: a fixed pool of C GPUs, granted to the jobs
    with least remaining work first, at most k_cap each; jobs that find the
    pool empty wait.  Jobs are re-ranked only at arrivals and completions:
    a job that overtakes another between events (a better-scaling type on a
    smaller grant can) keeps its grant until the next event.  A simplified
    proxy for size-prioritizing schedulers, not a faithful reimplementation
    of any of them."""

    cluster_size: float
    k_cap: float

    def __post_init__(self):
        _check_width("cluster size", self.cluster_size)
        _check_width("k_cap", self.k_cap)


Policy = FixedWidth | StaticClusterEqualSplit | SmallestRemainingFirst


@dataclass(frozen=True)
class SimMetrics:
    """Measured outcome of one replay.

    ``per_job`` (optional) has one row per job with columns
    (arrival, completion, response, gpu_hours), in trace order.
    """

    job_count: int
    mean_response_time: float | None
    time_avg_budget: float
    total_gpu_hours: float
    per_job: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "job_count": self.job_count,
            "mean_response_time": self.mean_response_time,
            "time_avg_budget": self.time_avg_budget,
            "total_gpu_hours": self.total_gpu_hours,
        }


@dataclass(frozen=True)
class _Replay:
    completions: np.ndarray
    gpu_hours: np.ndarray
    work_done: np.ndarray
    # With n_i type-i jobs present, a fixed-width policy rents
    # sum_i widths[i] * n_i GPUs, and a pooled policy, with m = sum_i n_i,
    # rents k_by_count[min(m, len(k_by_count) - 1)].  One of the two is set.
    widths: np.ndarray | None = None
    k_by_count: np.ndarray | None = None


def _speeds(spec: WorkloadSpec, widths) -> list[float]:
    """Each type's speed at its width, from one call to its speedup's
    ``_value``, the evaluator of the solver.  A pool can grant less than one
    GPU, so below one the speed extends linearly, s(1) * a.  A speed that is
    not finite is refused."""
    speeds = []
    with np.errstate(over="ignore"):
        for t, a in zip(spec.types, widths):
            s = float(t.speedup._value(np.array([max(a, 1.0)]))[0]) * min(a, 1.0)
            if not s < math.inf:
                raise SpecError(f"type {t.name!r}: speed at width {a:.6g} is not finite")
            speeds.append(s)
    return speeds


def _replay_fixed(trace: Trace, spec: WorkloadSpec, widths: np.ndarray) -> _Replay:
    speeds_per_type = np.array(_speeds(spec, widths.tolist()))
    k_job = widths[trace.type_indices]
    with np.errstate(over="ignore"):  # _check_finite refuses what overflows
        durations = trace.sizes / speeds_per_type[trace.type_indices]
        return _Replay(
            trace.arrival_times + durations, k_job * durations, trace.sizes.copy(), widths=widths
        )


_remaining = itemgetter(0)


def _replay_cluster(trace: Trace, spec: WorkloadSpec, policy: Policy) -> _Replay:
    n = len(trace)
    n_types = len(spec.types)
    equal_split = isinstance(policy, StaticClusterEqualSplit)
    pool = policy.cluster_size
    k_cap = policy.k_cap if isinstance(policy, SmallestRemainingFirst) else math.inf

    # Grants are looked up, not recomputed.  Equal split: m -> (C/m, speed
    # per type).  SRF: the grant by rank, which no m changes, and its speed
    # per type, extended while the pool lasts (later ranks wait).  Both start
    # from the first grant, which a job alone in the pool holds.
    first = pool if equal_split else min(k_cap, pool)
    solo_speeds = _speeds(spec, [first] * n_types)
    share_of: dict[int, tuple[float, list[float]]] = {1: (first, solo_speeds)}
    rank_alloc: list[float] = [first]
    rank_speed: list[list[float]] = [solo_speeds]
    left = pool - first

    # Every job's outcome if it runs alone; the loop overwrites those of jobs
    # in busy periods.  Each job in ``outlasts`` runs alone past the next
    # arrival (the last job always fits); a busy period starts at one.
    job_speed = np.array(solo_speeds)[trace.type_indices]
    with np.errstate(over="ignore"):  # _check_finite refuses what overflows
        solo = trace.sizes / job_speed
        completions = trace.arrival_times + solo
        work_done = job_speed * solo
        gpu_hours = first * solo
    outlasts = np.flatnonzero(solo[:-1] > np.diff(trace.arrival_times))
    del job_speed, solo  # before the list copies, so that peak memory stays flat

    arr_t = trace.arrival_times.tolist()
    arr_ty = trace.type_indices.tolist()
    arr_x = trace.sizes.tolist()
    jobs: list[list] = []  # [rem, work, gpu_hours, alloc, speed, idx, type], in arrival order
    granted: list[list] = []  # SRF: the jobs granted at the last event
    t = 0.0
    i_next = 0
    p, n_outlasts = 0, len(outlasts)  # outlasts[p] is the next busy period's start
    dt, done = math.inf, None  # time to the next completion and its job, if any

    while True:
        if not jobs:
            # The pool is empty: skip the jobs that run alone.
            while p < n_outlasts and outlasts[p] < i_next:
                p += 1
            if p == n_outlasts:
                break
            i_next = int(outlasts[p])
        dt_arr = arr_t[i_next] - t if i_next < n else math.inf
        arriving = done is None or dt > dt_arr  # a completion tied with an arrival goes first
        if arriving:
            if i_next == n:  # no job present completes in finite time
                for job in jobs:
                    completions[job[5]] = math.inf
                break
            # An arrival at or before t (t can round past it) advances by
            # 0.0, which changes no bit: every speed and grant is finite.
            dt = dt_arr if dt_arr > 0.0 else 0.0
            t = arr_t[i_next]
            jobs.append([arr_x[i_next], 0.0, 0.0, 0.0, 0.0, i_next, arr_ty[i_next]])
            i_next += 1
        else:
            # The pass below no longer sees the job, so its last interval is
            # added here (under SRF, ``granted`` still advances its record).
            t += dt
            jobs.remove(done)
            i = done[5]
            completions[i] = t
            w = done[4] * dt
            work_done[i] = done[1] + w
            gpu_hours[i] = done[2] + done[3] * dt

        # One pass per event advances the jobs by dt, re-grants the pool and
        # finds the next completion, the least max(rem, 0) / speed.  A new
        # job has speed and grant 0.0, so advancing it changes no bit.
        adv, dt, done = dt, math.inf, None
        m = len(jobs)
        if m == 0:
            granted = []
            continue
        if equal_split:
            row = share_of.get(m)
            if row is None:
                share = pool / m
                row = share_of[m] = (share, _speeds(spec, [share] * n_types))
            share, speeds = row
            for job in jobs:  # in arrival order: a strict < keeps the earliest of ties
                rem, work, hours, alloc, speed, _, ty = job
                w = speed * adv
                job[0] = rem = rem - w
                job[1] = work + w
                job[2] = hours + alloc * adv
                job[3] = share
                job[4] = speed = speeds[ty]
                if speed > 0.0:
                    tc = (rem if rem > 0.0 else 0.0) / speed
                    if tc < dt:
                        dt, done = tc, job
        else:
            # Only the jobs granted at the last event advance: a waiting
            # job's would add 0.0 to each field.
            for job in granted:
                rem, work, hours, alloc, speed, _, _ = job
                w = speed * adv
                job[0] = rem - w
                job[1] = work + w
                job[2] = hours + alloc * adv
            # A stable sort of the arrival-ordered list ranks by (remaining,
            # arrival).  It is a copy: reordering ``jobs`` would change which
            # of two jobs with equal remaining work ranks first.
            ranked = sorted(jobs, key=_remaining) if m > 1 else jobs
            while len(rank_alloc) < m and left > 0.0:
                a = min(k_cap, left)
                left -= a
                rank_alloc.append(a)
                rank_speed.append(_speeds(spec, [a] * n_types))
            granted = ranked[: len(rank_alloc)]
            for job, a, speeds in zip(granted, rank_alloc, rank_speed):
                job[3] = a
                job[4] = speed = speeds[job[6]]
                if speed > 0.0:
                    rem = job[0]
                    tc = (rem if rem > 0.0 else 0.0) / speed
                    # In rank order, of ties the earlier arrival (the
                    # smaller trace index) completes first.
                    if tc < dt:
                        dt, done = tc, job
                    elif tc == dt and done is not None and job[5] < done[5]:
                        done = job

    if equal_split:
        k_by_count = [0.0, pool]
    else:
        k_by_count = [math.fsum(rank_alloc[:j]) for j in range(len(rank_alloc) + 1)]
    return _Replay(completions, gpu_hours, work_done, k_by_count=np.array(k_by_count))


def _check_pool(spec: WorkloadSpec, policy: Policy) -> None:
    """A pooled policy keeps up only if the total load is below its pool.
    With m jobs present each holds at most C/m GPUs, and once that is below
    one a job runs at (C/m) * s(1): the pool then serves no faster than C
    GPUs of width-1 jobs, which need the total load's GPUs to keep up.

    SRF must also keep up at its largest grant, a = min(k_cap, C): the
    axioms make s(g)/g non-increasing, so no grant does less work per GPU
    than s(a)/a, and sum_i load_i * a / s_i(a) < C suffices.  The test is
    conservative: a smaller leftover grant does more per GPU."""
    if isinstance(policy, FixedWidth):
        return
    pool = policy.cluster_size
    _check_stable(spec.total_load, pool)
    if isinstance(policy, SmallestRemainingFirst):
        a = min(policy.k_cap, pool)
        speeds = _speeds(spec, [a] * len(spec.types))
        usage = sum(load * (a / s) for load, s in zip(spec.loads.tolist(), speeds))
        if usage >= pool:
            raise InstabilityError(f"usage {usage:.6g} at grant {a:.6g} >= pool {pool:.6g}")


def _check_finite(rep: _Replay) -> None:
    """Refuse a replay in which a job's completion time or GPU-hours is not
    finite, naming its line in the trace CSV (row i is line i + 2)."""
    bad = ~((rep.completions < math.inf) & (rep.gpu_hours < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        what = "completion time" if not rep.completions[i] < math.inf else "GPU-hours"
        raise ReplayError(f"trace line {i + 2}: job {what} is not finite")


def _replay(trace: Trace, spec: WorkloadSpec, policy: Policy) -> _Replay:
    trace.check_against(spec)
    _check_pool(spec, policy)
    if not isinstance(policy, FixedWidth):
        rep = _replay_cluster(trace, spec, policy)
    elif len(policy.ks) != len(spec.types):
        raise SpecError(
            f"policy has {len(policy.ks)} widths but workload has {len(spec.types)} types"
        )
    else:
        rep = _replay_fixed(trace, spec, np.asarray(policy.ks))
    _check_finite(rep)
    return rep


def _measure(trace: Trace, rep: _Replay, collect_per_job: bool) -> SimMetrics:
    n = len(trace)
    if n == 0:
        return SimMetrics(0, None, 0.0, 0.0, per_job=None)
    responses = rep.completions - trace.arrival_times
    with np.errstate(over="ignore"):
        total = float(rep.gpu_hours.sum())
        mean_response = float(responses.mean())
    if not (total < math.inf and mean_response < math.inf):
        raise ReplayError("the replay's total GPU-hours or mean response time overflows")
    horizon = float(rep.completions.max())
    per_job = None
    if collect_per_job:
        per_job = np.column_stack(
            [trace.arrival_times, rep.completions, responses, rep.gpu_hours]
        )
    return SimMetrics(
        job_count=n,
        mean_response_time=mean_response,
        time_avg_budget=total / horizon,
        total_gpu_hours=total,
        per_job=per_job,
    )


def _k_at(trace: Trace, rep: _Replay, ts: np.ndarray) -> np.ndarray:
    """K(t) at each of the ascending times ts, from integer counts of the
    jobs present: those arrived by t, less those completed by t.

    A fixed-width policy sums width * count over its distinct widths, so a
    time with no job present gets exactly 0.  A pooled policy looks its
    grant total up by the count of all jobs present."""
    # Job j is counted at ts[i] for arrived[j] <= i < completed[j]; the
    # last bin holds what happens after ts[-1].
    arrived = np.searchsorted(ts, trace.arrival_times)
    completed = np.searchsorted(ts, rep.completions)

    def present(jobs=slice(None)) -> np.ndarray:
        net = np.bincount(arrived[jobs], minlength=len(ts) + 1)
        net -= np.bincount(completed[jobs], minlength=len(ts) + 1)
        return np.cumsum(net[:-1])

    if rep.k_by_count is not None:
        return rep.k_by_count.take(present(), mode="clip")
    ks = np.zeros(len(ts))
    for w in sorted(set(rep.widths.tolist())):
        ks += w * present((rep.widths == w)[trace.type_indices])
    return ks


def _k_steps(trace: Trace, rep: _Replay) -> tuple[np.ndarray, np.ndarray]:
    """K(t) as (times, ks): K(t) == ks[i] on [times[i], times[i+1]), times[0] == 0.

    times are 0 and the distinct arrival and completion instants; ks is
    counted there by ``_k_at``, the evaluator that samples K(t)."""
    times = np.unique(np.concatenate([[0.0], trace.arrival_times, rep.completions]))
    return times, _k_at(trace, rep, times)


def _sample_k(trace: Trace, rep: _Replay, sample_step: float) -> np.ndarray:
    """(t, K(t)) rows at t = 0, sample_step, ... up to the last completion,
    counted at the sample times themselves, without the event-level steps."""
    if not 0.0 < sample_step < math.inf:
        raise ValueError(f"sample_step must be positive and finite, got {sample_step}")
    horizon = float(rep.completions.max()) if len(rep.completions) else 0.0
    steps = horizon / sample_step
    count = math.ceil(steps) + 1 if steps < math.inf else math.inf
    if count > MAX_TIMESERIES_SAMPLES:
        raise ValueError(
            f"sample_step {sample_step} needs {count:.10g} samples over horizon {horizon}, "
            f"more than {MAX_TIMESERIES_SAMPLES}"
        )
    ts = np.arange(count) * sample_step
    return np.column_stack([ts, _k_at(trace, rep, ts)])


def simulate(
    trace: Trace,
    spec: WorkloadSpec,
    policy: Policy,
    collect_per_job: bool = True,
) -> SimMetrics:
    """Replay the trace under the policy and measure it.

    Every job runs to completion, including those still in flight past the
    last arrival; the time-average budget divides by the last completion
    time, over which K(t) is identically zero afterwards.

    A pooled policy whose pool is at or below the total load cannot keep up
    and raises InstabilityError before any replay, as does an SRF pool at or
    below its usage at the largest grant (see ``_check_pool``); a type whose
    speed at a width the policy grants is not finite raises SpecError, and a job's
    completion time or GPU-hours, or their totals, past the range of a
    double raise ReplayError.
    """
    return _measure(trace, _replay(trace, spec, policy), collect_per_job)


def compare_policies(
    trace: Trace,
    spec: WorkloadSpec,
    policies,
    collect_per_job: bool = False,
) -> list[tuple[Policy, SimMetrics]]:
    """Simulate each policy on the identical trace, in the given order."""
    return [(p, simulate(trace, spec, p, collect_per_job=collect_per_job)) for p in policies]


def budget_timeseries(
    trace: Trace,
    spec: WorkloadSpec,
    policy: Policy,
    sample_step: float,
) -> np.ndarray:
    """Sample the exact K(t) step function at multiples of sample_step.

    Returns an array of (t, K(t)) rows covering [0, last completion],
    right-continuous at event instants, and exactly 0 where no job is
    present.  A step that is not positive and finite, or that needs more
    than MAX_TIMESERIES_SAMPLES samples, is refused before they are
    allocated.
    """
    return _sample_k(trace, _replay(trace, spec, policy), sample_step)
