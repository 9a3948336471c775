"""Discrete-event replay of a trace under a GPU rental policy.

Every replay, fixed-width or pooled, takes a type's speed at a width from
one evaluator, ``_speeds``: its speedup's ``_value``, which the solver also
uses, extended linearly below one GPU.  So a job that holds the same width
under two policies runs at the same speed, to the last bit.

Fixed-width policies never queue, so their replay is closed-form: each job
finishes at arrival + size / s(k).  A replay keeps of each job only what
the outputs read: its completion time and GPU-hours.

The pooled baselines (equal split and SRF) share one event loop.  Each event
is an arrival or a completion.  Between events every present job depletes its
remaining work at a constant speed, so the next completion is solved exactly
(no time stepping): the loop advances time to the earlier of the next arrival
and the smallest remaining/speed.  At each event one pass over the present
jobs advances them to it, re-grants the pool and finds that smallest
remaining/speed for the next event.  A completion tied with an arrival goes
first; of tied completions, the job that arrived first goes first.  A grant
depends only on m, the number of jobs present (equal split: C/m each), or on
a job's rank by remaining work (SRF: min(k_cap, what is left), in rank
order), so grants and their speed per job type are computed once per m or
rank and then looked up.

Each present job is one record, kept in arrival order: its remaining work,
its GPU-hours so far, its trace index and its type.  Its GPU-hours go to the
outputs once, when it completes.  Under equal split every job present holds
the same grant, so the loop holds the last event's grant and its speed per
type once, outside the records: the pass advances each job on the old grant
and finds its completion on the new one, and a job that arrives joins after
the pass, with nothing to advance.  Under SRF grants differ by rank, so a
record also holds its job's grant and speed, and only the jobs granted at
the last event advance, since a waiting job's fields do not change.  The
jobs are ranked only when their grants differ: with no more jobs present
than the leading ranks that grant min(k_cap, C), every job holds that grant,
and two jobs are ranked by one comparison.

Most jobs at moderate load never share the pool.  A job that arrives to an
empty pool runs alone on the first grant: the pool under equal split,
min(k_cap, C) under SRF.  If that solo run, size / s(first), lasts no longer
than the gap to the next arrival, the job completes first (the tie rule
above) and the next job also finds the pool empty.  A solo run is a
fixed-width run at the first grant, so every job's solo outcome comes up
front from the fixed-width replay's code, ``_run_fixed``, by the same single
floating-point operations the loop would do, and whenever the loop finds the
pool empty it jumps to the next arrival that outlasts its gap.
The loop thus runs only on busy periods of two or more jobs, and its results
are bit for bit those of replaying every job through it.  It reads the
trace's columns and writes the outputs in place, through memoryviews of the
arrays, so it holds Python objects only for the jobs present, never a copy
of the whole trace.

K(t), the number of GPUs rented at time t, depends only on the jobs present,
so it is counted from arrivals and completions, and only when sampled.  The
jobs present at t are those arrived by t less those completed by t, an
integer count, so K(t) is right-continuous (at the instant a job completes,
it is gone) and exactly 0 when no job is present.  One evaluator, ``_k_at``,
counts it for ascending sample times from sorted arrival and completion
times, touching only the events between the first and the last sample, so
the CLI asks it for one block of samples at a time and no array holds every
sample.

One replay is strictly sequential (event-ordered); distinct replays share
no state, so ``compare_policies`` (and the CLI's ``compare``) runs them
concurrently, in forked processes, at most one per CPU the process may use.
Every policy is checked first (``_check_policy``), in policy order, so one
that cannot be replayed is refused before any replay or fork.
Fixed-width replays are closed-form and stay in the calling process.  The
pooled ones are sorted by pool size, smallest (busiest) first, and dealt to
the processes back and forth; the caller replays the first share, and each
forked child replays its share and sends the pickled results back through a
pipe.  The forking, the pipes and the reaping are ``_fork.forked``'s, which
the trace and CSV readers and writers share.  Each replay is the same
computation wherever it runs, so the results are bit for bit those of
replaying the policies one after another, which is what runs when there is
one such CPU or one pooled policy, or where the platform has no ``os.fork``
or ``os.sched_getaffinity``.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import _fork
from .errors import InstabilityError, ReplayError, SpecError
from .speedup import _check_width
from .workload import Trace, WorkloadSpec, _check_stable

# The samples are written block by block, so the cap bounds the file's size
# (~10^7 lines) and the time to write it, not the memory.
MAX_TIMESERIES_SAMPLES = 10**7


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


def _run_fixed(trace: Trace, widths: np.ndarray, speeds: np.ndarray):
    """Each job's run time, completion time and GPU-hours when every type-i
    job runs on widths[i] GPUs at speeds[i] from its arrival on."""
    with np.errstate(over="ignore"):  # _check_finite refuses what overflows
        durations = trace.sizes / speeds[trace.type_indices]
        return durations, trace.arrival_times + durations, widths[trace.type_indices] * durations


def _replay_fixed(trace: Trace, spec: WorkloadSpec, widths: np.ndarray) -> _Replay:
    speeds = np.array(_speeds(spec, widths.tolist()))
    _, completions, gpu_hours = _run_fixed(trace, widths, speeds)
    return _Replay(completions, gpu_hours, widths=widths)


_remaining = itemgetter(0)


def _replay_cluster(trace: Trace, spec: WorkloadSpec, policy: Policy) -> _Replay:
    n = len(trace)
    n_types = len(spec.types)
    equal_split = isinstance(policy, StaticClusterEqualSplit)
    pool = policy.cluster_size
    inf = math.inf
    k_cap = policy.k_cap if isinstance(policy, SmallestRemainingFirst) else inf

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
    # SRF: the ranks held, and how many of them lead with the first grant.
    # With no more jobs present than those, every job holds the first grant
    # whatever its rank, so none is ranked.
    n_ranks = n_full = 1

    # Every job's outcome if it runs alone; the loop overwrites those of jobs
    # in busy periods.  Each job in ``outlasts`` runs alone past the next
    # arrival (the last job always fits); a busy period starts at one.
    solo, completions, gpu_hours = _run_fixed(trace, np.full(n_types, first), np.array(solo_speeds))
    outlasts = np.flatnonzero(solo[:-1] > np.diff(trace.arrival_times))
    del solo

    # The loop reads and writes the arrays in place: an item of a memoryview
    # is the array's own double or int, boxed only when the loop touches it.
    arr_t, arr_ty, arr_x, outlasts, out_t, out_hours = map(memoryview, (
        trace.arrival_times, trace.type_indices, trace.sizes, outlasts, completions, gpu_hours))
    # [rem, gpu_hours, idx, type, alloc, speed], in arrival order.  Under
    # equal split every job present holds one grant, the last event's
    # ``share`` and its ``speeds`` per type, so alloc and speed stay unused.
    jobs: list[list] = []
    granted: list[list] = []  # SRF: the jobs granted at the last event
    share, speeds = first, solo_speeds
    t = 0.0
    i_next = 0
    p, n_outlasts = 0, len(outlasts)  # outlasts[p] is the next busy period's start
    dt, done = inf, None  # time to the next completion and its job, if any

    while True:
        if not jobs:
            # The pool is empty: skip the jobs that run alone.
            while p < n_outlasts and outlasts[p] < i_next:
                p += 1
            if p == n_outlasts:
                break
            i_next = outlasts[p]
        dt_arr = arr_t[i_next] - t if i_next < n else inf
        if done is None or dt > dt_arr:  # a completion tied with an arrival goes first
            if i_next == n:  # no job present completes in finite time
                for job in jobs:
                    out_t[job[2]] = inf
                break
            # An arrival at or before t (t can round past it) advances by
            # 0.0, which changes no bit: every speed and grant is finite.
            dt = dt_arr if dt_arr > 0.0 else 0.0
            t = arr_t[i_next]
            new = [arr_x[i_next], 0.0, i_next, arr_ty[i_next], 0.0, 0.0]
            i_next += 1
        else:
            # The pass below no longer sees the job, so its last interval is
            # added here (under SRF, ``granted`` may still advance its record,
            # which is no longer read).
            t += dt
            jobs.remove(done)
            out_t[done[2]] = t
            out_hours[done[2]] = done[1] + (share if equal_split else done[4]) * dt
            new = None

        # One pass per event advances the jobs by dt, re-grants the pool and
        # finds the next completion, the least max(rem, 0) / speed.
        adv, dt, done = dt, inf, None
        if equal_split:
            m = len(jobs) if new is None else len(jobs) + 1
            if m == 0:
                continue
            # The jobs present before the event advance on the old grant and
            # find their completions on the new one.  In arrival order, a
            # strict < keeps the earliest of tied completions.
            hours_adv, old_speeds = share * adv, speeds
            row = share_of.get(m)
            if row is None:
                row = share_of[m] = (pool / m, _speeds(spec, [pool / m] * n_types))
            share, speeds = row
            for job in jobs:
                rem, hours, _, ty, _, _ = job
                job[0] = rem = rem - old_speeds[ty] * adv
                job[1] = hours + hours_adv
                speed = speeds[ty]
                if speed > 0.0:
                    tc = (rem if rem > 0.0 else 0.0) / speed
                    if tc < dt:
                        dt, done = tc, job
            if new is not None:  # it arrives last, and has nothing to advance
                jobs.append(new)
                speed = speeds[new[3]]
                if speed > 0.0:
                    tc = new[0] / speed
                    if tc < dt:
                        dt, done = tc, new
            continue

        # SRF.  A new job has speed and grant 0.0, so advancing it changes no
        # bit; only the jobs granted at the last event advance, since a
        # waiting job's would add 0.0 to each field.
        if new is not None:
            jobs.append(new)
        m = len(jobs)
        if m == 0:
            granted = []
            continue
        for job in granted:
            rem, hours, _, _, alloc, speed = job
            job[0] = rem - speed * adv
            job[1] = hours + alloc * adv
        while n_ranks < m and left > 0.0:
            a = min(k_cap, left)
            left -= a
            rank_alloc.append(a)
            rank_speed.append(_speeds(spec, [a] * n_types))
            n_ranks += 1
            if a == first:
                n_full += 1
        if m <= n_full:
            # Every job holds the first grant; in arrival order a strict <
            # keeps the earliest of tied completions.  ``granted`` is
            # ``jobs`` itself: a job that arrives joins it with grant 0.0,
            # and one that completes has been written out.
            granted = jobs
            for job in jobs:
                job[4] = first
                job[5] = speed = solo_speeds[job[3]]
                if speed > 0.0:
                    rem = job[0]
                    tc = (rem if rem > 0.0 else 0.0) / speed
                    if tc < dt:
                        dt, done = tc, job
            continue
        # A stable sort of the arrival-ordered list ranks by (remaining,
        # arrival); of two jobs, one comparison does.  ``jobs`` keeps its
        # order: reordering it would change which of two jobs with equal
        # remaining work ranks first.
        if m == 2:
            j0, j1 = jobs
            ranked = jobs if j0[0] <= j1[0] else [j1, j0]
        else:
            ranked = sorted(jobs, key=_remaining)
        granted = ranked[:n_ranks]
        for job, a, a_speeds in zip(granted, rank_alloc, rank_speed):
            job[4] = a
            job[5] = speed = a_speeds[job[3]]
            if speed > 0.0:
                rem = job[0]
                tc = (rem if rem > 0.0 else 0.0) / speed
                # In rank order, of ties the earlier arrival (the
                # smaller trace index) completes first.
                if tc < dt:
                    dt, done = tc, job
                elif tc == dt and done is not None and job[2] < done[2]:
                    done = job

    if equal_split:
        k_by_count = [0.0, pool]
    else:
        k_by_count = [math.fsum(rank_alloc[:j]) for j in range(len(rank_alloc) + 1)]
    return _Replay(completions, gpu_hours, k_by_count=np.array(k_by_count))


def _check_policy(spec: WorkloadSpec, policy: Policy) -> None:
    """A fixed-width policy needs one width per type.  A pooled policy keeps
    up only if the total load is below its pool.  With m jobs present each
    holds at most C/m GPUs, and once that is below one a job runs at
    (C/m) * s(1): the pool then serves no faster than C GPUs of width-1
    jobs, which need the total load's GPUs to keep up.

    SRF must also keep up at its largest grant, a = min(k_cap, C): the
    axioms make s(g)/g non-increasing, so no grant does less work per GPU
    than s(a)/a, and sum_i load_i * a / s_i(a) < C suffices.  The test is
    conservative: a smaller leftover grant does more per GPU."""
    if isinstance(policy, FixedWidth):
        if len(policy.ks) != len(spec.types):
            raise SpecError(f"policy has {len(policy.ks)} widths but workload has "
                            f"{len(spec.types)} types")
        return
    pool = policy.cluster_size
    _check_stable(spec.total_load, pool)
    if isinstance(policy, SmallestRemainingFirst):
        a = min(policy.k_cap, pool)
        speeds = np.array(_speeds(spec, [a] * len(spec.types)))
        with np.errstate(over="ignore"):  # an infinite usage is refused
            usage = float((spec.loads * (a / speeds)).sum())
        if usage >= pool:
            raise InstabilityError(f"usage {usage:.6g} at grant {a:.6g} >= pool {pool:.6g}")


def _check_finite(rep: _Replay) -> None:
    """Refuse a replay in which a job's completion time or GPU-hours is not
    finite, naming its row."""
    bad = ~((rep.completions < math.inf) & (rep.gpu_hours < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        what = "completion time" if not rep.completions[i] < math.inf else "GPU-hours"
        raise ReplayError(f"job {what} is not finite", row=i)


def _replay(trace: Trace, spec: WorkloadSpec, policy: Policy) -> _Replay:
    _check_policy(spec, policy)
    trace.check_against(spec)
    if not isinstance(policy, FixedWidth):
        rep = _replay_cluster(trace, spec, policy)
    else:
        rep = _replay_fixed(trace, spec, np.asarray(policy.ks))
    _check_finite(rep)
    return rep


def _per_job_rows(trace: Trace, rep: _Replay, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the per-job table: (arrival, completion, response,
    gpu_hours), one row per job in trace order."""
    arrivals, completions = trace.arrival_times[lo:hi], rep.completions[lo:hi]
    return np.column_stack([arrivals, completions, completions - arrivals, rep.gpu_hours[lo:hi]])


def _measure(trace: Trace, rep: _Replay, collect_per_job: bool) -> SimMetrics:
    n = len(trace)
    if n == 0:
        return SimMetrics(0, None, 0.0, 0.0, per_job=None)
    with np.errstate(over="ignore"):
        total = float(rep.gpu_hours.sum())
        mean_response = float((rep.completions - trace.arrival_times).mean())
    if not (total < math.inf and mean_response < math.inf):
        raise ReplayError("the replay's total GPU-hours or mean response time overflows")
    horizon = float(rep.completions.max())
    return SimMetrics(
        job_count=n,
        mean_response_time=mean_response,
        time_avg_budget=total / horizon,
        total_gpu_hours=total,
        per_job=_per_job_rows(trace, rep, 0, n) if collect_per_job else None,
    )


def _present(arrivals: np.ndarray, completions: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The jobs present at each of the ascending times ts, from their sorted
    arrival and completion times: those arrived by t less those completed
    by t.  Two binary searches count the events up to ts[0]; only those in
    (ts[0], ts[-1]] are binned, each at the first time at or after it."""
    ends = (ts[0], ts[-1])
    a0, a1 = np.searchsorted(arrivals, ends, side="right")
    c0, c1 = np.searchsorted(completions, ends, side="right")
    net = np.bincount(np.searchsorted(ts, arrivals[a0:a1]), minlength=len(ts))
    net -= np.bincount(np.searchsorted(ts, completions[c0:c1]), minlength=len(ts))
    net[0] += a0 - c0
    return np.cumsum(net)


def _k_at(trace: Trace, rep: _Replay):
    """The replay's K(t), as a function of a 1-D array of ascending times,
    counted from the integer number of jobs present (``_present``).

    A fixed-width policy sums width * count over its distinct widths, in
    ascending order, so a time with no job present gets exactly 0.  A
    pooled policy looks its grant total up by the count of all jobs present.

    Each width's arrivals and sorted completions (all jobs', for a pool) are
    taken once, here, so a call costs what its times and the events between
    them take, not what the whole trace does."""
    if rep.k_by_count is not None:
        arrivals, completions = trace.arrival_times, np.sort(rep.completions)
        return lambda ts: rep.k_by_count.take(_present(arrivals, completions, ts), mode="clip")
    groups = []
    for w in sorted(set(rep.widths.tolist())):
        mine = (rep.widths == w)[trace.type_indices]
        groups.append((w, trace.arrival_times[mine], np.sort(rep.completions[mine])))

    def k_at(ts: np.ndarray) -> np.ndarray:
        ks = np.zeros(len(ts))
        for w, arrivals, completions in groups:
            ks += w * _present(arrivals, completions, ts)
        return ks

    return k_at


def _k_steps(trace: Trace, rep: _Replay) -> tuple[np.ndarray, np.ndarray]:
    """K(t) as (times, ks): K(t) == ks[i] on [times[i], times[i+1]), times[0] == 0.

    times are 0 and the distinct arrival and completion instants; ks is
    counted there by ``_k_at``, the evaluator that samples K(t)."""
    times = np.unique(np.concatenate([[0.0], trace.arrival_times, rep.completions]))
    return times, _k_at(trace, rep)(times)


def _sample_k(trace: Trace, rep: _Replay, sample_step: float):
    """The (t, K(t)) samples at t = 0, sample_step, ... up to the last
    completion, counted at the sample times themselves, without the
    event-level steps: their number, and a function that gives rows
    [lo, hi) as a 2-D array, so that no array need hold every sample.

    A step that is not positive and finite, or that needs more than
    MAX_TIMESERIES_SAMPLES samples, is refused first."""
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
    k_at = _k_at(trace, rep)

    def rows(lo: int, hi: int) -> np.ndarray:
        ts = np.arange(lo, hi) * sample_step
        return np.column_stack([ts, k_at(ts)])

    return count, rows


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

    The policy is checked before any replay (``_check_policy``): a
    fixed-width policy without one width per type raises SpecError, and a
    pooled policy whose pool is at or below the total load, or an SRF pool
    at or below its usage at the largest grant, cannot keep up and raises
    InstabilityError.  A type whose speed at a width the policy grants is
    not finite raises SpecError, and a job's completion time or GPU-hours,
    or their totals, past the range of a double raise ReplayError.
    """
    return _measure(trace, _replay(trace, spec, policy), collect_per_job)


def _simulate_each(
    trace: Trace, spec: WorkloadSpec, policies, collect_per_job: bool = False
) -> tuple[list[SimMetrics], tuple[int, Exception] | None]:
    """Each policy's metrics in policy order, and None; or, at the first
    failure in policy order, [] and that failure as (index, exception).

    Every policy is checked (``_check_policy``), in policy order, before
    any replay or fork, so a policy the check refuses is the failure and
    nothing is replayed.  Then, with W = min(pooled policies, CPUs this
    process may use) of two or more, pooled policies are sorted by pool
    size and dealt to W processes in snake order (0, 1, .., W-1, W-1, ..,
    0, 0, ..), since a smaller pool has more events to replay.  This
    process replays share 0 and every fixed-width policy, and W - 1
    children forked by ``_fork.forked`` the other shares, each in policy
    order up to its first failure, and send back their pickled results.  A
    child that ends without writing its results raises ChildProcessError.
    Every child is reaped before this returns or raises, and killed first
    if this process raises before it has their results."""
    for i, policy in enumerate(policies):
        try:
            _check_policy(spec, policy)
        except Exception as exc:
            return [], (i, exc)
    pooled = sorted(
        (i for i, p in enumerate(policies) if not isinstance(p, FixedWidth)),
        key=lambda i: policies[i].cluster_size,
    )
    workers = max(1, min(len(pooled), _fork.cpus()))
    shares: list[list[int]] = [[] for _ in range(workers)]
    for j, i in enumerate(pooled):
        lap, w = divmod(j, workers)
        shares[w if lap % 2 == 0 else workers - 1 - w].append(i)
    shares[0] += (i for i, p in enumerate(policies) if isinstance(p, FixedWidth))
    shares = [sorted(share) for share in shares]

    def replay(share: list[int]) -> list[SimMetrics | Exception]:
        results = []
        for i in share:
            try:
                results.append(simulate(trace, spec, policies[i], collect_per_job))
            except Exception as exc:
                results.append(exc)
                break
        return results

    with _fork.forked(lambda share: pickle.dumps(replay(share)), shares[1:],
                      "a replay worker") as children:
        results = dict(zip(shares[0], replay(shares[0])))
        for child, share in zip(children, shares[1:]):
            results.update(zip(share, pickle.loads(child.result())))
    # A share stops at its first failure, so a missing result follows one.
    for i in range(len(policies)):
        if isinstance(results[i], Exception):
            return [], (i, results[i])
    return [results[i] for i in range(len(policies))], None


def compare_policies(
    trace: Trace,
    spec: WorkloadSpec,
    policies,
    collect_per_job: bool = False,
) -> list[tuple[Policy, SimMetrics]]:
    """Simulate each policy on the identical trace; results in the given order.

    Every policy is checked, in the given order, before any is replayed: a
    policy ``simulate`` would refuse before its replay (a wrong width
    count, a pool that cannot keep up) raises here with nothing replayed.
    Pooled replays then run concurrently, one forked process per CPU this
    process may use (see ``_simulate_each``); fixed-width ones run here.
    The metrics are bit for bit those of calling ``simulate`` on each
    policy in turn.  The error raised is the first check failure in policy
    order, else the first replay failure in policy order."""
    policies = list(policies)
    metrics, failure = _simulate_each(trace, spec, policies, collect_per_job)
    if failure is not None:
        raise failure[1]
    return list(zip(policies, metrics))


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
    count, rows = _sample_k(trace, _replay(trace, spec, policy), sample_step)
    return rows(0, count)
