"""The pooled-baseline replay as it stood before the per-job-record loop in
``gpurental.simulator``, kept as the oracle for tests only: parallel
per-job lists, a full reallocation and a ``math.fsum`` of K(t) at every
event.  It evaluates speeds through the public ``SpeedupFunction.__call__``,
not the package's replay evaluator, so that it does not share what it
checks.  It returns its arrays by name, K(t) as ``seg_times`` and ``seg_k``
(K(t) == seg_k[i] on [seg_times[i], seg_times[i+1])).  The current loop,
with K(t) built from its arrivals and completions, must reproduce them bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from gpurental.simulator import Policy, SmallestRemainingFirst, StaticClusterEqualSplit
from gpurental.workload import Trace, WorkloadSpec


def _speed_of(f):
    """Speed at allocation a through the public ``__call__``, extended
    linearly below one GPU (a * s(1)): the oracle's own evaluator, not the
    package's."""
    at_one = f(1.0)
    return lambda a: f(a) if a >= 1.0 else a * at_one


def _replay_cluster(trace: Trace, spec: WorkloadSpec, policy: Policy) -> dict[str, np.ndarray]:
    n = len(trace)
    arr_t = trace.arrival_times
    arr_ty = trace.type_indices
    arr_x = trace.sizes
    speed_of = [_speed_of(t.speedup) for t in spec.types]
    equal_split = isinstance(policy, StaticClusterEqualSplit)
    pool = policy.cluster_size
    k_cap = policy.k_cap if isinstance(policy, SmallestRemainingFirst) else math.inf

    completions = np.zeros(n)
    gpu_hours = np.zeros(n)
    work_done = np.zeros(n)

    ids: list[int] = []
    rem: list[float] = []
    alloc: list[float] = []
    spd: list[float] = []

    seg_times = [0.0]
    seg_k = [0.0]
    t = 0.0
    i_next = 0

    def reallocate() -> None:
        m = len(ids)
        if m == 0:
            return
        if equal_split:
            share = pool / m
            for j in range(m):
                alloc[j] = share
                spd[j] = speed_of[arr_ty[ids[j]]](share)
        else:
            order = sorted(range(m), key=lambda j: (rem[j], ids[j]))
            left = pool
            for j in order:
                a = min(k_cap, left)
                left -= a
                alloc[j] = a
                spd[j] = speed_of[arr_ty[ids[j]]](a)

    def advance(dt: float) -> None:
        if dt > 0.0:
            for j in range(len(ids)):
                w = spd[j] * dt
                rem[j] -= w
                work_done[ids[j]] += w
                gpu_hours[ids[j]] += alloc[j] * dt

    while ids or i_next < n:
        dt_arr = arr_t[i_next] - t if i_next < n else math.inf
        dt_comp = math.inf
        j_comp = -1
        for j in range(len(ids)):
            if spd[j] > 0.0:
                tc = max(rem[j], 0.0) / spd[j]
                if tc < dt_comp:
                    dt_comp, j_comp = tc, j

        if j_comp >= 0 and dt_comp <= dt_arr:
            advance(dt_comp)
            t += dt_comp
            done = ids[j_comp]
            completions[done] = t
            for lst in (ids, rem, alloc, spd):
                lst.pop(j_comp)
        else:
            advance(max(dt_arr, 0.0))
            t = float(arr_t[i_next])
            ids.append(i_next)
            rem.append(float(arr_x[i_next]))
            alloc.append(0.0)
            spd.append(0.0)
            i_next += 1
        reallocate()
        k_now = (pool if equal_split else math.fsum(alloc)) if ids else 0.0
        if t == seg_times[-1]:
            seg_k[-1] = k_now
        else:
            seg_times.append(t)
            seg_k.append(k_now)

    return {
        "completions": completions,
        "gpu_hours": gpu_hours,
        "work_done": work_done,
        "seg_times": np.array(seg_times),
        "seg_k": np.array(seg_k),
    }
