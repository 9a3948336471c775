"""Job-type populations, synthetic arrival traces, and trace files.

A workload is a list of job types (speedup function, arrival rate, size
distribution) plus a GPU budget.  Traces are concrete arrival sequences,
either generated here (Poisson or periodic arrivals, i.i.d. sizes) or read
from CSV files with header ``arrival_time,type,size``.

Specs and traces are immutable after construction; trace generation is a
pure function of (spec, job_count, seed), so independent seeds can be
generated concurrently.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, SpecError, TraceError
from .speedup import SpeedupFunction, parse_speedup


@dataclass(frozen=True)
class Deterministic:
    """Every job has exactly this size."""

    size: float

    @property
    def mean(self) -> float:
        return self.size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.size)


@dataclass(frozen=True)
class Exponential:
    mean_size: float

    @property
    def mean(self) -> float:
        return self.mean_size

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_size, size=n)


@dataclass(frozen=True)
class BoundedPareto:
    """Pareto distribution truncated to [lower, upper].

    The mean is computed in closed form; shape = 1 uses the logarithmic
    special case.
    """

    shape: float
    lower: float
    upper: float

    @property
    def mean(self) -> float:
        a, lo, hi = self.shape, self.lower, self.upper
        if a == 1.0:
            return lo * hi * math.log(hi / lo) / (hi - lo)
        norm = 1.0 - (lo / hi) ** a
        return (a / (a - 1.0)) * (lo ** a) * (lo ** (1.0 - a) - hi ** (1.0 - a)) / norm

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        a, lo, hi = self.shape, self.lower, self.upper
        u = rng.random(n)
        return lo / (1.0 - u * (1.0 - (lo / hi) ** a)) ** (1.0 / a)


@dataclass(frozen=True)
class Weibull:
    shape: float
    scale: float

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)


SizeDistribution = Deterministic | Exponential | BoundedPareto | Weibull


def _check_size_dist(dist: SizeDistribution, where: str) -> None:
    if not all(math.isfinite(v) for v in vars(dist).values()):
        raise SpecError(f"{where}: size distribution parameters must be finite")
    if isinstance(dist, Deterministic) and not dist.size > 0:
        raise SpecError(f"{where}: deterministic size must be positive")
    if isinstance(dist, Exponential) and not dist.mean_size > 0:
        raise SpecError(f"{where}: exponential mean must be positive")
    if isinstance(dist, BoundedPareto):
        if not (dist.shape > 0 and 0 < dist.lower < dist.upper):
            raise SpecError(f"{where}: bounded pareto needs shape > 0 and 0 < min < max")
    if isinstance(dist, Weibull) and not (dist.shape > 0 and dist.scale > 0):
        raise SpecError(f"{where}: weibull needs positive shape and scale")


@dataclass(frozen=True)
class JobType:
    """One class of jobs: how it scales, how often it arrives, how big it is."""

    name: str
    speedup: SpeedupFunction
    arrival_rate: float  # jobs per hour
    size_dist: SizeDistribution  # single-GPU work-hours

    def __post_init__(self):
        if not (self.arrival_rate > 0 and math.isfinite(self.arrival_rate)):
            raise SpecError(f"type {self.name!r}: arrival rate must be positive")
        _check_size_dist(self.size_dist, f"type {self.name!r}")

    @property
    def load(self) -> float:
        """Work arriving per hour: arrival_rate * mean job size."""
        return self.arrival_rate * self.size_dist.mean


@dataclass(frozen=True)
class WorkloadSpec:
    """The solver input: job types plus the time-average GPU budget."""

    types: tuple[JobType, ...]
    budget: float

    def __post_init__(self):
        if len(self.types) == 0:
            raise SpecError("workload needs at least one job type")
        object.__setattr__(self, "types", tuple(self.types))
        if not (self.budget > 0 and math.isfinite(self.budget)):
            raise SpecError(f"budget must be positive and finite, got {self.budget}")

    @property
    def loads(self) -> np.ndarray:
        return np.array([t.load for t in self.types])

    @property
    def total_load(self) -> float:
        return float(self.loads.sum())

    @property
    def total_rate(self) -> float:
        return float(sum(t.arrival_rate for t in self.types))

    def check_stability(self) -> None:
        """The system can only keep up if total load is strictly below budget."""
        if self.total_load >= self.budget:
            raise InstabilityError(
                f"total load {self.total_load:.6g} >= budget {self.budget:.6g}"
            )


def _first_bad_row(t: np.ndarray, ty: np.ndarray, x: np.ndarray) -> tuple[int, str] | None:
    """The trace row rules, in one vectorised pass: (index of the first row
    that breaks one, why), or None.  A row's rules, in the order checked:
    the arrival is finite and >= 0, arrivals do not decrease, the type
    index is an int64 integer (so finite) and >= 0, the size is finite and
    > 0."""
    back = np.zeros(len(t), dtype=bool)
    back[1:] = t[1:] < t[:-1]
    broken = np.array([
        ~((t >= 0.0) & (t < math.inf)),
        back,
        ~((ty == np.floor(ty)) & (np.abs(ty) < 2**63)),
        ty < 0,
        ~((x > 0.0) & (x < math.inf)),
    ])
    bad = broken.any(axis=0)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    t_i = float(t[i])
    return i, (
        f"arrival time {t_i!r} is negative or not finite",
        f"arrival time {t_i!r} is before previous {float(t[i - 1])!r}",
        f"type index {ty[i]} is not an int64 integer",
        f"negative type index {ty[i]}",
        f"size {float(x[i])!r} is not positive and finite",
    )[int(np.argmax(broken[:, i]))]


@dataclass(frozen=True, eq=False)
class Trace:
    """A finite arrival sequence: parallel arrays sorted by arrival time.

    ``seed`` records the generator seed for provenance and is 0 for traces
    read from files; it is excluded from equality.  A row that breaks a
    rule of ``_first_bad_row`` is refused, named by its index.
    """

    arrival_times: np.ndarray
    type_indices: np.ndarray
    sizes: np.ndarray
    seed: int = 0

    def __post_init__(self):
        t = np.asarray(self.arrival_times, dtype=float)
        ty = np.asarray(self.type_indices)
        if ty.dtype.kind not in "iu":  # floats, bools, Python ints beyond int64
            ty = ty.astype(float)
        x = np.asarray(self.sizes, dtype=float)
        if not (len(t) == len(ty) == len(x)):
            raise TraceError("arrival_times, type_indices and sizes must have equal length")
        bad = _first_bad_row(t, ty, x)
        if bad is not None:
            raise TraceError(f"row {bad[0]}: {bad[1]}")
        object.__setattr__(self, "arrival_times", t)
        object.__setattr__(self, "type_indices", ty.astype(np.int64))
        object.__setattr__(self, "sizes", x)

    def __len__(self) -> int:
        return len(self.arrival_times)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.arrival_times, other.arrival_times)
            and np.array_equal(self.type_indices, other.type_indices)
            and np.array_equal(self.sizes, other.sizes)
        )

    def check_against(self, spec: WorkloadSpec) -> None:
        if len(self) and int(self.type_indices.max()) >= len(spec.types):
            raise TraceError(
                f"trace references type {int(self.type_indices.max())} "
                f"but the workload has only {len(spec.types)} types"
            )


@dataclass(frozen=True)
class LoadEstimate:
    """Per-type empirical rates measured from a trace."""

    arrival_rate: float
    mean_size: float
    load: float


def generate_trace(
    spec: WorkloadSpec,
    job_count: int,
    seed: int,
    arrivals: str = "poisson",
) -> Trace:
    """Generate the first ``job_count`` arrivals of the workload's job streams.

    Each type gets an independent RNG stream spawned from ``seed``, so the
    result is a pure function of (spec, job_count, seed).  ``arrivals`` is
    "poisson" (exponential inter-arrivals, the canonical well-behaved
    instance) or "periodic" (inter-arrival exactly 1/rate).
    """
    if arrivals not in ("poisson", "periodic"):
        raise SpecError(f"unknown arrival process {arrivals!r}")
    if job_count < 0:
        raise SpecError("job_count must be >= 0")
    m = len(spec.types)
    if job_count == 0:
        return Trace(np.array([]), np.array([], dtype=np.int64), np.array([]), seed=seed)

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(m)]
    rates = np.array([t.arrival_rate for t in spec.types])
    # Draw enough arrivals per type to cover the job_count-th merged arrival,
    # extending any stream that falls short (rare; bound is ~6 sigma).
    expect = job_count * rates / rates.sum()
    counts = np.ceil(expect + 6.0 * np.sqrt(expect) + 64).astype(int)
    times: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    for i, jt in enumerate(spec.types):
        if arrivals == "poisson":
            gaps = rngs[i].exponential(1.0 / rates[i], size=counts[i])
        else:
            gaps = np.full(counts[i], 1.0 / rates[i])
        times.append(np.cumsum(gaps))
        sizes.append(jt.size_dist.sample(rngs[i], counts[i]))

    while True:
        merged = np.concatenate(times)
        cut = np.partition(merged, job_count - 1)[job_count - 1]
        short = [i for i in range(m) if times[i][-1] < cut]
        if not short:
            break
        for i in short:
            n_more = counts[i]
            if arrivals == "poisson":
                gaps = rngs[i].exponential(1.0 / rates[i], size=n_more)
            else:
                gaps = np.full(n_more, 1.0 / rates[i])
            times[i] = np.append(times[i], times[i][-1] + np.cumsum(gaps))
            sizes[i] = np.append(sizes[i], spec.types[i].size_dist.sample(rngs[i], n_more))

    all_times = np.concatenate(times)
    all_types = np.concatenate([np.full(len(t), i, dtype=np.int64) for i, t in enumerate(times)])
    all_sizes = np.concatenate(sizes)
    # Stable sort on time keeps tied events in type order, deterministically.
    order = np.argsort(all_times, kind="stable")[:job_count]
    return Trace(all_times[order], all_types[order], all_sizes[order], seed=seed)


def empirical_loads(trace: Trace, spec: WorkloadSpec) -> list[LoadEstimate]:
    """Estimate per-type arrival rate, mean size, and load from a trace.

    The horizon is the last arrival time; a trace whose arrivals all sit at
    t = 0 has no usable horizon and is rejected.
    """
    if len(trace) == 0:
        raise TraceError("cannot estimate rates from an empty trace")
    trace.check_against(spec)
    horizon = float(trace.arrival_times[-1])
    if horizon <= 0.0:
        raise TraceError("trace horizon is zero; rates are undefined")
    out = []
    for i in range(len(spec.types)):
        mask = trace.type_indices == i
        n = int(mask.sum())
        if n == 0:
            out.append(LoadEstimate(0.0, 0.0, 0.0))
            continue
        rate = n / horizon
        mean = float(trace.sizes[mask].mean())
        out.append(LoadEstimate(rate, mean, rate * mean))
    return out


TRACE_HEADER = "arrival_time,type,size"


def write_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; floats use repr so reading it back is exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        columns = (trace.arrival_times.tolist(), trace.type_indices.tolist(), trace.sizes.tolist())
        for t, ty, x in zip(*columns):
            fh.write(f"{t!r},{ty},{x!r}\n")


def read_trace(path) -> Trace:
    """Read a trace CSV, reporting the first offending line on bad input:
    a row that breaks a rule of ``Trace``, else a row that does not parse."""
    times: list[float] = []
    types: list[int] = []
    sizes: list[float] = []
    blank_at: list[int] = []  # rows read before each skipped blank line
    fault = None  # (line, message) of the row that did not parse
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise TraceError(f"expected header {TRACE_HEADER!r}, got {header!r}", line=1)
        for lineno, raw in enumerate(fh, start=2):
            row = raw.strip()
            if not row:
                blank_at.append(len(times))
                continue
            parts = row.split(",")
            if len(parts) != 3:
                fault = lineno, f"expected 3 fields, got {len(parts)}"
                break
            try:
                t, ty, x = float(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                fault = lineno, f"could not parse row {row!r}"
                break
            if not -(2**63) <= ty < 2**63:
                fault = lineno, f"type index {ty} is not an int64 integer"
                break
            times.append(t)
            types.append(ty)
            sizes.append(x)
    arrays = np.array(times), np.array(types, dtype=np.int64), np.array(sizes)
    bad = _first_bad_row(*arrays)
    if bad is not None:
        i, reason = bad
        raise TraceError(reason, line=i + 2 + bisect_right(blank_at, i))
    if fault is not None:
        raise TraceError(fault[1], line=fault[0])
    return Trace(*arrays, seed=0)


def _parse_size_dist(obj, where: str) -> SizeDistribution:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"{where}: expected an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "deterministic":
            return Deterministic(float(obj["x"]))
        if kind == "exponential":
            return Exponential(float(obj["mean"]))
        if kind == "bounded_pareto":
            return BoundedPareto(float(obj["shape"]), float(obj["min"]), float(obj["max"]))
        if kind == "weibull":
            return Weibull(float(obj["shape"]), float(obj["scale"]))
    except KeyError as exc:
        raise SpecError(f"{where}: missing field {exc.args[0]!r} for kind {kind!r}") from None
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{where}: {exc}") from None
    raise SpecError(f"{where}.kind: unknown size distribution {kind!r}")


def spec_from_dict(doc) -> WorkloadSpec:
    """Build a WorkloadSpec from the parsed config document."""
    if not isinstance(doc, dict):
        raise SpecError("config root must be an object")
    if "types" not in doc or "budget" not in doc:
        raise SpecError("config must have 'types' and 'budget' fields")
    if not isinstance(doc["types"], list) or not doc["types"]:
        raise SpecError("'types' must be a non-empty list")
    types = []
    for i, entry in enumerate(doc["types"]):
        where = f"types[{i}]"
        if not isinstance(entry, dict):
            raise SpecError(f"{where}: expected an object")
        for field in ("name", "speedup", "arrival_rate", "size_dist"):
            if field not in entry:
                raise SpecError(f"{where}: missing field {field!r}")
        try:
            rate = float(entry["arrival_rate"])
        except (TypeError, ValueError):
            raise SpecError(f"{where}.arrival_rate: expected a number") from None
        types.append(
            JobType(
                name=str(entry["name"]),
                speedup=parse_speedup(entry["speedup"], where=f"{where}.speedup"),
                arrival_rate=rate,
                size_dist=_parse_size_dist(entry["size_dist"], where=f"{where}.size_dist"),
            )
        )
    try:
        budget = float(doc["budget"])
    except (TypeError, ValueError):
        raise SpecError("budget: expected a number") from None
    return WorkloadSpec(types=tuple(types), budget=budget)


def load_spec(path) -> WorkloadSpec:
    """Read a workload config JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from None
    return spec_from_dict(doc)
