"""Job-type populations, synthetic arrival traces, and trace files.

A workload is a list of job types (speedup function, arrival rate, size
distribution) plus a GPU budget.  Traces are concrete arrival sequences,
either generated here (Poisson or periodic arrivals, i.i.d. sizes) or read
from CSV files with header ``arrival_time,type,size``.

Specs and traces are immutable after construction; trace generation is a
pure function of (spec, job_count, seed), so independent seeds can be
generated concurrently.

One writer, ``_write_rows``, writes trace files and the CLI's CSV files:
it opens the file, writes the header and asks the caller's formatter for
the text of one block of rows at a time.  Files are written, and traces
read, in contiguous ranges of rows, one per CPU the process may use: the
calling process does one range, and children forked by ``_fork.forked`` the
others.  Each row is formatted or parsed by the same code wherever it runs,
so files, traces and errors are byte for byte those of one process.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _fork
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
    try:
        mean = dist.mean
    except (OverflowError, ZeroDivisionError):  # past the range of a double
        mean = math.nan
    if not 0.0 < mean < math.inf:
        raise SpecError(f"{where}: size distribution mean is not positive and finite")


@dataclass(frozen=True)
class JobType:
    """One class of jobs: how it scales, how often it arrives, how big it is."""

    name: str
    speedup: SpeedupFunction
    arrival_rate: float  # jobs per hour
    size_dist: SizeDistribution  # single-GPU work-hours
    # Work arriving per hour, arrival_rate * mean job size, and the speed
    # s(1) at width 1: derived once, here.
    load: float = field(init=False, repr=False, compare=False)
    _speed_at_1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.arrival_rate > 0 and math.isfinite(self.arrival_rate)):
            raise SpecError(f"type {self.name!r}: arrival rate must be positive")
        _check_size_dist(self.size_dist, f"type {self.name!r}")
        load = self.arrival_rate * self.size_dist.mean
        object.__setattr__(self, "load", load)
        if not load < math.inf:
            raise SpecError(f"type {self.name!r}: load arrival_rate * mean size overflows")
        if not load > 0.0:  # its objective and usage terms would be 0, or 0 * inf
            raise SpecError(f"type {self.name!r}: load arrival_rate * mean size underflows to 0")
        object.__setattr__(self, "_speed_at_1", float(self.speedup._value(1.0)))

    @property
    def least_usage(self) -> float:
        """GPUs the type uses at width 1, load / s(1); the axioms make
        k / s(k) non-decreasing, so no width uses fewer."""
        return self.load / self._speed_at_1


@dataclass(frozen=True)
class WorkloadSpec:
    """The solver input: job types plus the time-average GPU budget.

    Derived once, here: ``loads``, each type's load as a read-only array;
    ``total_load``, the least GPU usage any plan reaches (every type at
    width 1); and ``total_rate``, the total arrival rate."""

    types: tuple[JobType, ...]
    budget: float
    loads: np.ndarray = field(init=False, repr=False, compare=False)
    total_load: float = field(init=False, repr=False, compare=False)
    total_rate: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.types) == 0:
            raise SpecError("workload needs at least one job type")
        object.__setattr__(self, "types", tuple(self.types))
        _check_budget(self.budget)
        loads = np.array([t.load for t in self.types])
        loads.flags.writeable = False
        with np.errstate(over="ignore"):
            total_load = float(np.array([t.least_usage for t in self.types]).sum())
            total_rate = float(np.array([t.arrival_rate for t in self.types]).sum())
        for name, value in (("loads", loads), ("total_load", total_load),
                            ("total_rate", total_rate)):
            object.__setattr__(self, name, value)
        if not total_load < math.inf:
            raise SpecError("total load overflows")
        if not total_rate < math.inf:  # every objective divides by it
            raise SpecError("total arrival rate overflows")
        for t in self.types:  # the objective at width 1 averages these by rate
            if not t.size_dist.mean / t._speed_at_1 < math.inf:
                raise SpecError(f"type {t.name!r}: mean response time at width 1, "
                                "mean size / s(1), overflows")
        # That average bounds every plan's objective, but can round past a
        # double when types' values lie near the largest one.
        if not total_load / total_rate < math.inf:
            raise SpecError("mean response time at width 1 overflows")

    def check_stability(self) -> None:
        """The system can only keep up if total load is strictly below budget."""
        _check_stable(self.total_load, self.budget)


def _check_budget(budget: float) -> None:
    if not (budget > 0 and math.isfinite(budget)):
        raise SpecError(f"budget must be positive and finite, got {budget}")


def _check_stable(load: float, budget: float) -> None:
    if load >= budget:
        raise InstabilityError(f"total load {load:.6g} >= budget {budget:.6g}")


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

    A row that breaks a rule of ``_first_bad_row`` is refused, named by its
    index.
    """

    arrival_times: np.ndarray
    type_indices: np.ndarray
    sizes: np.ndarray

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
    if job_count >= 2**63:  # also keeps job_count * rates below from overflowing
        raise SpecError(f"job count {job_count} is past int64")
    m = len(spec.types)
    if job_count == 0:
        return Trace(np.array([]), np.array([], dtype=np.int64), np.array([]))

    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(m)]
    rates = np.array([t.arrival_rate for t in spec.types])
    total = rates.sum()  # finite: WorkloadSpec refuses a total rate that overflows
    with np.errstate(over="ignore"):
        # Draw enough arrivals per type to cover the job_count-th merged
        # arrival, extending any stream that falls short (rare; bound is ~6
        # sigma).  Where job_count * rate overflows, take the share first.
        expect = job_count * rates / total
        if not np.all(expect < math.inf):
            expect = job_count * (rates / total)
    counts = np.ceil(expect + 6.0 * np.sqrt(expect) + 64)
    if not counts.max() < 2.0**63:  # the cast to int64 would wrap
        raise SpecError(
            f"job count {job_count} needs {counts.max():.6g} draws of a type, past int64"
        )
    # Every type's arrival times are merged into one array of doubles, and
    # numpy refuses one of more than 2**63 - 1 bytes.
    if not counts.sum() < 2.0**60:
        raise SpecError(
            f"job count {job_count} needs {counts.sum():.6g} draws, past the largest array"
        )
    counts = counts.astype(int)
    times: list[list[np.ndarray]] = [[] for _ in range(m)]  # chunks per type
    sizes: list[list[np.ndarray]] = [[] for _ in range(m)]
    last = [0.0] * m  # each stream's latest arrival

    def draw(i: int) -> None:
        """Extend type i's stream by counts[i] arrivals: gaps, then sizes."""
        if arrivals == "poisson":
            gaps = rngs[i].exponential(1.0 / rates[i], size=counts[i])
        else:
            gaps = np.full(counts[i], 1.0 / rates[i])
        t = last[i] + np.cumsum(gaps)
        last[i] = t[-1]
        times[i].append(t)
        sizes[i].append(spec.types[i].size_dist.sample(rngs[i], counts[i]))

    # A draw may overflow (a gap 1 / rate, an arrival time, a size); that is
    # refused below only if the row is kept.
    with np.errstate(over="ignore"):
        short = range(m)
        while short:
            for i in short:
                draw(i)
            all_times = np.concatenate([t for chunks in times for t in chunks])
            cut = np.partition(all_times, job_count - 1)[job_count - 1]
            short = [i for i in range(m) if last[i] < cut]

    all_types = np.repeat(np.arange(m, dtype=np.int64), [sum(map(len, c)) for c in times])
    all_sizes = np.concatenate([x for chunks in sizes for x in chunks])
    # Stable sort on time keeps tied events in type order, deterministically.
    order = np.argsort(all_times, kind="stable")[:job_count]
    t, ty, x = all_times[order], all_types[order], all_sizes[order]
    bad = ~((t < math.inf) & (x < math.inf))
    if bad.any():
        i = int(np.argmax(bad))
        jt = spec.types[ty[i]]
        if not t[i] < math.inf:
            raise SpecError(
                f"type {jt.name!r}: arrival time overflows at arrival rate {jt.arrival_rate:.6g}"
            )
        raise SpecError(f"type {jt.name!r}: a drawn size overflows")
    return Trace(t, ty, x)


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
# Rows of a trace block; a CLI CSV block holds this many values.
_BLOCK_ROWS = 8192


def _write_range(sink, lo: int, hi: int, block_rows: int, block_text):
    """Write rows [lo, hi) UTF-8 encoded to the binary file sink, one block
    of block_rows rows at a time, whose text ``block_text(lo, hi)`` gives
    as one string, and return sink.  A forked writer writes its range into
    one ``io.BytesIO`` and sends its buffer, so it holds the range once."""
    for start in range(lo, hi, block_rows):
        sink.write(block_text(start, min(start + block_rows, hi)).encode("utf-8"))
    return sink


def _write_rows(path, header: str, rows: int, block_rows: int, block_text, what: str) -> None:
    """Write the header line and rows [0, rows) to the file at path, where
    ``block_text(lo, hi)`` gives the text of rows [lo, hi), at most
    block_rows of them.

    The rows are split into W = min(blocks of block_rows rows, CPUs)
    contiguous ranges of whole blocks.  This process writes the first;
    each other range is made by a forked child (named ``what`` if it dies)
    into one buffer, which this process copies into the file once its own
    range is written, in order and in blocks, so it never holds a child's
    range.  The file gets the same bytes on any number of CPUs."""
    n_blocks = -(-rows // block_rows)
    workers = max(1, min(n_blocks, _fork.cpus()))
    cuts = [min(n_blocks * k // workers * block_rows, rows) for k in range(workers + 1)]
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("utf-8"))
        with _fork.forked(
            lambda span: _write_range(io.BytesIO(), *span, block_rows, block_text).getbuffer(),
            list(zip(cuts[1:], cuts[2:])), what,
        ) as children:
            _write_range(fh, cuts[0], cuts[1], block_rows, block_text)
            for child in children:
                child.result(fh)


def _trace_block(trace: Trace, lo: int, hi: int) -> str:
    """The CSV lines of trace rows [lo, hi); floats use repr, so reading
    them back is exact."""
    return "".join([
        f"{t!r},{ty},{x!r}\n"
        for t, ty, x in zip(trace.arrival_times[lo:hi].tolist(),
                            trace.type_indices[lo:hi].tolist(), trace.sizes[lo:hi].tolist())
    ])


def write_trace(trace: Trace, path) -> None:
    """Write a trace as CSV; floats use repr so reading it back is exact.
    A trace of more than _BLOCK_ROWS rows is formatted on every CPU (see
    ``_write_rows``)."""
    _write_rows(path, TRACE_HEADER, len(trace), _BLOCK_ROWS,
                lambda lo, hi: _trace_block(trace, lo, hi), "a trace writer worker")


# One trace row as numpy's C CSV reader parses it, on numpy >= 2 only.
_C_READER = np.lib.NumpyVersion(np.__version__) >= "2.0.0"
_TRACE_ROW = np.dtype([("arrival_time", np.float64), ("type", np.int64), ("size", np.float64)])
# The least body a trace reader's range holds: about _BLOCK_ROWS rows of
# ``write_trace``, whose rows take ~40 bytes.  A smaller body is read here
# alone, as forking would cost more than it saves.
_RANGE_BYTES = _BLOCK_ROWS * 40


def _check_header(fh) -> None:
    header = fh.readline().strip()
    if header != TRACE_HEADER:
        raise TraceError(f"expected header {TRACE_HEADER!r}, got {header!r}", line=1)


def _load_rows(fh) -> np.ndarray:
    """The rows of the text file fh from where it stands to its end, as
    _TRACE_ROW records, by numpy's C reader.  A text without a row that is
    not blank gives none: numpy warns on it."""
    start = fh.tell()
    if not any(line.strip() for line in iter(fh.readline, "")):
        return np.empty(0, dtype=_TRACE_ROW)
    fh.seek(start)
    return np.loadtxt(fh, delimiter=",", dtype=_TRACE_ROW, comments=None, ndmin=1)


def _line_end(fd: int, pos: int) -> int:
    """The offset just past the first newline at or after pos in the file
    fd, or its end; read without moving fd's offset."""
    while chunk := os.pread(fd, 65536, pos):
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return pos


def _load_range(path, span: tuple[int, int]) -> bytes:
    """``_load_rows`` of bytes [start, stop) of the file, as raw records.
    A range starts and ends at a line, so it decodes on its own, and its
    newlines are translated as a text file's are."""
    start, stop = span
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(stop - start)
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=None)
    return _load_rows(text).tobytes()


def read_trace(path) -> Trace:
    """Read a trace CSV, reporting the first offending line on bad input:
    a row that breaks a rule of ``Trace``, else a row that does not parse.

    On numpy >= 2, numpy's C reader parses the rows.  What it accepts, the
    line scanner ``_scan_trace`` accepts with the same values.  A file it
    refuses, or whose rows ``Trace`` refuses, is rescanned line by line:
    that names the faulty line, and still reads what only the scanner reads
    (``1_0``, unicode digits, whitespace-only lines).  A body without rows
    reads as the empty trace.  A body of two or more _RANGE_BYTES is cut at
    line ends into one range per CPU (at most): forked children parse all
    but the last, which this process parses, and send back the raw records.
    A range any of them refuses sends the whole file to the scanner, so the
    trace, or the error, is the same on any number of CPUs.  numpy 1.x
    accepts 1.0 in an int column with only a warning, so there the scanner
    reads every file."""
    if _C_READER:
        with open(path, "r", encoding="utf-8") as fh:
            _check_header(fh)
            body = fh.tell()
            size = os.fstat(fh.fileno()).st_size
            workers = max(1, min(_fork.cpus(), (size - body) // _RANGE_BYTES))
            cuts = [body] + [
                _line_end(fh.fileno(), body + (size - body) * k // workers)
                for k in range(1, workers)
            ]
            spans = list(zip(cuts, cuts[1:]))
            try:
                with _fork.forked(lambda span: _load_range(path, span), spans,
                                  "a trace reader worker") as children:
                    fh.seek(cuts[-1])
                    own = _load_rows(fh)
                    parts = [np.frombuffer(c.result(), dtype=_TRACE_ROW) for c in children]
                parts.append(own)
                columns = [np.concatenate([p[name] for p in parts]) for name in _TRACE_ROW.names]
                del parts, own  # before Trace copies the type column
                return Trace(*columns)
            except ValueError:  # TraceError is a ValueError
                pass
    return _scan_trace(path)


def _scan_trace(path) -> Trace:
    """``read_trace`` line by line, in Python: slow, but it names the first
    offending line of a faulty file."""
    times: list[float] = []
    types: list[int] = []
    sizes: list[float] = []
    fault = None  # (line, message) of the row that did not parse
    with open(path, "r", encoding="utf-8") as fh:
        _check_header(fh)
        for lineno, raw in enumerate(fh, start=2):
            row = raw.strip()
            if not row:
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
        raise TraceError(bad[1], line=_row_line(path, bad[0]))
    if fault is not None:
        raise TraceError(fault[1], line=fault[0])
    return Trace(*arrays)


def _row_line(path, row: int) -> int:
    """The line of the trace CSV at path that holds row ``row`` (0-based), past the
    blank lines the readers skip, read no further (row + 2 if there is no such row)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (n for n, text in enumerate(fh, start=1) if text.strip())  # the header is 1
        return next((n for i, n in enumerate(lines) if i > row), row + 2)


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
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{where}: {exc}") from None
    raise SpecError(f"{where}.kind: unknown size distribution {kind!r}")


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SpecError(f"{where}: expected a number") from None
    except OverflowError as exc:  # an integer past the range of a double
        raise SpecError(f"{where}: {exc}") from None


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
        rate = _number(entry["arrival_rate"], f"{where}.arrival_rate")
        types.append(
            JobType(
                name=str(entry["name"]),
                speedup=parse_speedup(entry["speedup"], where=f"{where}.speedup"),
                arrival_rate=rate,
                size_dist=_parse_size_dist(entry["size_dist"], where=f"{where}.size_dist"),
            )
        )
    return WorkloadSpec(types=tuple(types), budget=_number(doc["budget"], "budget"))


def load_spec(path) -> WorkloadSpec:
    """Read a workload config JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON: {exc}") from None
    except ValueError:  # Python's own cap on the digits of an integer literal
        raise SpecError(f"{path}: a number literal is too long") from None
    return spec_from_dict(doc)
