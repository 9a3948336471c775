"""Tests of the benchmark itself: its checks reject wrong answers, its names
fit the result format, and a tiny pass of every workload completes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _built(name, tmp_path, seed=7):
    wl = workloads.build(name, ROOT, seed, tmp_path, tiny=True)
    first = run.run_pass(wl)
    assert first.rcs == [0] * len(wl.commands)
    assert wl.check(first.stdouts) == {}
    return wl, first


def test_altered_trace_row_is_rejected(tmp_path):
    wl, first = _built("trace-replay", tmp_path)
    trace_file = wl.commands[0].files[0]
    lines = trace_file.read_text().splitlines(keepends=True)
    t, ty, x = lines[10].strip().split(",")
    lines[10] = f"{t},{ty},{float(x) * 1.5!r}\n"
    trace_file.write_text("".join(lines))
    assert 0 in wl.check(first.stdouts)


def test_over_budget_allocation_is_rejected(tmp_path):
    wl, first = _built("frontier-smooth", tmp_path)
    stdouts = list(first.stdouts)
    alloc = json.loads(stdouts[1])
    alloc["budget_used"] *= 1.01
    stdouts[1] = json.dumps(alloc)
    assert 1 in wl.check(stdouts)

    alloc = json.loads(first.stdouts[2])
    alloc["ks"] = [k * 1.05 for k in alloc["ks"]]  # claims the old usage, uses more
    stdouts = list(first.stdouts)
    stdouts[2] = json.dumps(alloc)
    assert 2 in wl.check(stdouts)


def test_non_monotone_frontier_is_rejected(tmp_path):
    wl, first = _built("frontier-tabular", tmp_path)
    lines = first.stdouts[0].splitlines()
    a, b = lines[2].split(","), lines[5].split(",")
    a[1], b[1] = b[1], a[1]  # a larger budget now has the worse objective
    lines[2], lines[5] = ",".join(a), ",".join(b)
    stdouts = ["\n".join(lines) + "\n"] + first.stdouts[1:]
    assert 0 in wl.check(stdouts)


def test_pool_overrun_is_rejected(tmp_path):
    wl, first = _built("cluster-baselines", tmp_path)
    rows = first.stdouts[0].splitlines()
    parts = rows[2].split(",")  # cluster:8
    parts[3] = "8.5"
    rows[2] = ",".join(parts)
    assert 0 in wl.check(["\n".join(rows) + "\n"])


def test_output_that_changes_between_passes_counts_as_failed(tmp_path):
    wl, first = _built("cluster-baselines", tmp_path)
    second = run.run_pass(wl)
    assert run.count_failures(wl, [first, second], {}) == 0
    second.digests[0] = "different"
    assert run.count_failures(wl, [first, second], {}) == 1
    assert run.count_failures(wl, [first, second], {0: ["bad"]}) == 2


def test_times_are_scaled_by_the_reference_around_them():
    nominal = hostspeed.REF_NOMINAL_S
    p = run.Pass(times=[1.0, 2.0], refs=[nominal, 2 * nominal, 2 * nominal],
                 rcs=[0, 0], stdouts=["", ""], digests=["", ""], out_bytes=[0, 0])
    # half speed across the second command halves it; the first sits across the change
    assert p.norm_times == pytest.approx([1.0 / 1.5, 1.0])
    assert p.wall == 3.0


def test_benchmark_names_fit_the_format():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_pass_completes_and_reports_every_metric(name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
