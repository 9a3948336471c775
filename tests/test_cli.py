import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpurental import (
    FixedWidth,
    SmallestRemainingFirst,
    budget_timeseries,
    load_spec,
    read_trace,
    simulate,
)
from gpurental.cli import _csv_rows, main

UNSTABLE_CONFIG = {
    "types": [
        {
            "name": "a",
            "speedup": {"kind": "amdahl", "p": 0.5},
            "arrival_rate": 2.0,
            "size_dist": {"kind": "deterministic", "x": 1.0},
        }
    ],
    "budget": 1.0,
}

SINGLE_POWER_CONFIG = {
    "types": [
        {
            "name": "sqrt",
            "speedup": {"kind": "power", "alpha": 0.5},
            "arrival_rate": 0.5,
            "size_dist": {"kind": "exponential", "mean": 1.0},
        }
    ],
    "budget": 1.0,
}


def write_config(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def read_csv(path, header):
    """The numeric rows of a CLI CSV as an (n, ncols) array, after checking
    its header line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    ncols = header.count(",") + 1
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, ncols)


# Finite floats the 12-digit format treats specially: signed zero, subnormals,
# the largest double, and integral values at and above 1e12, where ".12g"
# switches to exponent form.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 999999999999.0, 1e12,
               1e12 + 1, 123456789012345.0, 2.0 ** 53, 1e22]
CSV_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from(EDGE_FLOATS)
              | st.integers(10 ** 12, 10 ** 17).map(float))


@st.composite
def numeric_tables(draw):
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CSV_FLOATS, min_size=ncols, max_size=ncols), max_size=50))
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


@settings(max_examples=300, deadline=None)
@given(table=numeric_tables())
def test_csv_rows_match_per_value_format(table):
    reference = "".join(
        ",".join(format(float(x), ".12g") for x in row) + "\n" for row in table
    )
    assert "".join(_csv_rows(table)) == reference


class TestValidate:
    def test_two_type_passes(self, two_type_config_path, capsys):
        assert main(["validate", "--spec", two_type_config_path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_unstable_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, UNSTABLE_CONFIG)
        assert main(["validate", "--spec", path]) == 2
        assert "unstable" in capsys.readouterr().out

    def test_bad_speedup_exits_1(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SINGLE_POWER_CONFIG))
        doc["types"][0]["speedup"]["alpha"] = 2.0
        doc["budget"] = 100.0
        path = write_config(tmp_path, doc)
        assert main(["validate", "--spec", path]) == 1
        assert "sublinear=FAIL" in capsys.readouterr().out

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["validate", "--spec", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize(
        "point", [[math.nan, 2.0], [2.0, math.inf]], ids=["k-nan", "s-inf"]
    )
    def test_non_finite_tabular_point_exits_3(self, tmp_path, capsys, point):
        doc = json.loads(json.dumps(SINGLE_POWER_CONFIG))
        doc["types"][0]["speedup"] = {"kind": "tabular", "points": [[1.0, 1.0], point]}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--spec", path]) == 3
        assert "not finite" in capsys.readouterr().err

    def test_non_finite_size_param_exits_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SINGLE_POWER_CONFIG))
        doc["types"][0]["size_dist"] = {"kind": "deterministic", "x": math.inf}
        path = write_config(tmp_path, doc)
        assert main(["validate", "--spec", path]) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_bad_json_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--spec", str(p)]) == 3


class TestSolve:
    def test_closed_form_output(self, tmp_path, capsys):
        path = write_config(tmp_path, SINGLE_POWER_CONFIG)
        assert main(["solve", "--spec", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ks"][0] == pytest.approx(4.0, abs=1e-3)
        assert doc["objective"] == pytest.approx(0.5, abs=1e-3)
        assert doc["budget_used"] == pytest.approx(1.0, abs=1e-6)
        assert doc["cap_active"] is False

    def test_out_file(self, tmp_path, two_type_config_path):
        out = tmp_path / "alloc.json"
        assert main(["solve", "--spec", two_type_config_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ks"][0] == pytest.approx(6.0, abs=1e-3)
        assert doc["ks"][1] == pytest.approx(9.0, abs=1e-3)

    def test_unstable_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, UNSTABLE_CONFIG)
        assert main(["solve", "--spec", path]) == 2

    def test_k_max_flag(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SINGLE_POWER_CONFIG))
        doc["budget"] = 50.0
        path = write_config(tmp_path, doc)
        assert main(["solve", "--spec", path, "--k-max", "16"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ks"][0] == pytest.approx(16.0, rel=1e-6)
        assert out["cap_active"] is True


@pytest.mark.parametrize("k_max", ["nan", "inf", "0.5"])
@pytest.mark.parametrize(
    "command",
    [["validate"], ["solve"], ["pareto", "--b-min", "2", "--b-max", "3", "--points", "2"]],
    ids=["validate", "solve", "pareto"],
)
def test_bad_k_max_exits_3(two_type_config_path, capsys, command, k_max):
    rc = main(command + ["--spec", two_type_config_path, "--k-max", k_max])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: k_max must be finite and >= 1, got {float(k_max)}\n"


class TestGenTrace:
    def test_writes_csv(self, tmp_path, two_type_config_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(
            ["gen-trace", "--spec", two_type_config_path, "--jobs", "500", "--seed", "7",
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "arrival_time,type,size"
        assert len(lines) == 501

    def test_deterministic_bytes(self, tmp_path, two_type_config_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen-trace", "--spec", two_type_config_path, "--jobs", "300", "--seed", "9"]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_k_max_is_not_an_option(self, tmp_path, two_type_config_path, capsys):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["gen-trace", "--spec", two_type_config_path, "--jobs", "10", "--seed", "1",
                  "--out", str(out), "--k-max", "nan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k-max nan" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    @pytest.fixture()
    def trace_path(self, tmp_path, two_type_config_path):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "2000", "--seed", "3",
              "--out", str(out)])
        return str(out)

    def test_fixed_policy(self, two_type_config_path, trace_path, capsys):
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "fixed:6,9"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["job_count"] == 2000
        assert 0 < doc["mean_response_time"] < 1.0
        assert doc["time_avg_budget"] == pytest.approx(2.0, rel=0.1)

    def test_optimal_policy_matches_predictions(self, two_type_config_path, trace_path, capsys):
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "optimal"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mean_response_time"] == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_per_job_and_timeseries_files(self, tmp_path, two_type_config_path, trace_path, capsys):
        per_job = tmp_path / "jobs.csv"
        series = tmp_path / "k.csv"
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "uniform:2", "--per-job", str(per_job),
             "--timeseries", str(series), "--timeseries-step", "10"]
        )
        assert rc == 0
        assert per_job.read_text().splitlines()[0] == "arrival,completion,response,gpu_hours"
        assert len(per_job.read_text().splitlines()) == 2001
        assert series.read_text().splitlines()[0] == "t,K"

    def write_tie_heavy_trace(self, path):
        """40 jobs arriving in groups of four with sizes from a small set, so
        simultaneous arrivals and equal remaining work are common."""
        rows = [f"{(i // 4) * 0.5!r},{i % 2},{[0.5, 1.0, 2.0][i % 3]!r}" for i in range(40)]
        path.write_text("arrival_time,type,size\n" + "\n".join(rows) + "\n", encoding="utf-8")

    @pytest.mark.parametrize(
        "policy_text,policy,step",
        [("uniform:2", FixedWidth((2.0, 2.0)), 10.0),
         ("srf:8,4", SmallestRemainingFirst(8.0, 4.0), 0.25)],
        ids=["uniform-2000-jobs", "srf-tie-heavy"],
    )
    def test_per_job_and_timeseries_round_trip(self, tmp_path, two_type_config_path,
                                               trace_path, capsys, policy_text, policy, step):
        if policy_text.startswith("srf"):
            trace_path = tmp_path / "ties.csv"
            self.write_tie_heavy_trace(trace_path)
        per_job, series = tmp_path / "jobs.csv", tmp_path / "k.csv"
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(trace_path),
             "--policy", policy_text, "--per-job", str(per_job),
             "--timeseries", str(series), "--timeseries-step", repr(step)]
        )
        assert rc == 0
        spec, trace = load_spec(two_type_config_path), read_trace(str(trace_path))
        # 12 printed significant digits round each value by at most 5e-12 relative
        np.testing.assert_allclose(
            read_csv(per_job, "arrival,completion,response,gpu_hours"),
            simulate(trace, spec, policy).per_job, rtol=1e-11, atol=0,
        )
        np.testing.assert_allclose(
            read_csv(series, "t,K"), budget_timeseries(trace, spec, policy, step),
            rtol=1e-11, atol=0,
        )

    def test_empty_trace_writes_header_only(self, tmp_path, two_type_config_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("arrival_time,type,size\n", encoding="utf-8")
        per_job, series = tmp_path / "jobs.csv", tmp_path / "k.csv"
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
             "--policy", "srf:8,4", "--per-job", str(per_job), "--timeseries", str(series)]
        )
        assert rc == 0
        assert per_job.read_bytes() == b"arrival,completion,response,gpu_hours\n"
        assert series.read_bytes() == b"t,K\n0,0\n"

    def test_cluster_and_srf_policies(self, two_type_config_path, trace_path, capsys):
        for policy in ("cluster:4", "srf:4,2"):
            rc = main(
                ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
                 "--policy", policy]
            )
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["job_count"] == 2000

    def test_bad_policy_exits_3(self, two_type_config_path, trace_path, capsys):
        capsys.readouterr()
        for policy in ("magic:1", "fixed:nan,2", "uniform:nan", "uniform:inf", "cluster:nan",
                       "cluster:inf", "srf:nan,2", "srf:8,nan", "srf:8,inf"):
            rc = main(
                ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
                 "--policy", policy]
            )
            assert rc == 3, policy
            out, err = capsys.readouterr()
            assert out == "", policy
            assert err.startswith("error: ") and err.count("\n") == 1, policy

    @pytest.mark.parametrize("k_max", ["nan", "inf"])
    def test_bad_k_max_with_optimal_exits_3(self, two_type_config_path, trace_path, capsys,
                                            k_max):
        capsys.readouterr()
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "optimal", "--k-max", k_max]
        )
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: k_max must be finite and >= 1, got {k_max}\n")

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_timeseries_step_exits_3(self, tmp_path, two_type_config_path,
                                                trace_path, capsys, step):
        capsys.readouterr()
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "uniform:2", "--timeseries", str(tmp_path / "k.csv"),
             "--timeseries-step", step]
        )
        assert rc == 3
        out, err = capsys.readouterr()
        assert "nan" not in out.lower() and "infinity" not in out.lower()
        assert err == f"error: sample_step must be positive and finite, got {step}\n"
        assert not (tmp_path / "k.csv").exists()

    def test_negative_type_index_exits_3(self, tmp_path, two_type_config_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("arrival_time,type,size\n0.25,0,1.0\n\n0.5,-1,1.0\n",
                         encoding="utf-8")
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
             "--policy", "uniform:2"]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: line 4: negative type index -1\n"

    def test_too_many_timeseries_samples_exits_3(self, tmp_path, two_type_config_path,
                                                 trace_path, capsys):
        capsys.readouterr()
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "uniform:2", "--timeseries", str(tmp_path / "k.csv"),
             "--timeseries-step", "1e-20"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: sample_step 1e-20 needs ") and err.count("\n") == 1
        assert "samples over horizon" in err and "more than 10000000" in err
        assert not (tmp_path / "k.csv").exists()

    def test_type_beyond_int64_exits_3(self, tmp_path, two_type_config_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("arrival_time,type,size\n0.1,0,1\n0.2,99999999999999999999,1\n",
                         encoding="utf-8")
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
             "--policy", "uniform:1"]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: line 3: type index 99999999999999999999 is not an int64 integer\n"
        )

    @pytest.mark.parametrize("row", ["nan,0,1.0", "inf,0,1.0", "0.5,1,nan", "0.5,1,inf"])
    def test_non_finite_trace_value_exits_3(self, tmp_path, two_type_config_path, capsys, row):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"arrival_time,type,size\n0.25,0,1.0\n{row}\n", encoding="utf-8")
        for policy in ("uniform:2", "cluster:4"):
            rc = main(
                ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
                 "--policy", policy]
            )
            assert rc == 3
            assert "line 3" in capsys.readouterr().err

    def test_missing_trace_exits_3(self, two_type_config_path, tmp_path):
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(tmp_path / "no.csv"),
             "--policy", "uniform:1"]
        )
        assert rc == 3


class TestPareto:
    def test_frontier_csv(self, tmp_path, two_type_config_path):
        out = tmp_path / "front.csv"
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min", "1.0", "--b-max", "4.0",
             "--points", "7", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "budget,mean_response_time,k_1,k_2"
        assert len(lines) == 8
        ets = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a for a, b in zip(ets, ets[1:]))

    def test_partial_frontier_with_errors(self, tmp_path, two_type_config_path, capsys):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min", "0.5", "--b-max", "2.0",
             "--points", "4"]
        )
        assert rc == 0  # at least one point succeeded
        out = capsys.readouterr().out.splitlines()
        assert "error" in out[1]
        assert "error" not in out[-1]

    def test_all_infeasible_exits_2(self, tmp_path, two_type_config_path, capsys):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min", "0.1", "--b-max", "0.5",
             "--points", "3"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "b_min,b_max",
        [("nan", "4"), ("inf", "4"), ("-inf", "4"), ("1", "nan"), ("1", "inf"), ("1", "-inf"),
         ("-1e308", "1e308")],
    )
    def test_non_finite_budget_bound_exits_3(self, two_type_config_path, capsys, b_min, b_max):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--points", "3",
             f"--b-min={b_min}", f"--b-max={b_max}"]
        )
        assert rc == 3
        assert capsys.readouterr() == (
            "",
            "error: --b-min, --b-max and their difference must be finite, "
            f"got {float(b_min)} and {float(b_max)}\n",
        )

    def test_non_positive_finite_budget_is_a_row_error(self, two_type_config_path, capsys):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min=-1", "--b-max", "4",
             "--points", "2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "-1,error: budget must be positive and finite; got -1.0,,"
        assert lines[2].startswith("4,") and "error" not in lines[2]


class TestCompare:
    def test_comparison_csv(self, tmp_path, two_type_config_path):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "1000", "--seed", "5",
              "--out", str(trace)])
        out = tmp_path / "cmp.csv"
        rc = main(
            ["compare", "--spec", two_type_config_path, "--trace", str(trace),
             "--policies", "optimal;uniform:1;fixed:6,9;cluster:4", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "policy,job_count,mean_response_time,time_avg_budget,total_gpu_hours"
        assert len(lines) == 5
        assert lines[1].startswith("optimal,1000,")

    def test_empty_policy_list_exits_3(self, tmp_path, two_type_config_path):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "10", "--seed", "5",
              "--out", str(trace)])
        rc = main(
            ["compare", "--spec", two_type_config_path, "--trace", str(trace), "--policies", ""]
        )
        assert rc == 3


class TestDeterminism:
    def test_solve_stdout_identical(self, two_type_config_path, capsys):
        main(["solve", "--spec", two_type_config_path])
        first = capsys.readouterr().out
        main(["solve", "--spec", two_type_config_path])
        second = capsys.readouterr().out
        assert first == second

    def test_simulate_stdout_identical(self, tmp_path, two_type_config_path, capsys):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "500", "--seed", "2",
              "--out", str(trace)])
        capsys.readouterr()
        argv = ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
                "--policy", "optimal"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
