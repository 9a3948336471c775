import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from gpurental import cli, simulator
from gpurental.cli import _csv_rows, main

FOUR_TYPE_TABULAR = Path(__file__).resolve().parents[1] / "perfbench" / "four_type_tabular.json"
TWO_TYPE = Path(__file__).resolve().parents[1] / "configs" / "two_type.json"

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


# Stands for an integer literal of 5,001 digits in a written config.
LONG_LITERAL = "<5,001 digits>"


def edited(doc, where: tuple, value):
    """A deep copy of doc with the item at the key path ``where`` set to
    value; the empty path replaces the whole document."""
    doc = json.loads(json.dumps(doc))
    if not where:
        return value
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return doc


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
NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]
# Every double: "%.12g" must write what format(x, ".12g") writes, NaN and
# the infinities included.
CSV_FLOATS = (st.floats()
              | st.sampled_from(EDGE_FLOATS + NON_FINITE)
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


SMALL_BLOCK = 7  # rows per block in the block-boundary tests


@pytest.mark.parametrize("rows", [0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                                  3 * SMALL_BLOCK + 7])
def test_write_csv_blocks_match_per_row_format(tmp_path, monkeypatch, rows):
    # A block holds _BLOCK_ROWS values: SMALL_BLOCK rows of three columns.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3 * SMALL_BLOCK)
    values = np.resize(np.array(EDGE_FLOATS + NON_FINITE + [0.1, -2.5, 1 / 3]), rows * 3)
    table = values.reshape(rows, 3)
    path = tmp_path / "t.csv"
    cli._write_csv(path, "a,b,c", table)
    reference = "a,b,c\n" + "".join(
        ",".join(format(float(x), ".12g") for x in row) + "\n" for row in table
    )
    assert path.read_bytes() == reference.encode("utf-8")


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # One block of ~8192 values is alive at a time: its Python floats, their
    # tuple, the block's template and its text, ~0.5 MB in all, where the
    # whole table's floats would be ~13 MB.
    table = np.random.default_rng(3).random((100_000, 4)) * 1e3
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "big.csv", "a,b,c,d", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ((), [1], "config root must be an object"),
            (("types",), [], "'types' must be a non-empty list"),
            (("types", 0), "sqrt", "types[0]: expected an object"),
            (("types", 0, "arrival_rate"), "fast", "types[0].arrival_rate: expected a number"),
            (("budget",), "lots", "budget: expected a number"),
            (("types", 0, "size_dist"), {"kind": "lognormal"},
             "types[0].size_dist.kind: unknown size distribution 'lognormal'"),
            (("types", 0, "size_dist"), {"kind": "exponential", "mean": "big"},
             "types[0].size_dist: could not convert string to float: 'big'"),
            (("types", 0, "size_dist"), {"kind": "exponential", "mean": 0},
             "type 'sqrt': exponential mean must be positive"),
            (("types", 0, "size_dist"), {"kind": "weibull", "shape": 0, "scale": 1},
             "type 'sqrt': weibull needs positive shape and scale"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": "1,1"},
             "types[0].speedup.points: expected a list of [k, s] pairs"),
            # float() of an integer past the range of a double raises
            # OverflowError, not ValueError.
            (("types", 0, "arrival_rate"), 10**400,
             "types[0].arrival_rate: int too large to convert to float"),
            (("budget",), 10**400, "budget: int too large to convert to float"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": [[1, 1], [10**400, 2]]},
             "types[0].speedup: int too large to convert to float"),
            (("types", 0, "size_dist", "mean"), 10**400,
             "types[0].size_dist: int too large to convert to float"),
            # Python's json refuses an integer literal of more than 4,300
            # digits before any field is read.
            (("budget",), LONG_LITERAL, "{path}: a number literal is too long"),
        ],
        ids=["root", "no-types", "type-entry", "arrival-rate", "budget", "size-kind",
             "size-field", "exponential-mean", "weibull-shape", "tabular-points",
             "huge-arrival-rate", "huge-budget", "huge-table-point", "huge-size-param",
             "long-literal"],
    )
    def test_malformed_spec_exits_3(self, tmp_path, capsys, where, value, message):
        path = write_config(tmp_path, edited(SINGLE_POWER_CONFIG, where, value))
        if value == LONG_LITERAL:  # json.dumps cannot write it either
            text = Path(path).read_text(encoding="utf-8")
            Path(path).write_text(text.replace(f'"{LONG_LITERAL}"', "9" * 5001), encoding="utf-8")
        assert main(["validate", "--spec", path]) == 3
        assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")

    def test_bad_json_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--spec", str(p)]) == 3

    @pytest.mark.parametrize("command", [["validate"], ["solve"]], ids=["validate", "solve"])
    def test_last_knot_near_the_largest_double_warns_nothing(self, tmp_path, capsys, command):
        # Twice the last knot overflows; the width past it must stay finite,
        # or the concavity check divides inf by inf.  The suite raises any
        # RuntimeWarning, so a warning fails here.
        doc = edited(SINGLE_POWER_CONFIG, ("types", 0, "speedup"),
                     {"kind": "tabular", "points": [[1, 1], [1e308, 2]]})
        assert main(command + ["--spec", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_power_whose_speed_overflows_fails_sublinearity(self, tmp_path, capsys, command):
        # 2**1100 is past the largest double, so s(2) = inf, and
        # inf - 1 > REL_TOL * inf is false: the infinite speed itself must
        # fail.  The suite raises any RuntimeWarning, so a warning fails here.
        doc = edited(SINGLE_POWER_CONFIG, ("types", 0, "speedup", "alpha"), 1100)
        assert main([command, "--spec", write_config(tmp_path, doc)]) == 1
        detail = "s(1)/1 = 1 < s(2)/2 = inf"
        assert capsys.readouterr() == (
            (
                "type 'sqrt': monotone=pass sublinear=FAIL concave=pass normalized=pass\n"
                f"  sublinear: {detail}\n"
                "stability: total load 0.5 < budget 1\n"
                "FAILED: speedup axioms violated\n",
                "",
            )
            if command == "validate"
            else ("", f"error: type 'sqrt': speedup is not sublinear: {detail}\n")
        )

    @pytest.mark.parametrize("k_max", ["0.5", "inf", "nan", "16"])
    def test_k_max_is_not_an_option(self, two_type_config_path, capsys, k_max):
        # The axioms are decided for all k >= 1, so no cap applies.
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--spec", two_type_config_path, "--k-max", k_max])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: --k-max {k_max}" in err


class TestParserReuse:
    """``main`` builds its parser once per process; a parse failure leaves
    it as it was, so later calls print what a fresh process prints."""

    def fresh(self, argv, cwd):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-m", "gpurental", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    def test_outputs_match_a_fresh_process(self, tmp_path, two_type_config_path, capsys):
        out_file = tmp_path / "alloc.json"

        def written():
            data = out_file.read_bytes() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            return data

        runs = [["solve"], ["solve", "--spec", two_type_config_path, "--out", str(out_file)],
                ["solve", "--spec", two_type_config_path]]
        expected = [(*self.fresh(argv, tmp_path), written()) for argv in runs]
        assert expected[0][0] == 2 and "--spec" in expected[0][2]  # argparse's own exit

        assert cli._build_parser() is cli._build_parser()
        capsys.readouterr()
        for argv, want in zip(runs, expected):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert (rc, *capsys.readouterr(), written()) == want, argv


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

    def test_budget_at_a_tabular_vertex_is_spent(self, tmp_path, capsys):
        # This budget is what [4, 3, 3, 1] uses.  Its multiplier is 1, where
        # tabular-wide's width drops from 4 to 2; the plan keeps 4.
        doc = json.loads(FOUR_TYPE_TABULAR.read_text(encoding="utf-8"))
        doc["budget"] = 1.7150962003914323
        assert main(["solve", "--spec", write_config(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ks"] == [4.0, 3.0, 3.0, 1.0]
        assert out["budget_used"] == 1.71509620039

    def test_cap_near_the_largest_double_warns_nothing(self, two_type_config_path, capsys):
        # k**0.5's breakpoint c/k_max is subnormal there, and Amdahl's width
        # at it must not overflow.  The suite raises any RuntimeWarning, so
        # a warning fails here.
        assert main(["solve", "--spec", two_type_config_path, "--k-max", "1.7e308"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["ks"] == [6.0, 9.0]

    def test_usage_past_the_largest_double_at_mu_0_warns_nothing(self, tmp_path, capsys):
        # Three types at a cap of 1.7e308 use more than the largest double
        # together at mu = 0.  No budget meets that inf; summing to it must
        # not warn.
        amdahl = {"name": "a", "speedup": {"kind": "amdahl", "p": 0.5}, "arrival_rate": 1.0,
                  "size_dist": {"kind": "deterministic", "x": 1.0}}
        doc = {"types": [dict(amdahl, name=n) for n in "abc"], "budget": 4.0}
        path = write_config(tmp_path, doc)
        assert main(["solve", "--spec", path, "--k-max", "1.7e308"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["ks"] == [1.66666666667] * 3
        assert json.loads(out)["multiplier"] == 0.36

    @pytest.mark.parametrize("load", [1.7, 3.1, 7.7])
    def test_budget_one_ulp_above_the_load(self, tmp_path, capsys, load):
        # At this cap a p = 1 type's usage, load * (k / s(k)), rounds past
        # its load, and past a budget one ulp above it (1.7000000000000002
        # for 1.7), at every breakpoint.  The plan is served from the last
        # one, mu = inf.
        doc = {"types": [{"name": "linear", "speedup": {"kind": "amdahl", "p": 1.0},
                          "arrival_rate": load, "size_dist": {"kind": "deterministic", "x": 1}}],
               "budget": math.nextafter(load, math.inf)}
        rc = main(["solve", "--spec", write_config(tmp_path, doc), "--k-max", "1e300"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert not any(bad in out.lower() for bad in ("nan", "inf"))
        plan = json.loads(out)
        assert plan["ks"] == [1e300] and plan["multiplier"] == 0.0
        assert plan["budget_used"] <= doc["budget"] * (1 + 1e-12)

    def test_table_whose_usage_overflows_at_the_cap_warns_nothing(self, tmp_path, capsys):
        # k / s(k) is 1e300 / 1e-300 at the cap: an infinite slope in the
        # tabular envelope, a line that never wins.  The suite raises any
        # RuntimeWarning, so a warning fails here.
        tiny = {"kind": "tabular", "points": [[1, 1e-300]]}
        doc = {"types": [{"name": "tiny", "speedup": tiny, "arrival_rate": 1e-300,
                          "size_dist": {"kind": "deterministic", "x": 1}}],
               "budget": 2.0}
        rc = main(["solve", "--spec", write_config(tmp_path, doc), "--k-max", "1e300"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert json.loads(out)["ks"] == [1.0]

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
    [["solve"], ["pareto", "--b-min", "2", "--b-max", "3", "--points", "2"],
     ["simulate", "--policy", "fixed:2,2"], ["compare", "--policies", "cluster:4"]],
    ids=["solve", "pareto", "simulate-fixed", "compare-cluster"],
)
def test_bad_k_max_exits_3(tmp_path, two_type_config_path, capsys, command, k_max):
    # simulate and compare check the cap even when no policy solves.
    if command[0] in ("simulate", "compare"):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "10", "--seed", "5",
              "--out", str(trace)])
        capsys.readouterr()
        command = command + ["--trace", str(trace)]
    rc = main(command + ["--spec", two_type_config_path, "--k-max", k_max])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: k_max must be finite and >= 1, got {float(k_max)}\n"


class TestUnnormalizedSpeedup:
    """s(1) = 0.5: width 1 already uses 2 GPUs for load 1, so budgets below 2
    are unstable in every command, and larger ones solve."""

    @pytest.fixture()
    def path(self, tmp_path):
        slow = {
            "name": "slow",
            "speedup": {"kind": "tabular", "points": [[1, 0.5], [4, 1.5]]},
            "arrival_rate": 1,
            "size_dist": {"kind": "deterministic", "x": 1},
        }
        return write_config(tmp_path, {"types": [slow], "budget": 1.5})

    def test_validate_exits_2(self, path, capsys):
        assert main(["validate", "--spec", path]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[-2:] == [
            "stability: total load 2 >= budget 1.5", "FAILED: unstable workload"
        ]

    def test_solve_exits_2(self, path, capsys):
        assert main(["solve", "--spec", path]) == 2
        assert capsys.readouterr() == ("", "error: total load 2 >= budget 1.5\n")

    def test_pareto_solves_the_stable_budgets(self, path, capsys):
        rc = main(["pareto", "--spec", path, "--b-min", "1.2", "--b-max", "3", "--points", "4"])
        assert rc == 0
        assert capsys.readouterr() == (
            "budget,mean_response_time,k_1\n"
            "1.2,error: total load 2 >= budget 1.2,\n"
            "1.8,error: total load 2 >= budget 1.8,\n"
            "2.4,1.2,2\n"
            "3,0.666666666667,4\n",
            "",
        )


@pytest.mark.parametrize(
    "speedup, detail",
    [
        ({"kind": "power", "alpha": 1.5}, "s(1)/1 = 1 < s(2)/2 = 1.41421"),
        ({"kind": "tabular", "points": [[1, 1], [2, 1.1], [4, 3.5]]},
         "s(2)/2 = 0.55 < s(4)/4 = 0.875"),
    ],
    ids=["power-1.5", "convex-table"],
)
class TestAxiomFailures:
    """A stable spec whose first type fails the speedup axioms: every command
    that solves refuses it with exit 1; fixed widths still replay."""

    @pytest.fixture()
    def paths(self, tmp_path, speedup):
        exp = {"kind": "exponential", "mean": 1.0}
        doc = {
            "types": [
                {"name": "bad", "speedup": speedup, "arrival_rate": 0.5, "size_dist": exp},
                {"name": "amdahl", "speedup": {"kind": "amdahl", "p": 0.9},
                 "arrival_rate": 0.5, "size_dist": exp},
            ],
            "budget": 3.0,
        }
        spec = write_config(tmp_path, doc)
        trace = str(tmp_path / "t.csv")
        assert main(["gen-trace", "--spec", spec, "--jobs", "200", "--seed", "1",
                     "--out", trace]) == 0
        return spec, trace

    @pytest.mark.parametrize("command", [
        ["solve"],
        ["pareto", "--b-min", "2", "--b-max", "3", "--points", "3"],
        ["simulate", "--policy", "optimal"],
        ["compare", "--policies", "uniform:2;optimal"],
    ], ids=["solve", "pareto", "simulate", "compare"])
    def test_solving_commands_exit_1(self, paths, capsys, speedup, detail, command):
        spec, trace = paths
        capsys.readouterr()
        argv = command + ["--spec", spec]
        if command[0] in ("simulate", "compare"):
            argv += ["--trace", trace]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: type 'bad': speedup is not sublinear: {detail}\n")

    def test_validate_exits_1(self, paths, capsys, speedup, detail):
        capsys.readouterr()
        assert main(["validate", "--spec", paths[0]]) == 1
        assert f"  sublinear: {detail}\n" in capsys.readouterr().out

    def test_fixed_widths_still_replay(self, paths, capsys, speedup, detail):
        spec, trace = paths
        capsys.readouterr()
        assert main(["simulate", "--spec", spec, "--trace", trace, "--policy", "fixed:2,2"]) == 0
        assert json.loads(capsys.readouterr().out)["job_count"] == 200


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


class TestGenTraceOverflows:
    """A spec whose arrival rates or drawn values overflow a double is
    refused by gen-trace with exit 3 and one `error:` line, without a
    warning (the suite turns warnings into errors) and without writing."""

    @staticmethod
    def spec(tmp_path, *types):
        doc = {"types": [{"name": name, "speedup": {"kind": "power", "alpha": 0.5},
                          "arrival_rate": rate, "size_dist": size_dist}
                         for name, rate, size_dist in types],
               "budget": 2}
        return write_config(tmp_path, doc)

    def run(self, tmp_path, capsys, spec, jobs=100):
        out = tmp_path / "t.csv"
        rc = main(["gen-trace", "--spec", spec, "--jobs", str(jobs), "--seed", "1",
                   "--out", str(out)])
        stdout, err = capsys.readouterr()
        return rc, stdout, err, out

    def test_summed_arrival_rate_overflows(self, tmp_path, capsys):
        # Each rate is finite; their sum is not.
        tiny = {"kind": "deterministic", "x": 1e-300}
        spec = self.spec(tmp_path, ("a", 1e308, tiny), ("b", 1e308, tiny))
        rc, out, err, path = self.run(tmp_path, capsys, spec)
        assert (rc, out, err) == (3, "", "error: total arrival rate overflows\n")
        assert not path.exists()

    def test_subnormal_arrival_rate(self, tmp_path, capsys):
        # 1 / 1e-310 is past the largest double, so every gap is infinite.
        spec = self.spec(tmp_path, ("a", 1e-310, {"kind": "deterministic", "x": 1}))
        rc, out, err, path = self.run(tmp_path, capsys, spec)
        assert (rc, out) == (3, "")
        assert err == "error: type 'a': arrival time overflows at arrival rate 1e-310\n"
        assert not path.exists()

    def test_weibull_size_overflows(self, tmp_path, capsys):
        # Its mean, 1e308, is finite, but scale * a draw above ~1.8 is not.
        spec = self.spec(tmp_path, ("a", 1, {"kind": "weibull", "shape": 1, "scale": 1e308}))
        rc, out, err, path = self.run(tmp_path, capsys, spec)
        assert (rc, out, err) == (3, "", "error: type 'a': a drawn size overflows\n")
        assert not path.exists()

    def test_overflowing_stream_that_is_never_kept(self, tmp_path, capsys):
        # Type a's gaps are infinite, so none of its arrivals is among the
        # first 100: every row written is type b's.
        one = {"kind": "deterministic", "x": 1}
        spec = self.spec(tmp_path, ("a", 1e-310, one), ("b", 1, one))
        rc, out, err, path = self.run(tmp_path, capsys, spec)
        assert (rc, err) == (0, "")
        rows = read_csv(path, "arrival_time,type,size")
        assert len(rows) == 100 and set(rows[:, 1]) == {1.0}

    @pytest.mark.parametrize(
        "jobs, spec_doc, message",
        [
            (10**20, None, "is past int64"),
            (10**400, None, "is past int64"),
            # Below int64, but one type's draw count, the count plus six
            # standard deviations and 64, is not.
            (2**63 - 808, SINGLE_POWER_CONFIG, "needs 9.22337e+18 draws of a type, past int64"),
            # Each type's draw count is below int64, but their merged
            # arrival times would not fit in one numpy array.
            (2**63 - 1, None, "needs 9.22337e+18 draws, past the largest array"),
        ],
        ids=["1e20", "1e400", "draw-count", "array-size"],
    )
    def test_job_count_past_int64(self, tmp_path, capsys, two_type_config_path, jobs,
                                  spec_doc, message):
        spec = two_type_config_path if spec_doc is None else write_config(tmp_path, spec_doc)
        rc, out, err, path = self.run(tmp_path, capsys, spec, jobs=jobs)
        assert (rc, out, err) == (3, "", f"error: job count {jobs} {message}\n")
        assert not path.exists()

    def test_job_count_times_rate_overflows(self, tmp_path, capsys):
        # 1000 * 1e306 overflows though the rate, and each type's share of
        # the 1000 jobs, is finite.
        spec = self.spec(tmp_path, ("a", 1e306, {"kind": "deterministic", "x": 1e-310}))
        rc, out, err, path = self.run(tmp_path, capsys, spec, jobs=1000)
        assert (rc, err) == (0, "")
        assert len(read_csv(path, "arrival_time,type,size")) == 1000


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

    def test_simulate_replays_once(self, tmp_path, two_type_config_path, trace_path, capsys,
                                   monkeypatch):
        replay, calls = simulator._replay, []

        def counted(trace, spec, policy):
            calls.append(policy)
            return replay(trace, spec, policy)

        monkeypatch.setattr(simulator, "_replay", counted)
        monkeypatch.setattr(cli, "_replay", counted)
        per_job, series = tmp_path / "jobs.csv", tmp_path / "k.csv"
        capsys.readouterr()
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", "srf:8,4", "--per-job", str(per_job),
             "--timeseries", str(series), "--timeseries-step", "0.5"]
        )
        assert rc == 0
        assert calls == [SmallestRemainingFirst(8.0, 4.0)]
        # The bytes that separate simulate and budget_timeseries calls give.
        spec, trace, policy = load_spec(two_type_config_path), read_trace(trace_path), calls[0]
        metrics = simulate(trace, spec, policy)
        assert capsys.readouterr().out == cli._metrics_json(metrics)
        cli._write_csv(tmp_path / "jobs2.csv", "arrival,completion,response,gpu_hours",
                       metrics.per_job)
        cli._write_csv(tmp_path / "k2.csv", "t,K", budget_timeseries(trace, spec, policy, 0.5))
        assert per_job.read_bytes() == (tmp_path / "jobs2.csv").read_bytes()
        assert series.read_bytes() == (tmp_path / "k2.csv").read_bytes()

    @pytest.mark.parametrize("policy", ["srf:8,4", "cluster:4", "fixed:2,2"])
    def test_empty_trace_writes_header_only(self, tmp_path, two_type_config_path, capsys,
                                            policy):
        trace = tmp_path / "empty.csv"
        trace.write_text("arrival_time,type,size\n", encoding="utf-8")
        per_job, series = tmp_path / "jobs.csv", tmp_path / "k.csv"
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", str(trace),
             "--policy", policy, "--per-job", str(per_job), "--timeseries", str(series)]
        )
        assert rc == 0
        assert per_job.read_bytes() == b"arrival,completion,response,gpu_hours\n"
        assert series.read_bytes() == b"t,K\n0,0\n"

    @pytest.mark.parametrize("rows", ["", "0,0,1\n"], ids=["empty", "one-row"])
    def test_width_count_checked_on_every_trace(self, tmp_path, two_type_config_path, capsys,
                                                rows):
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n" + rows, encoding="utf-8")
        capsys.readouterr()
        for argv in (["simulate", "--policy", "fixed:2"],
                     ["compare", "--policies", "cluster:4;fixed:2"]):
            rc = main(argv + ["--spec", two_type_config_path, "--trace", str(trace)])
            out, err = capsys.readouterr()
            assert (rc, out) == (3, ""), argv
            assert err == "error: policy has 1 widths but workload has 2 types\n", argv

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

    @pytest.mark.parametrize("policy", ["fixed:a,2", "srf:8", "cluster:", "uniform:"])
    def test_unparsable_policy_arguments_exit_3(self, two_type_config_path, trace_path, capsys,
                                                policy):
        capsys.readouterr()
        rc = main(
            ["simulate", "--spec", two_type_config_path, "--trace", trace_path,
             "--policy", policy]
        )
        assert rc == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: bad policy arguments in {policy!r}: ")
        assert err.count("\n") == 1

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

    def test_no_points_exits_3(self, two_type_config_path, capsys):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min", "1", "--b-max", "2",
             "--points", "0"]
        )
        assert rc == 3
        assert capsys.readouterr() == ("", "error: --points must be >= 1\n")

    def test_non_positive_finite_budget_is_a_row_error(self, two_type_config_path, capsys):
        rc = main(
            ["pareto", "--spec", two_type_config_path, "--b-min=-1", "--b-max", "4",
             "--points", "2"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "-1,error: budget must be positive and finite; got -1.0,,"
        assert lines[2].startswith("4,") and "error" not in lines[2]


def edited_config(tmp_path, config_path, *edits):
    """The config at config_path with each (key path, value) edit applied,
    written to a new file."""
    with open(config_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for where, value in edits:
        doc = edited(doc, where, value)
    return write_config(tmp_path, doc, "edited.json")


def refuse_replays(monkeypatch):
    def refuse(*args):
        raise AssertionError("replayed before every pool was checked")

    monkeypatch.setattr(simulator, "_replay_cluster", refuse)
    monkeypatch.setattr(simulator, "_replay_fixed", refuse)


class TestPooledRefusals:
    """A pool at or below the total load exits 2, naming the policy, before
    any replay; a type whose speed at a granted width is not finite exits 3."""

    @pytest.fixture()
    def doubled(self, tmp_path, two_type_config_path):
        """two_type with both arrival rates doubled: total load 1.6."""
        return edited_config(tmp_path, two_type_config_path,
                             (("types", 0, "arrival_rate"), 0.8),
                             (("types", 1, "arrival_rate"), 0.8))

    @pytest.fixture()
    def trace_path(self, tmp_path, doubled):
        out = tmp_path / "t.csv"
        main(["gen-trace", "--spec", doubled, "--jobs", "2000", "--seed", "1",
              "--out", str(out)])
        return str(out)

    def test_simulate_unstable_pool_exits_2(self, doubled, trace_path, capsys, monkeypatch):
        refuse_replays(monkeypatch)
        capsys.readouterr()
        for policy, pool in (("cluster:1", "1"), ("srf:1.5,1", "1.5")):
            rc = main(["simulate", "--spec", doubled, "--trace", trace_path,
                       "--policy", policy])
            out, err = capsys.readouterr()
            assert (rc, out) == (2, ""), policy
            assert err == f"error: policy {policy!r}: total load 1.6 >= budget {pool}\n"

    def test_compare_names_the_unstable_policy_before_any_replay(
        self, doubled, trace_path, capsys, monkeypatch
    ):
        refuse_replays(monkeypatch)
        capsys.readouterr()
        rc = main(["compare", "--spec", doubled, "--trace", trace_path,
                   "--policies", "uniform:2;cluster:8;cluster:1;srf:1,1"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "error: policy 'cluster:1': total load 1.6 >= budget 1\n"

    def test_stable_pools_still_replay(self, doubled, trace_path, capsys):
        rc = main(["compare", "--spec", doubled, "--trace", trace_path,
                   "--policies", "cluster:1.7;srf:8,4"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_srf_pool_that_cannot_keep_up_exits_2(self, tmp_path, capsys, monkeypatch):
        # Total load 1.9 is below the pool of 2, but one job on 2 GPUs serves
        # at most s(2): the two types use 2.4835 GPUs at grant 2.  srf:2,1,
        # whose grants of 1 use 1.9, still replays.
        spec = edited_config(tmp_path, TWO_TYPE, (("types", 0, "arrival_rate"), 0.95),
                             (("types", 1, "arrival_rate"), 0.95))
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", spec, "--jobs", "200", "--seed", "1", "--out", str(trace)])
        capsys.readouterr()
        argv = ["simulate", "--spec", spec, "--trace", str(trace), "--policy"]
        assert main(argv + ["srf:2,1"]) == 0
        assert json.loads(capsys.readouterr().out)["job_count"] == 200
        refuse_replays(monkeypatch)
        rc = main(argv + ["srf:2,2"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "error: policy 'srf:2,2': usage 2.4835 at grant 2 >= pool 2\n"

    @pytest.mark.parametrize("policy", ["cluster:4", "srf:8,4", "fixed:4,4", "uniform:4"])
    def test_infinite_speed_exits_3(self, tmp_path, two_type_config_path, capsys, policy):
        # k**717 overflows a double at k = 4.
        spec = edited_config(tmp_path, two_type_config_path,
                             (("types", 1, "speedup", "alpha"), 717))
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n0,1,1\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["simulate", "--spec", spec, "--trace", str(trace), "--policy", policy])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == "error: type 'sqrt': speed at width 4 is not finite\n"


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


class TestOverflowingSpecs:
    """A size distribution whose mean, or a type whose load, is past the
    range of a double is a spec error (exit 3) in every command that loads
    the spec, not a traceback or an infinite load."""

    @pytest.mark.parametrize(
        "command",
        [["validate"], ["solve"], ["pareto", "--b-min", "2", "--b-max", "3", "--points", "2"]],
        ids=["validate", "solve", "pareto"],
    )
    @pytest.mark.parametrize(
        "size_dist, rate, message",
        [
            ({"kind": "weibull", "shape": 0.005, "scale": 1}, 0.4,
             "size distribution mean is not positive and finite"),  # gamma(201)
            ({"kind": "bounded_pareto", "shape": 30.5, "min": 1e-12, "max": 2e-12}, 0.4,
             "size distribution mean is not positive and finite"),  # min**-29.5
            ({"kind": "bounded_pareto", "shape": 1e-300, "min": 1, "max": 100}, 0.4,
             "size distribution mean is not positive and finite"),  # normaliser 0
            ({"kind": "deterministic", "x": 1e300}, 1e10,
             "load arrival_rate * mean size overflows"),
        ],
        ids=["weibull-mean", "bounded-pareto-mean", "bounded-pareto-normaliser", "load"],
    )
    def test_refused_with_exit_3(self, tmp_path, two_type_config_path, capsys,
                                 command, size_dist, rate, message):
        spec = edited_config(tmp_path, two_type_config_path,
                             (("types", 0, "size_dist"), size_dist),
                             (("types", 0, "arrival_rate"), rate))
        rc = main(command + ["--spec", spec])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == f"error: type 'amdahl': {message}\n"


    @pytest.mark.parametrize("command", [["validate"], ["solve"]], ids=["validate", "solve"])
    def test_total_load_overflow_exits_3(self, tmp_path, two_type_config_path, capsys,
                                         command):
        # Each type's load, 1e308, is finite; their sum is not.
        huge = {"kind": "deterministic", "x": 1e308}
        spec = edited_config(tmp_path, two_type_config_path,
                             (("types", 0, "size_dist"), huge), (("types", 0, "arrival_rate"), 1),
                             (("types", 1, "size_dist"), huge), (("types", 1, "arrival_rate"), 1))
        rc = main(command + ["--spec", spec])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (3, "", "error: total load overflows\n")


class TestHugeLoadOnAWideType:
    """A load near the top of the double range on a type whose k / s(k) is
    1 solves: its usage is load * (k / s(k)), which the cap k_max = 2**20
    cannot push past the range."""

    SPEC = {
        "types": [
            {
                "name": "linear",
                "speedup": {"kind": "power", "alpha": 1},
                "arrival_rate": 1,
                "size_dist": {"kind": "deterministic", "x": 1e303},
            }
        ],
        "budget": 1e304,
    }

    def test_solve_exits_0_within_budget(self, tmp_path, capsys):
        assert main(["solve", "--spec", write_config(tmp_path, self.SPEC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["budget_used"] == 1e303
        assert doc["budget_used"] <= 1e304
        assert doc["ks"] == [2.0 ** 20] and doc["cap_active"] is True

    def test_pareto_exits_0_within_budget(self, tmp_path, capsys):
        out = tmp_path / "front.csv"
        rc = main(["pareto", "--spec", write_config(tmp_path, self.SPEC),
                   "--b-min", "2e303", "--b-max", "1e304", "--points", "5", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out, "budget,mean_response_time,k_1")
        assert len(rows) == 5 and (rows[:, 2] == 2.0 ** 20).all()
        # A linear type uses its load, 1e303, at every width.
        assert (1e303 <= rows[:, 0]).all()


class TestNonFiniteReplay:
    """A job whose completion time or GPU-hours overflows is refused with
    exit 3, naming its trace line, under fixed and pooled policies alike."""

    @pytest.fixture()
    def spec(self, tmp_path):
        # s(1) = 0.5 and s(2) = 0.9: a size of 1e308 takes ~1.1e308 hours
        # on 2 GPUs, so its GPU-hours overflow.
        doc = {"types": [{"name": "tab",
                          "speedup": {"kind": "tabular", "points": [[1, 0.5], [2, 0.9]]},
                          "arrival_rate": 0.1,
                          "size_dist": {"kind": "deterministic", "x": 1}}],
               "budget": 2}
        return write_config(tmp_path, doc)

    def run(self, tmp_path, capsys, spec, rows, policy):
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n" + rows, encoding="utf-8")
        rc = main(["simulate", "--spec", spec, "--trace", str(trace), "--policy", policy])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        return err

    @pytest.mark.parametrize("policy", ["fixed:2", "cluster:2", "srf:2,2"])
    def test_overflowing_gpu_hours(self, tmp_path, capsys, spec, policy):
        err = self.run(tmp_path, capsys, spec, "1.0,0,1e308\n2.0,0,1.0\n", policy)
        assert err == "error: trace line 2: job GPU-hours is not finite\n"

    @pytest.mark.parametrize("policy", ["cluster:2", "srf:2,1"])
    def test_jobs_that_never_complete(self, tmp_path, capsys, spec, policy):
        # Two such jobs share the pool at speed 0.5 each: neither completes
        # in finite time, where the event loop once ran past the last arrival.
        err = self.run(tmp_path, capsys, spec, "1.0,0,1e308\n2.0,0,1e308\n", policy)
        assert err == "error: trace line 2: job completion time is not finite\n"

    def test_the_first_such_line_is_named(self, tmp_path, capsys, spec):
        err = self.run(tmp_path, capsys, spec, "1.0,0,1\n2.0,0,1e308\n3.0,0,1e308\n",
                       "fixed:2")
        assert err == "error: trace line 3: job GPU-hours is not finite\n"

    @pytest.mark.parametrize("policy", ["fixed:1", "cluster:2"])
    def test_overflowing_totals(self, tmp_path, capsys, policy):
        # Each job's GPU-hours are finite, their sum is not.
        doc = {"types": [{"name": "tab",
                          "speedup": {"kind": "tabular", "points": [[1, 1], [2, 1.8]]},
                          "arrival_rate": 0.1,
                          "size_dist": {"kind": "deterministic", "x": 1}}],
               "budget": 2}
        spec = write_config(tmp_path, doc)
        err = self.run(tmp_path, capsys, spec, "1.0,0,1e308\n2.0,0,1e308\n", policy)
        assert err == "error: the replay's total GPU-hours or mean response time overflows\n"

    def test_compare_names_the_policy(self, tmp_path, capsys, spec):
        # uniform:1 runs the 1e308-size job at s(1) = 0.5, so it never completes.
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n1.0,0,1e308\n2.0,0,1.0\n", encoding="utf-8")
        rc = main(["compare", "--spec", spec, "--trace", str(trace),
                   "--policies", "uniform:1;fixed:2"])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == "error: policy 'uniform:1': trace line 2: job completion time is not finite\n"
