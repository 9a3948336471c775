import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpurental import (
    FixedWidth,
    InstabilityError,
    SmallestRemainingFirst,
    SpecError,
    StaticClusterEqualSplit,
    WorkloadSpec,
    budget_timeseries,
    generate_trace,
    load_spec,
    read_trace,
    simulate,
    spec_from_dict,
    write_trace,
)
from gpurental import cli, simulator, workload
from gpurental.cli import _csv_block, main

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
    assert _csv_block(table) == reference


SMALL_BLOCK = 7  # rows per block in the block-boundary tests


def write_table(path, header, table):
    """``cli._write_csv`` of a whole 2-D table, which gives each block as a slice."""
    cli._write_csv(path, header, len(table), lambda lo, hi: table[lo:hi])


@pytest.mark.parametrize("rows", [0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1,
                                  3 * SMALL_BLOCK + 7])
def test_write_csv_blocks_match_per_row_format(tmp_path, monkeypatch, rows):
    # A block holds _BLOCK_ROWS values: SMALL_BLOCK rows of three columns.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 3 * SMALL_BLOCK)
    values = np.resize(np.array(EDGE_FLOATS + NON_FINITE + [0.1, -2.5, 1 / 3]), rows * 3)
    table = values.reshape(rows, 3)
    path = tmp_path / "t.csv"
    write_table(path, "a,b,c", table)
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
        write_table(tmp_path / "big.csv", "a,b,c,d", table)
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
             "types[0].size_dist.mean: expected a number"),
            (("types", 0, "size_dist"), {"kind": "exponential", "mean": 0},
             "types[0].size_dist: exponential mean must be positive"),
            (("types", 0, "size_dist"), {"kind": "weibull", "shape": 0, "scale": 1},
             "types[0].size_dist: weibull needs positive shape and scale"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": "1,1"},
             "types[0].speedup.points: expected a list of [k, s] pairs"),
            # float() of an integer past the range of a double raises
            # OverflowError, not ValueError.
            (("types", 0, "arrival_rate"), 10**400,
             "types[0].arrival_rate: int too large to convert to float"),
            (("budget",), 10**400, "budget: int too large to convert to float"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": [[1, 1], [10**400, 2]]},
             "types[0].speedup.points[1][0]: int too large to convert to float"),
            (("types", 0, "size_dist", "mean"), 10**400,
             "types[0].size_dist.mean: int too large to convert to float"),
            # Python's json refuses an integer literal of more than 4,300
            # digits before any field is read.
            (("budget",), LONG_LITERAL, "{path}: a number literal is too long"),
            # A family's own refusal of a parameter is named by its object.
            (("types", 0, "speedup"), {"kind": "amdahl", "p": 2},
             "types[0].speedup: amdahl parallel fraction must be in [0, 1], got 2.0"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": [[1, 1], 2]},
             "types[0].speedup.points[1]: expected a [k, s] pair"),
            (("types", 0, "speedup"), {"kind": "tabular", "points": [[1, 1], [2, 1.5, 3]]},
             "types[0].speedup.points[1]: expected a [k, s] pair"),
            (("types", 0, "speedup"), {"kind": ["power"], "alpha": 0.5},
             "types[0].speedup.kind: unknown speedup kind ['power']"),
            (("types", 0, "size_dist"), {"kind": "bounded_pareto", "shape": 1, "min": 1},
             "types[0].size_dist: missing field 'max' for kind 'bounded_pareto'"),
        ],
        ids=["root", "no-types", "type-entry", "arrival-rate", "budget", "size-kind",
             "size-field", "exponential-mean", "weibull-shape", "tabular-points",
             "huge-arrival-rate", "huge-budget", "huge-table-point", "huge-size-param",
             "long-literal", "amdahl-p", "table-point-not-a-list", "table-point-of-three",
             "kind-not-a-string", "missing-size-field"],
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


# Every spec a command reads, from the repository's shipped ones.
SHIPPED_SPECS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")) + [
    FOUR_TYPE_TABULAR]
# What replaces one field: a string, a list, an object, null, numbers past,
# at and near the ends of a double's range, and a few that read as numbers
# or as a speedup table's point.
ODD_VALUES = ["big", "", "nan", [1], [1, "x"], {"a": 1}, {"kind": "power"}, None, 10**400, 0,
              -0.0, 5e-324, 1e308]
# The refusals of a value derived from several fields, named by the type
# or by the spec rather than by a field.
DERIVED = re.compile(r"type '[^']*': (load arrival_rate \* mean size|mean response time at "
                     r"width 1, )|total load overflows$|total arrival rate overflows$"
                     r"|mean response time at width 1 overflows$")


def json_path(keys) -> str:
    """The JSON path of a key path: ``types[0].speedup.points[1][0]``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


@st.composite
def edited_specs(draw):
    """A shipped spec with one field in a type's speedup or size
    distribution, a type's arrival rate, or the budget replaced by an
    ``ODD_VALUES`` value: (document, key path of the field, value)."""
    doc = json.loads(draw(st.sampled_from(SHIPPED_SPECS)).read_text(encoding="utf-8"))
    i = draw(st.integers(0, len(doc["types"]) - 1))
    entry = doc["types"][i]
    fields = [("budget",), ("types", i, "arrival_rate")]
    for family in ("speedup", "size_dist"):
        fields += [("types", i, family)] + [("types", i, family, k) for k in entry[family]]
    for j, point in enumerate(entry["speedup"].get("points", [])):
        fields += [("types", i, "speedup", "points", j)]
        fields += [("types", i, "speedup", "points", j, c) for c in range(len(point))]
    where, value = draw(st.sampled_from(fields)), draw(st.sampled_from(ODD_VALUES))
    return edited(doc, where, value), where, value


class TestSpecDocuments:
    """Any one field of a shipped spec replaced by an odd value gives a spec
    or a refusal, never a traceback; a refusal of a field inside a speedup
    or a size distribution starts with that field's JSON path."""

    @settings(max_examples=300, deadline=None)
    @given(case=edited_specs())
    def test_one_odd_field_is_read_or_named(self, case):
        doc, where, value = case
        try:
            outcome = spec_from_dict(doc)
        except (SpecError, InstabilityError) as exc:  # any other error fails the test
            outcome = exc
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), doc)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["validate", "--spec", path])
        if isinstance(outcome, WorkloadSpec):
            assert rc in (0, 1, 2) and err.getvalue() == ""
            return
        message = str(outcome)
        assert (rc, out.getvalue(), err.getvalue()) == (3, "", f"error: {message}\n")
        try:
            float(value)
            # A number that the field's family or a derived value refuses.
            family = len(where) >= 3 and where[2] in ("speedup", "size_dist")
            prefix = json_path(where[:3]) if family else None
        except (TypeError, ValueError, OverflowError):
            # A value that does not read as a number names its own field.
            prefix = json_path(where)
        if prefix is not None and not DERIVED.match(message):
            assert message.startswith(prefix) and message[len(prefix)] in ":.[", message


def deep_spec(tmp_path) -> str:
    """A spec whose ``types`` nests 100,000 lists deep, past the depth Python's
    json parser reaches on every Python version: its C scanner's limit is
    the recursion limit (1,000) on 3.10 and 3.11 and the larger C recursion
    limit (under 10,000) on 3.12 and 3.13."""
    path = tmp_path / "deep.json"
    path.write_text('{"types": ' + "[" * 100_000 + "]" * 100_000 + ', "budget": 1}',
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", [
    ["validate"], ["solve"], ["pareto", "--b-min", "2", "--b-max", "3", "--points", "2"],
    ["gen-trace", "--jobs", "10", "--seed", "1", "--out", "t.csv"],
    ["simulate", "--policy", "optimal", "--trace", "t.csv"],
    ["compare", "--policies", "optimal;cluster:8", "--trace", "t.csv"],
], ids=["validate", "solve", "pareto", "gen-trace", "simulate", "compare"])
def test_deeply_nested_spec_exits_3(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("arrival_time,type,size\n0.5,0,1\n", encoding="utf-8")
    spec = deep_spec(tmp_path)
    assert main(command + ["--spec", spec]) == 3
    assert capsys.readouterr() == ("", f"error: {spec}: JSON nests too deeply\n")


@pytest.mark.parametrize("text, line, byte", [
    (b'{"types": [], "budget": 1, "x": "\xe9"}', 1, "0xe9"),
    # Lines end as a text-mode read ends them: LF, CRLF or CR.
    (b'{\r\n"types": [],\r"budget": 1,\n "x": "\xc3\xa9 \xff"}', 4, "0xff"),
    (b'{"types": [], "budget": 1, "x": "\xc3', 1, "0xc3"),  # cut short
], ids=["latin-1", "line-ends", "truncated"])
@pytest.mark.parametrize("command", [["validate"], ["solve"]], ids=["validate", "solve"])
def test_spec_byte_not_utf8_exits_3(tmp_path, capsys, command, text, line, byte):
    spec = tmp_path / "bad.json"
    spec.write_bytes(text)
    assert main(command + ["--spec", str(spec)]) == 3
    assert capsys.readouterr() == ("", f"error: {spec}: line {line}: byte {byte} is not UTF-8\n")


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


def deterministic(x):
    return {"kind": "deterministic", "x": x}


class TestBudgetPromiseAtTheEdges:
    """ROADMAP item 1's reproductions: stable specs on which ``solve`` should
    exit 0 within ``budget_used <= b * (1 + 1e-12)``, or refuse with one
    documented error, but breaks the promise today.  Each is a strict
    expected failure: the fix that mends it makes it pass, which fails the
    suite until its mark is removed."""

    def solve(self, tmp_path, capsys, types, budget, k_max):
        rc = main(["solve", "--spec", write_config(tmp_path, {"types": types, "budget": budget}),
                   "--k-max", k_max])
        out, err = capsys.readouterr()
        if rc == 0:
            assert err == ""
            assert json.loads(out)["budget_used"] <= budget * (1 + 1e-12)
        else:
            assert rc in (1, 2, 3) and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_root_below_the_smallest_double(self, tmp_path, capsys):
        # The answer is width 2e200; budget_used prints 5e+299 at the cap.
        types = [{"name": "a", "speedup": {"kind": "amdahl", "p": 0.5}, "arrival_rate": 1,
                  "size_dist": deterministic(1)}]
        self.solve(tmp_path, capsys, types, 1e200, "1e300")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_subnormal_root_keeps_too_few_bits(self, tmp_path, capsys):
        # budget_used prints 1.70000002145e+308, 1.3e-8 over the budget.
        types = [{"name": "a", "speedup": {"kind": "amdahl", "p": 1e-300},
                  "arrival_rate": 1e300, "size_dist": deterministic(1)},
                 {"name": "b", "speedup": {"kind": "amdahl", "p": 1e-300},
                  "arrival_rate": 1.0000001, "size_dist": deterministic(2.2250738585072014e-308)}]
        self.solve(tmp_path, capsys, types, 1.7e308, "1e300")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_newtons_terms_overflow(self, tmp_path, capsys):
        # np.exp(-e * x) overflows in the optimizer's Newton step, which
        # the suite's filter raises.
        types = [{"name": "a", "speedup": {"kind": "power", "alpha": 1e-300},
                  "arrival_rate": 1e-12, "size_dist": {"kind": "exponential", "mean": 2}},
                 {"name": "b", "speedup": {"kind": "amdahl", "p": 0.5}, "arrival_rate": 1e-12,
                  "size_dist": deterministic(2.0578981220339323e-268)}]
        self.solve(tmp_path, capsys, types, 0.5, "1.7e308")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_budget_used_overflows_to_infinity(self, tmp_path, capsys):
        # The cap-side breakpoint underflows as in the root below the smallest
        # double; the plan's usage overflows in the optimizer's multiply, which
        # the suite's filter raises, and prints "budget_used": Infinity without it.
        types = [{"name": "a", "speedup": {"kind": "amdahl", "p": 0.5},
                  "arrival_rate": 768.3583287856661,
                  "size_dist": {"kind": "exponential", "mean": 3}},
                 {"name": "b", "speedup": {"kind": "power", "alpha": 1},
                  "arrival_rate": 3.7414008264405805e-06, "size_dist": deterministic(2)}]
        self.solve(tmp_path, capsys, types, 1e308, "1.7e308")


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
        label = "policy 'optimal': " if command[0] in ("simulate", "compare") else ""
        assert capsys.readouterr() == (
            "", f"error: {label}type 'bad': speedup is not sublinear: {detail}\n")

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

    def test_negative_job_count_exits_3(self, tmp_path, two_type_config_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["gen-trace", "--spec", two_type_config_path, "--jobs", "-1", "--seed", "1",
                   "--out", str(out)])
        assert (rc, capsys.readouterr()) == (3, ("", "error: job_count must be >= 0\n"))
        assert not out.exists()

    def test_size_dist_that_is_not_an_object_exits_3(self, tmp_path, capsys):
        spec = edited_config(tmp_path, TWO_TYPE, (("types", 1, "size_dist"), 5))
        rc = main(["gen-trace", "--spec", spec, "--jobs", "1", "--seed", "1",
                   "--out", str(tmp_path / "t.csv")])
        assert (rc, capsys.readouterr()) == (3, (
            "", "error: types[1].size_dist: expected an object with a 'kind' field\n"))


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
        write_table(tmp_path / "jobs2.csv", "arrival,completion,response,gpu_hours",
                    metrics.per_job)
        write_table(tmp_path / "k2.csv", "t,K", budget_timeseries(trace, spec, policy, 0.5))
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
            assert err == ("error: policy 'fixed:2': "
                           "policy has 1 widths but workload has 2 types\n"), argv

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
        assert err.startswith(f"error: policy {policy!r}: bad arguments: ")
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

    def test_points_past_the_largest_array_exits_3(self, two_type_config_path, capsys):
        rc = main(["pareto", "--spec", two_type_config_path, "--b-min", "3", "--b-max", "8",
                   "--points", str(2**60)])
        assert rc == 3
        assert capsys.readouterr() == (
            "", f"error: --points must be < 2**60, the largest array of doubles, got {2**60}\n"
        )

    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError("Unable to allocate 7.1 EiB for an array"),
          "Unable to allocate 7.1 EiB for an array"),
         (MemoryError(), "out of memory")],
    )
    def test_out_of_memory_exits_3(self, two_type_config_path, capsys, monkeypatch, exc, message):
        # The budgets' array fails to allocate, as numpy's does for 10**18
        # points, without asking for the memory.
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.np, "linspace", refuse)
        rc = main(["pareto", "--spec", two_type_config_path, "--b-min", "3", "--b-max", "8",
                   "--points", str(10**18)])
        assert rc == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_budget_grid_from_the_largest_double(self, two_type_config_path, capsys):
        # The span, 30 - 1.797e308, is finite, but 6 * (span / 6) rounds
        # past the largest double: numpy warned (an error in this suite) on
        # its way to the last point, which np.linspace sets to b_max.
        rc = main(["pareto", "--spec", two_type_config_path, "--b-min", "1.7976931348623157e308",
                   "--b-max", "30", "--points", "7"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        b_min, span = 1.7976931348623157e308, 30 - 1.7976931348623157e308
        grid = [b_min + i * (span / 6) for i in range(6)] + [30.0]  # as np.linspace makes it
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [cli._fmt(b) for b in sorted(grid)]
        assert not any("error" in row for row in rows)

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
        assert err == f"error: policy {policy!r}: type 'sqrt': speed at width 4 is not finite\n"


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

    def test_labels_are_csv_fields(self, tmp_path, two_type_config_path):
        # float() takes the whitespace around a number, so a label can hold
        # a CR or an LF; one that does, or a comma, is quoted.
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "50", "--seed", "5",
              "--out", str(trace)])
        labels = ["uniform:2\n", "cluster:8", "fixed:2,3", "srf:8,4\r\n"]
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--spec", two_type_config_path, "--trace", str(trace),
                   "--policies", ";".join(labels), "--out", str(out)])
        assert rc == 0
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [5] * 5
        assert [r[0] for r in rows[1:]] == labels
        text = out.read_text(encoding="utf-8")
        assert '\n"fixed:2,3",50,' in text and "\ncluster:8,50," in text
        assert cli._csv_field('a"b') == '"a""b"'

    @pytest.mark.parametrize("policies, message", [
        ("uniform:2;fixed:1;cluster:8",
         "policy 'fixed:1': policy has 1 widths but workload has 2 types"),
        ("uniform:2;cluster:0.5", "policy 'cluster:0.5': cluster size must be finite and >= 1, "
                                  "got 0.5"),
        ("uniform:2;srf:8,0.5", "policy 'srf:8,0.5': k_cap must be finite and >= 1, got 0.5"),
        ("uniform:2;srf:8", "policy 'srf:8': bad arguments: not enough values to unpack "
                            "(expected 2, got 1)"),
        ("uniform:2;magic:1", "policy 'magic:1': unknown policy kind 'magic'"),
    ])
    def test_refused_widths_name_the_policy_before_any_replay(
        self, tmp_path, two_type_config_path, capsys, monkeypatch, policies, message
    ):
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n0.5,0,1\n", encoding="utf-8")
        refuse_replays(monkeypatch)
        rc = main(["compare", "--spec", two_type_config_path, "--trace", str(trace),
                   "--policies", policies])
        assert (rc, *capsys.readouterr()) == (3, "", f"error: {message}\n")

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
            # gamma(201), min**-29.5, and a normaliser that rounds to 0.
            ({"kind": "weibull", "shape": 0.005, "scale": 1}, 0.4,
             "types[0].size_dist: size distribution mean is not positive and finite"),
            ({"kind": "bounded_pareto", "shape": 30.5, "min": 1e-12, "max": 2e-12}, 0.4,
             "types[0].size_dist: size distribution mean is not positive and finite"),
            ({"kind": "bounded_pareto", "shape": 1e-300, "min": 1, "max": 100}, 0.4,
             "types[0].size_dist: size distribution mean is not positive and finite"),
            ({"kind": "deterministic", "x": 1e300}, 1e10,
             "type 'amdahl': load arrival_rate * mean size overflows"),
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
        assert err == f"error: {message}\n"


    @pytest.mark.parametrize("command", [["validate"], ["solve"]], ids=["validate", "solve"])
    def test_load_underflow_exits_3(self, tmp_path, capsys, command):
        # 0.5 * 5e-324 rounds to 0.  solve used to print "objective": 0.0,
        # though every job takes a whole hour, and "budget_used": NaN, from
        # 0 * inf; validate printed "total load 0 < budget 1" and OK.
        doc = {"types": [{"name": "tiny",
                          "speedup": {"kind": "tabular", "points": [[1, 5e-324]]},
                          "arrival_rate": 0.5,
                          "size_dist": {"kind": "deterministic", "x": 5e-324}}],
               "budget": 1}
        rc = main(command + ["--spec", write_config(tmp_path, doc)])
        assert (rc, *capsys.readouterr()) == (
            3, "", "error: type 'tiny': load arrival_rate * mean size underflows to 0\n")

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

    @pytest.mark.parametrize("command", [
        ["solve"],
        ["pareto", "--b-min", "2", "--b-max", "3", "--points", "2"],
        ["simulate", "--policy", "optimal"],
        ["compare", "--policies", "optimal;cluster:8"],
    ], ids=["solve", "pareto", "simulate", "compare"])
    def test_total_arrival_rate_overflow_exits_3(self, tmp_path, capsys, command):
        # Each rate, 1e308, and each load, 1e8, is finite; the summed rate,
        # which divides every objective, is not.  It used to reach numpy,
        # whose overflow warning the suite raises.
        tiny = {"kind": "deterministic", "x": 1e-300}
        doc = {"types": [{"name": name, "speedup": {"kind": "power", "alpha": 0.5},
                          "arrival_rate": 1e308, "size_dist": tiny} for name in "ab"],
               "budget": 1e9}
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n0.5,0,1\n", encoding="utf-8")
        if command[0] in ("simulate", "compare"):
            command = command + ["--trace", str(trace)]
        rc = main(command + ["--spec", write_config(tmp_path, doc)])
        assert (rc, *capsys.readouterr()) == (3, "", "error: total arrival rate overflows\n")

    # One type whose load, 2.7e-156, and least usage, 2.7e144, are finite,
    # but whose mean size / s(1), the objective at width 1, is 1.5e369.  It
    # used to print an infinite objective (solve) or six inf rows (pareto)
    # at exit 0, with numpy's overflow warning, which the suite raises.
    SLOW_TYPE = {"types": [{"name": "slow",
                            "speedup": {"kind": "tabular", "points": [[1, 1e-300]]},
                            "arrival_rate": 1.7760405322684384e-225,
                            "size_dist": {"kind": "exponential",
                                          "mean": 1.5006613276648424e+69}}],
                 "budget": 1e200}
    SLOW_TYPE_ERROR = ("error: type 'slow': mean response time at width 1, mean size / s(1), "
                       "overflows\n")

    def test_mean_response_overflow_exits_3_in_solve(self, tmp_path, capsys):
        rc = main(["solve", "--spec", write_config(tmp_path, self.SLOW_TYPE), "--k-max", "1e300"])
        assert (rc, *capsys.readouterr()) == (3, "", self.SLOW_TYPE_ERROR)

    def test_mean_response_overflow_exits_3_in_pareto(self, tmp_path, capsys):
        rc = main(["pareto", "--spec", write_config(tmp_path, self.SLOW_TYPE), "--k-max", "1e300",
                   "--b-min", "1e-150", "--b-max", "1.6519310560276604e+233", "--points", "7"])
        assert (rc, *capsys.readouterr()) == (3, "", self.SLOW_TYPE_ERROR)


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
        assert err == f"error: policy {policy!r}: trace line 2: job GPU-hours is not finite\n"

    @pytest.mark.parametrize("policy", ["cluster:2", "srf:2,1"])
    def test_jobs_that_never_complete(self, tmp_path, capsys, spec, policy):
        # Two such jobs share the pool at speed 0.5 each: neither completes
        # in finite time, where the event loop once ran past the last arrival.
        err = self.run(tmp_path, capsys, spec, "1.0,0,1e308\n2.0,0,1e308\n", policy)
        assert err == (f"error: policy {policy!r}: trace line 2: "
                       "job completion time is not finite\n")

    def test_the_first_such_line_is_named(self, tmp_path, capsys, spec):
        err = self.run(tmp_path, capsys, spec, "1.0,0,1\n2.0,0,1e308\n3.0,0,1e308\n",
                       "fixed:2")
        assert err == "error: policy 'fixed:2': trace line 3: job GPU-hours is not finite\n"

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
        assert err == (f"error: policy {policy!r}: "
                       "the replay's total GPU-hours or mean response time overflows\n")

    def test_compare_names_the_policy(self, tmp_path, capsys, spec):
        # uniform:1 runs the 1e308-size job at s(1) = 0.5, so it never completes.
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n1.0,0,1e308\n2.0,0,1.0\n", encoding="utf-8")
        rc = main(["compare", "--spec", spec, "--trace", str(trace),
                   "--policies", "uniform:1;fixed:2"])
        out, err = capsys.readouterr()
        assert (rc, out) == (3, "")
        assert err == "error: policy 'uniform:1': trace line 2: job completion time is not finite\n"

    # On two_type, the second row (line 5, after two blank lines) overflows
    # its completion time at one GPU and its GPU-hours at 4 or 8.
    BLANK_LINES = "0.5,0,1.0\n\n\n1e308,1,1.7e308\n"

    def test_simulate_counts_blank_lines(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, str(TWO_TYPE), self.BLANK_LINES, "fixed:1,1")
        assert err == ("error: policy 'fixed:1,1': trace line 5: "
                       "job completion time is not finite\n")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("policies,err", [
        ("fixed:1,1;cluster:8", "policy 'fixed:1,1': trace line 5: job completion time"),
        # On two CPUs cluster:8 is replayed in a child, which pickles its error.
        ("cluster:8;cluster:4", "policy 'cluster:8': trace line 5: job GPU-hours"),
    ])
    def test_compare_counts_blank_lines(self, tmp_path, cpus, policies, err):
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n" + self.BLANK_LINES, encoding="utf-8")
        argv = ["compare", "--spec", str(TWO_TYPE), "--trace", str(trace), "--policies", policies]
        assert run_on_cpus(argv, cpus) == (3, "", f"error: {err} is not finite\n")


def assert_no_child_left():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def on_cpus(cpus: int):
    """Run the block as if this process may use cpus CPUs, and yield the
    list of the pids it forks; every child is reaped by the block's end."""
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(os, "fork", counted_fork)
            yield forks
    finally:
        assert_no_child_left()


def run_on_cpus(argv, cpus: int):
    """(exit code, stdout, stderr) of ``main(argv)`` as if this process may
    use cpus CPUs: one takes the serial path, more fork pooled replays and
    the parts of large trace and CSV files."""
    out, err = io.StringIO(), io.StringIO()
    with on_cpus(cpus), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# Concave tables through (1, 1), and one whose s(1) is not 1.
TABLES = [[[1, 1], [4, 2.5], [16, 4]], [[1, 1], [2, 1.9]], [[1, 0.5], [2, 0.9]]]


@st.composite
def compare_cases(draw):
    """A spec of 1-3 types, a trace of 0-30 of its jobs (one, at times, of
    size 1e308) and 2-6 policies: fixed widths (at times of the wrong count),
    uniform widths, and equal-split and SRF pools, some at or below the
    load; now and then a width or pool below one GPU, which is refused."""
    n_types = draw(st.integers(1, 3))
    types = []
    for i in range(n_types):
        speedup = draw(st.sampled_from(
            [{"kind": "amdahl", "p": p} for p in (0.0, 0.3, 0.8, 1.0)]
            + [{"kind": "power", "alpha": a} for a in (0.25, 0.5, 1.0)]
            + [{"kind": "tabular", "points": t} for t in TABLES]))
        types.append({"name": f"t{i}", "speedup": speedup,
                      "arrival_rate": draw(st.sampled_from([0.05, 0.3, 0.8])),
                      "size_dist": {"kind": "exponential", "mean": 1.0}})
    n = draw(st.integers(0, 30))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0]), min_size=n, max_size=n))
    sizes = draw(st.lists(st.sampled_from([0.1, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    if n and draw(st.integers(0, 4)) == 0:
        sizes[draw(st.integers(0, n - 1))] = 1e308
    rows = zip(np.cumsum(gaps).tolist(),
               draw(st.lists(st.integers(0, n_types - 1), min_size=n, max_size=n)), sizes)
    trace = "arrival_time,type,size\n" + "".join(f"{t!r},{ty},{x!r}\n" for t, ty, x in rows)
    # One width or pool in 16 is below one GPU.
    width = st.sampled_from(["1", "1.5", "2", "4", "8"] * 3 + ["0.5"])
    pool = st.sampled_from(["1", "1.25", "2", "4", "8"] * 3 + ["0.5"])
    policies = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["fixed", "uniform", "cluster", "cluster", "srf", "srf"]))
        if kind == "fixed":
            count = draw(st.sampled_from([n_types] * 3 + [n_types % 3 + 1]))
            policies.append("fixed:" + ",".join(draw(st.lists(width, min_size=count,
                                                              max_size=count))))
        elif kind == "uniform":
            policies.append(f"uniform:{draw(width)}")
        elif kind == "cluster":
            policies.append(f"cluster:{draw(pool)}")
        else:
            policies.append(f"srf:{draw(pool)},{draw(width)}")
    return {"types": types, "budget": 2.0}, trace, ";".join(policies)


class TestParallelCompare:
    """``compare`` replays pooled policies in forked children, one per CPU
    it may use; it prints what the serial loop prints and leaves no child."""

    @pytest.fixture()
    def both_fail(self, tmp_path):
        """cluster:2 replays a 1e308-size job to GPU-hours past a double
        (ReplayError); cluster:4 grants the steep type a width whose speed,
        4**717, is not finite (SpecError)."""
        doc = {"types": [{"name": "tab",
                          "speedup": {"kind": "tabular", "points": [[1, 0.5], [2, 0.9]]},
                          "arrival_rate": 0.1,
                          "size_dist": {"kind": "deterministic", "x": 1}},
                         {"name": "steep",
                          "speedup": {"kind": "power", "alpha": 717},
                          "arrival_rate": 0.1,
                          "size_dist": {"kind": "deterministic", "x": 1}}],
               "budget": 2}
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n1.0,0,1e308\n2.0,0,1.0\n", encoding="utf-8")
        return ["compare", "--spec", write_config(tmp_path, doc), "--trace", str(trace)]

    @pytest.fixture()
    def four_pools(self, tmp_path, two_type_config_path):
        trace = tmp_path / "t.csv"
        main(["gen-trace", "--spec", two_type_config_path, "--jobs", "300", "--seed", "2",
              "--out", str(trace)])
        return ["compare", "--spec", two_type_config_path, "--trace", str(trace),
                "--policies", "optimal;cluster:8;srf:8,4;cluster:1.25;srf:1.25,1"]

    @settings(max_examples=100, deadline=None)
    @given(case=compare_cases(), cpus=st.integers(2, 4))
    def test_parallel_prints_what_serial_prints(self, case, cpus):
        doc, trace, policies = case
        with tempfile.TemporaryDirectory() as tmp:
            spec_path, trace_path = os.path.join(tmp, "spec.json"), os.path.join(tmp, "t.csv")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with open(trace_path, "w", encoding="utf-8") as fh:
                fh.write(trace)
            argv = ["compare", "--spec", spec_path, "--trace", trace_path, "--policies", policies]
            serial = run_on_cpus(argv, 1)
            assert run_on_cpus(argv, cpus) == serial
        rc, out, err = serial
        assert rc in (0, 1, 2, 3)
        if rc == 0:
            assert err == "" and out.count("\n") == 2 + policies.count(";")
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("policies, message", [
        ("cluster:2;cluster:4", "error: policy 'cluster:2': trace line 2: job GPU-hours is not "
                                "finite\n"),
        ("cluster:4;cluster:2", "error: policy 'cluster:4': type 'steep': speed at width 4 is "
                                "not finite\n"),
        ("cluster:4;cluster:2;cluster:1", "error: policy 'cluster:4': type 'steep': speed at "
                                          "width 4 is not finite\n"),
    ], ids=["replay-error-first", "spec-error-first", "child-share-in-label-order"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failure_in_label_order_is_printed(self, both_fail, policies, message, cpus):
        # On two CPUs the smallest pool is replayed here and the next two in
        # the child, in label order: each case has an error cross the pipe.
        # cluster:1 fails too, on the 1e308-size job's completion time.
        assert run_on_cpus(both_fail + ["--policies", policies], cpus) == (3, "", message)

    def test_a_worker_that_dies_exits_3(self, four_pools, monkeypatch):
        parent, simulate = os.getpid(), simulator.simulate

        def dies_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(simulator, "simulate", dies_in_a_child)
        assert run_on_cpus(four_pools, 2) == (
            3, "", "error: a replay worker ended without a result (exit code -9)\n")

    def test_the_callers_failure_kills_and_reaps_the_children(self, four_pools, monkeypatch):
        # This process's share is interrupted at once, while the child's
        # replay would take a minute: the child is killed, not waited for.
        parent, simulate = os.getpid(), simulator.simulate

        def interrupted_here(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(simulator, "simulate", interrupted_here)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_on_cpus(four_pools, 2)
        assert time.monotonic() - start < 30

    def test_buffered_output_is_written_once(self, four_pools, tmp_path):
        # Text the caller left in sys.stdout's buffer would be written again
        # by any child that flushed it on its way out.
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "sys.stdout.write('written before compare\\n')\n"
                  "from gpurental import cli\n"
                  f"sys.exit(cli.main({four_pools!r}))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.count("written before compare\n") == 1
        assert done.stdout.count("policy,job_count") == 1
        assert len(done.stdout.splitlines()) == 7


# two_type with its sqrt type at k**717, which overflows a double at 4 GPUs
# but not at 2.
STEEP = ((("types", 1, "speedup", "alpha"), 717),)
# On two_type, the row on line 5 (after two blank lines) overflows its
# completion time at one GPU and its GPU-hours at 8, but neither at 2.
LINE_5 = "0.5,0,1.0\n\n\n5e307,0,1.45e308\n"


class TestOneRefusalRule:
    """``simulate --policy X`` and ``compare --policies "uniform:2;X"``
    refuse X with the same line, ``error: policy 'X': <reason>``, and the
    same exit code, on one CPU and on two.  A refusal that the policy check
    makes (``checked``) comes before any replay in both commands."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("policy, edits, rows, checked, rc, reason", [
        ("srf:8", (), "0.5,0,1.0\n", True, 3,
         "bad arguments: not enough values to unpack (expected 2, got 1)"),
        ("magic:1", (), "0.5,0,1.0\n", True, 3, "unknown policy kind 'magic'"),
        ("cluster:0.5", (), "0.5,0,1.0\n", True, 3,
         "cluster size must be finite and >= 1, got 0.5"),
        ("fixed:1", (), "0.5,0,1.0\n", True, 3, "policy has 1 widths but workload has 2 types"),
        ("cluster:1", ((("types", 0, "arrival_rate"), 0.8), (("types", 1, "arrival_rate"), 0.8)),
         "0.5,0,1.0\n", True, 2, "total load 1.6 >= budget 1"),
        ("srf:2,2", ((("types", 0, "arrival_rate"), 0.95), (("types", 1, "arrival_rate"), 0.95)),
         "0.5,0,1.0\n", True, 2, "usage 2.4835 at grant 2 >= pool 2"),
        ("fixed:2,4", STEEP, "0.5,1,1.0\n", False, 3,
         "type 'sqrt': speed at width 4 is not finite"),
        ("cluster:4", STEEP, "0.5,1,1.0\n", False, 3,
         "type 'sqrt': speed at width 4 is not finite"),
        ("srf:8,4", STEEP, "0.5,1,1.0\n", True, 3,
         "type 'sqrt': speed at width 4 is not finite"),
        ("optimal", ((("types", 1, "speedup", "alpha"), 1.5),), "0.5,1,1.0\n", True, 1,
         "type 'sqrt': speedup is not sublinear: s(1)/1 = 1 < s(2)/2 = 1.41421"),
        ("optimal", ((("budget",), 0.5),), "0.5,1,1.0\n", True, 2, "total load 0.8 >= budget 0.5"),
        ("uniform:1", (), LINE_5, False, 3, "trace line 5: job completion time is not finite"),
        ("cluster:8", (), LINE_5, False, 3, "trace line 5: job GPU-hours is not finite"),
    ], ids=["bad-arguments", "unknown-kind", "width-rule", "width-count", "unstable-pool",
            "srf-usage", "fixed-speed", "cluster-speed", "srf-speed", "optimal-axioms",
            "optimal-unstable", "completion", "gpu-hours"])
    def test_simulate_and_compare_print_one_line(self, tmp_path, two_type_config_path,
                                                 monkeypatch, cpus, policy, edits, rows,
                                                 checked, rc, reason):
        spec = edited_config(tmp_path, two_type_config_path, *edits)
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n" + rows, encoding="utf-8")
        if checked:
            refuse_replays(monkeypatch)
        want = (rc, "", f"error: policy {policy!r}: {reason}\n")
        common = ["--spec", spec, "--trace", str(trace)]
        assert run_on_cpus(["simulate", "--policy", policy] + common, cpus) == want
        assert run_on_cpus(["compare", "--policies", "uniform:2;" + policy] + common, cpus) == want

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("first, second", [
        ("fixed:1", "magic:1"), ("magic:1", "fixed:1"),
        ("cluster:1", "srf:8"), ("srf:8", "cluster:1"),
    ], ids=["width-count-then-parse", "parse-then-width-count",
            "unstable-pool-then-parse", "parse-then-unstable-pool"])
    def test_compare_prints_the_first_refusal_in_policy_order(
            self, tmp_path, two_type_config_path, monkeypatch, cpus, first, second):
        # One label fails its parse and the other the policy check; whichever
        # comes first is printed, as simulate prints it for that label alone.
        spec = edited_config(tmp_path, two_type_config_path,
                             (("types", 0, "arrival_rate"), 0.8),
                             (("types", 1, "arrival_rate"), 0.8))
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n0.5,0,1.0\n", encoding="utf-8")
        refuse_replays(monkeypatch)
        common = ["--spec", spec, "--trace", str(trace)]
        want = run_on_cpus(["simulate", "--policy", first] + common, cpus)
        assert want[0] in (2, 3) and want[2].startswith(f"error: policy {first!r}: ")
        assert run_on_cpus(["compare", "--policies", f"{first};{second}"] + common,
                           cpus) == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_trace_past_the_spec_is_not_the_policys(self, tmp_path, two_type_config_path,
                                                      cpus):
        trace = tmp_path / "t.csv"
        trace.write_text("arrival_time,type,size\n0.5,2,1.0\n", encoding="utf-8")
        want = (3, "", "error: trace references type 2 but the workload has only 2 types\n")
        common = ["--spec", two_type_config_path, "--trace", str(trace)]
        assert run_on_cpus(["simulate", "--policy", "cluster:4"] + common, cpus) == want
        assert run_on_cpus(["compare", "--policies", "uniform:2;cluster:4"] + common,
                           cpus) == want


BLOCK = workload._BLOCK_ROWS
# Rows of a trace on the block edges, and a few blocks plus a remainder: a
# trace of more than one block is written on every CPU, and one of at least
# two reader ranges (a little over two blocks of rows) is read on several.
TRACE_ROWS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 517]


def trace_file(tmp_path, rows: int, seed: int = 5) -> Path:
    """A trace file of ``rows`` jobs of the two-type spec, written on one CPU."""
    path = tmp_path / f"trace-{rows}-{seed}.csv"
    with on_cpus(1):
        write_trace(generate_trace(load_spec(TWO_TYPE), rows, seed), path)
    return path


def kill_in_a_child(fn):
    """fn, except that a forked child that calls it kills itself."""
    parent = os.getpid()

    def dies_in_a_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return fn(*args, **kwargs)

    return dies_in_a_child


class TestParallelTraceFiles:
    """Trace and CSV files are formatted and parsed in ranges, one forked
    process per CPU; every byte, trace and message is the serial one."""

    @settings(max_examples=24, deadline=None)
    @given(rows=st.sampled_from(TRACE_ROWS), cpus=st.integers(2, 4), seed=st.integers(0, 99),
           step=st.sampled_from(["0.5", "1", "7"]))
    def test_files_are_the_bytes_one_cpu_writes(self, rows, cpus, seed, step):
        tr = generate_trace(load_spec(TWO_TYPE), rows, seed)
        with tempfile.TemporaryDirectory() as tmp:
            paths = {(n, c): os.path.join(tmp, f"{n}-{c}.csv") for n in ("trace", "jobs", "k")
                     for c in (1, cpus)}
            outputs, forks = {}, {}
            for c in (1, cpus):
                with on_cpus(c) as forks["write", c]:
                    write_trace(tr, paths["trace", c])
                with on_cpus(c) as forks["read", c]:
                    assert read_trace(paths["trace", 1]) == tr
                outputs[c] = run_on_cpus(
                    ["simulate", "--spec", str(TWO_TYPE), "--trace", paths["trace", 1],
                     "--policy", "optimal", "--per-job", paths["jobs", c],
                     "--timeseries", paths["k", c], "--timeseries-step", step], c)
            for name in ("trace", "jobs", "k"):
                with open(paths[name, 1], "rb") as one, open(paths[name, cpus], "rb") as many:
                    assert one.read() == many.read(), name
        assert outputs[cpus] == outputs[1]
        assert outputs[1][0] == 0 and outputs[1][2] == ""
        assert forks["write", 1] == forks["read", 1] == []
        assert len(forks["write", cpus]) == max(0, min(cpus, -(-rows // BLOCK)) - 1)
        assert bool(forks["read", cpus]) == (rows == TRACE_ROWS[-1])

    @pytest.fixture(scope="class")
    def trace_lines(self, tmp_path_factory):
        """The lines of a trace of three blocks of rows: on two CPUs, a
        forked child reads its first half."""
        path = trace_file(tmp_path_factory.mktemp("faulty"), 3 * BLOCK)
        return path.read_text(encoding="utf-8").splitlines(keepends=True)

    @staticmethod
    def with_field(line: str, column: int, text: str | None) -> str:
        """The trace line with one field replaced, or dropped for None."""
        fields = line.rstrip("\n").split(",")
        fields[column:column + 1] = [] if text is None else [text]
        return ",".join(fields) + "\n"

    # Row 100, line 102, lies well inside the child's range, and the last
    # row in this process's.  Each case: (line index, column, new text or
    # None to drop the field, whether a whitespace-only line goes before
    # row 100, message).
    FAULTS = {
        "non-finite size": (101, 2, "inf", False,
                            "line 102: size inf is not positive and finite"),
        "decreasing arrival": (101, 0, "0.0", False,
                               "line 102: arrival time 0.0 is before previous "),
        "1_0 field": (101, 0, "1_0", False, "line 102: arrival time 10.0 is before previous "),
        "two fields": (101, 2, None, False, "line 102: expected 3 fields, got 2"),
        # Only the scanner reads the blank line; it counts toward the line
        # of the size refused at the last row.
        "whitespace-only line": (-1, 2, "inf", True,
                                 f"line {3 * BLOCK + 2}: size inf is not positive and finite"),
        # This process's own range fails while the child still parses.
        "two fields in the last row": (-1, 2, None, False,
                                       f"line {3 * BLOCK + 1}: expected 3 fields, got 2"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_fault_past_the_first_cut_is_named_as_on_one_cpu(self, tmp_path, trace_lines,
                                                               fault):
        at, column, text, blank, message = self.FAULTS[fault]
        lines = list(trace_lines)
        lines[at] = self.with_field(lines[at], column, text)
        if blank:
            lines.insert(101, " \t \n")
        assert float(lines[100].split(",")[0]) > 10.0
        path = tmp_path / "faulty.csv"
        path.write_text("".join(lines), encoding="utf-8")
        assert len("".join(lines[:103]).encode()) < path.stat().st_size // 2
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(path), "--policy", "optimal"]
        serial = run_on_cpus(argv, 1)
        with on_cpus(2) as forks:
            assert run_on_cpus(argv, 2) == serial
        assert forks
        rc, out, err = serial
        assert (rc, out) == (3, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("small, at", [(True, 0), (True, -1), (False, BLOCK),
                                           (False, 2 * BLOCK), (False, -1)],
                             ids=["small-header", "small-last-row", "first-half",
                                  "second-half", "last-row"])
    def test_a_byte_that_is_not_utf8_is_named_as_on_one_cpu(self, tmp_path, trace_lines,
                                                             small, at):
        # The byte 0xe9, which is not UTF-8, ends line ``at``: in a small
        # file, or in either half of one past two reader ranges, which a
        # forked child and this process read on two CPUs.
        lines = trace_lines[:4] if small else list(trace_lines)
        lines[at] = lines[at].rstrip("\n") + "\udce9\n"
        path = tmp_path / "faulty.csv"
        path.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
        assert small or path.stat().st_size > 2 * workload._RANGE_BYTES
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(path), "--policy", "optimal"]
        want = (3, "", f"error: line {at % len(lines) + 1}: byte 0xe9 is not UTF-8\n")
        assert run_on_cpus(argv, 1) == want
        with on_cpus(2) as forks:
            assert run_on_cpus(argv, 2) == want
        assert bool(forks) == (not small and at != 0)

    def test_a_trace_writer_that_dies_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(workload, "_trace_block", kill_in_a_child(workload._trace_block))
        argv = ["gen-trace", "--spec", str(TWO_TYPE), "--jobs", str(3 * BLOCK), "--seed", "1",
                "--out", str(tmp_path / "t.csv")]
        assert run_on_cpus(argv, 2) == (
            3, "", "error: a trace writer worker ended without a result (exit code -9)\n")

    def test_a_csv_writer_that_dies_exits_3(self, tmp_path, monkeypatch):
        trace = trace_file(tmp_path, BLOCK)
        monkeypatch.setattr(cli, "_csv_block", kill_in_a_child(cli._csv_block))
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(trace), "--policy", "optimal",
                "--per-job", str(tmp_path / "jobs.csv")]
        rc, out, err = run_on_cpus(argv, 2)
        assert (rc, err) == (
            3, "error: a CSV writer worker ended without a result (exit code -9)\n")
        assert out == ""  # the metrics are printed only once the files are written

    def test_a_timeseries_that_cannot_be_opened_exits_3(self, tmp_path):
        trace = trace_file(tmp_path, 50)
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(trace), "--policy", "optimal",
                "--per-job", str(tmp_path / "jobs.csv"),
                "--timeseries", str(tmp_path / "missing" / "k.csv")]
        rc, out, err = run_on_cpus(argv, 1)
        assert (rc, out) == (3, "")
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.count("\n") == 1

    def test_a_trace_reader_that_dies_exits_3(self, tmp_path, monkeypatch):
        trace = trace_file(tmp_path, 3 * BLOCK)
        monkeypatch.setattr(workload, "_load_range", kill_in_a_child(workload._load_range))
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(trace), "--policy", "optimal"]
        assert run_on_cpus(argv, 2) == (
            3, "", "error: a trace reader worker ended without a result (exit code -9)\n")

    def test_buffered_output_and_headers_are_written_once(self, tmp_path):
        # Text left in sys.stdout's buffer, and the header still in the
        # trace file's buffer when the writer forks, would be written again
        # by any child that flushed them on its way out.
        gen = ["gen-trace", "--spec", str(TWO_TYPE), "--jobs", str(3 * BLOCK), "--seed", "4",
               "--out", "t.csv"]
        sim = ["simulate", "--spec", str(TWO_TYPE), "--trace", "t.csv", "--policy", "optimal",
               "--per-job", "jobs.csv", "--timeseries", "k.csv"]
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "sys.stdout.write('written before gen-trace\\n')\n"
                  "from gpurental import cli\n"
                  f"assert cli.main({gen!r}) == 0\n"
                  "sys.stdout.write('written before simulate\\n')\n"
                  f"sys.exit(cli.main({sim!r}))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        for line in ("written before gen-trace\n", "written before simulate\n",
                     f"wrote {3 * BLOCK} events to t.csv\n", '"job_count": '):
            assert done.stdout.count(line) == 1, line
        for name, header, rows in (("t.csv", "arrival_time,type,size\n", 3 * BLOCK),
                                   ("jobs.csv", "arrival,completion,response,gpu_hours\n",
                                    3 * BLOCK),
                                   ("k.csv", "t,K\n", None)):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text.startswith(header) and text.count(header) == 1, name
            if rows is not None:
                assert text.count("\n") == rows + 1, name


def step_for_samples(horizon: float, count: int) -> float:
    """A K(t) step that takes ``count`` samples, ceil(horizon / step) + 1,
    over a positive horizon."""
    step = horizon / (count - 1)
    while math.ceil(horizon / step) + 1 > count:
        step = np.nextafter(step, math.inf)
    while math.ceil(horizon / step) + 1 < count:
        step = np.nextafter(step, 0.0)
    return float(step)


def csv_text(header: str, table) -> str:
    """The CSV a table makes, each value formatted on its own."""
    rows = [] if table is None else table
    return header + "\n" + "".join(
        ",".join(format(float(x), ".12g") for x in row) + "\n" for row in rows)


class TestSimulateFilesFromColumns:
    """``simulate`` formats its per-job and K(t) files block by block from
    the replay's columns: the bytes are those of ``simulate(...).per_job``
    and ``budget_timeseries`` formatted row by row, on any number of CPUs."""

    JOB_BLOCK = BLOCK // 4  # rows of a per-job block; a K(t) block holds BLOCK // 2

    @pytest.mark.parametrize("policy_text, policy", [
        pytest.param(text, policy, id=text) for text, policy in [
            ("optimal", None),
            ("fixed:2,3", FixedWidth((2.0, 3.0))),
            ("cluster:1.25", StaticClusterEqualSplit(1.25)),
            ("srf:1.25,1", SmallestRemainingFirst(1.25, 1.0)),
        ]
    ])
    @pytest.mark.parametrize("blocks", [(0, 1), (JOB_BLOCK - 1, BLOCK // 2 - 1),
                                        (JOB_BLOCK, BLOCK // 2), (JOB_BLOCK + 1, BLOCK // 2 + 1)],
                             ids=["empty", "block-1", "block", "block+1"])
    def test_files_are_the_tables_rows(self, tmp_path, policy_text, policy, blocks):
        jobs, samples = blocks
        spec = load_spec(TWO_TYPE)
        if policy is None:
            policy = FixedWidth(cli.solve_allocation(spec).ks)
        trace = generate_trace(spec, jobs, 7)
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        metrics = simulate(trace, spec, policy)
        horizon = float(metrics.per_job[:, 1].max()) if jobs else 0.0
        step = step_for_samples(horizon, samples) if jobs else 1.0
        k_of_t = budget_timeseries(trace, spec, policy, step)
        assert len(k_of_t) == samples
        expect = (csv_text("arrival,completion,response,gpu_hours", metrics.per_job),
                  csv_text("t,K", k_of_t))
        for cpus in (1, 3):
            jobs_csv, k_csv = tmp_path / f"jobs-{cpus}.csv", tmp_path / f"k-{cpus}.csv"
            rc, out, err = run_on_cpus(
                ["simulate", "--spec", str(TWO_TYPE), "--trace", str(path),
                 "--policy", policy_text, "--per-job", str(jobs_csv),
                 "--timeseries", str(k_csv), "--timeseries-step", repr(step)], cpus)
            assert (rc, out, err) == (0, cli._metrics_json(metrics), ""), cpus
            assert (jobs_csv.read_text(encoding="utf-8"),
                    k_csv.read_text(encoding="utf-8")) == expect, cpus

    def test_timeseries_memory_does_not_grow_with_samples(self, tmp_path):
        # Three jobs, the last running alone on 2 GPUs at speed 5/3 for a
        # million hours: K(t) has a million samples at step 1, whose (t, K)
        # table would take 16 bytes each.  One block of samples is alive at
        # a time.
        path = tmp_path / "t.csv"
        path.write_text("arrival_time,type,size\n0.5,0,1\n2.0,1,1\n3.0,0,1666667\n",
                        encoding="utf-8")
        k_csv = tmp_path / "k.csv"
        argv = ["simulate", "--spec", str(TWO_TYPE), "--trace", str(path), "--policy",
                "fixed:2,3", "--timeseries", str(k_csv)]
        tracemalloc.start()
        try:
            rc, out, err = run_on_cpus(argv, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, err) == (0, "")
        samples = k_csv.read_text(encoding="utf-8").count("\n") - 1
        assert samples > 1_000_000
        assert peak < 2_000_000 < 16 * samples
