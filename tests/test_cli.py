"""Command-line interface: output formats, round-trips, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdeform.cli as cli
import qdeform.oracle as oracle
from qdeform._floattext import float_cells
from qdeform import (
    DiracConstants,
    PotentialParams,
    SolverConfig,
    closed_form_spectrum,
    make_wavefunction,
    ode_residual,
    potential_value,
    spectrum,
)
from qdeform.cli import EXIT_CONFIG, EXIT_NO_LEVEL, EXIT_OK, EXIT_SOLVER, _fmt, main


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
        "dirac": {"mass": 1.0, "c_spin": 0.0},
    }))
    return str(path)


@pytest.fixture
def morse_config_path(tmp_path):
    path = tmp_path / "morse.json"
    path.write_text(json.dumps({
        "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.0},
        "dirac": {"mass": 1.0, "c_spin": 0.0},
    }))
    return str(path)


# accepted inputs whose effective algebra leaves the float range:
# (v1, v2, alpha, q), M, C
FLOAT_RANGE_CASES = [
    ((25.0, 10.0, 1e-300, 0.3), 1.0, 0.0),
    ((25.0, 10.0, 1e-300, 2.0), 1.0, 0.0),
    ((25.0, 10.0, 1e-160, 0.3), 1.0, 0.0),
    ((25.0, 10.0, 1.0, 0.3), 1e300, 0.0),
    ((25.0, 10.0, 1.0, 0.3), 1.0, -1e300),
]


class TestSpectrum:
    @pytest.mark.parametrize("potential, mass, c_spin", FLOAT_RANGE_CASES, ids=[
        "alpha=1e-300,q=0.3", "alpha=1e-300,q=2", "alpha=1e-160", "M=1e300", "C=-1e300"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_range_fails_in_one_line(self, potential, mass, c_spin, tmp_path, capsys):
        # no RuntimeWarning either: it would be a second stderr line
        v1, v2, alpha, q = potential
        config = tmp_path / "extreme.json"
        config.write_text(json.dumps({
            "potential": {"v1": v1, "v2": v2, "alpha": alpha, "q": q},
            "dirac": {"mass": mass, "c_spin": c_spin}}))
        assert main(["spectrum", "--config", str(config)]) in (EXIT_CONFIG, EXIT_SOLVER)
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert re.fullmatch(r"solver error: .+ is not finite at E = \S+: "
                            r"the parameters leave the float range\n", err)

    @pytest.mark.parametrize("q", [1e-306, 1e-310, 1e-320, 5e-324],
                             ids=["q=1e-306", "q=1e-310", "q=1e-320", "q=5e-324"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_q_is_the_morse_limit(self, q, tmp_path, capsys):
        # no quantity of the q < 1/4 algebra holds 1/q, so down to the last
        # subnormal q these are the q = 0 levels (it used to raise below
        # q = 1e-306, where Vt1/q overflowed), and the oracle agrees
        dc = DiracConstants(1.0)
        for solve in (spectrum, closed_form_spectrum):
            morse = solve(dc, PotentialParams(25.0, 18.0, 0.5, 0.0))
            levels = solve(dc, PotentialParams(25.0, 18.0, 0.5, q))
            assert len(morse) == len(levels) == 5
            for lv, lv0 in zip(levels, morse):
                assert lv.n_r == lv0.n_r and abs(lv.energy - lv0.energy) <= 1e-12
        config = tmp_path / "tiny-q.json"
        config.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 18.0, "alpha": 0.5, "q": q},
            "dirac": {"mass": 1.0}}))
        assert main(["verify", "--config", str(config)]) == EXIT_OK
        assert "verify: OK" in capsys.readouterr().err

    @pytest.mark.parametrize("q", [0.0, 0.3, 2.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_mass_fails_alike_in_every_regime(self, q, tmp_path, capsys):
        # E^2 - M^2 underflows to 0 at M = 1e-300: no energy is bound, in
        # the Morse regime as at q > 0, and not "no bound states"
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": q},
            "dirac": {"mass": 1e-300}}))
        assert main(["spectrum", "--config", str(config)]) == EXIT_SOLVER
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "solver error: effective eigenvalue 0.0 >= 0: not a bound state\n"

    def test_csv_to_stdout(self, config_path, capsys):
        assert main(["spectrum", "--config", config_path]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_r,E,E_tilde,method"
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(0.587541449, abs=1e-8)
        assert row[3] == "closed-form-q>=1"

    def test_morse_rows_tagged(self, morse_config_path, capsys):
        assert main(["spectrum", "--config", morse_config_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "morse-exact" in out

    def test_verify_column(self, config_path, capsys):
        assert main(["spectrum", "--config", config_path, "--verify"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith(",residual_vs_oracle")
        assert float(lines[1].split(",")[-1]) <= 1e-6

    def test_empty_spectrum_is_success(self, tmp_path, capsys):
        path = tmp_path / "shallow.json"
        path.write_text(json.dumps({
            "potential": {"v1": 4.0, "v2": 1.0, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(["spectrum", "--config", str(path)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "no bound states" in err

    def test_attractive_wall_exits_3(self, tmp_path, capsys):
        path = tmp_path / "attractive.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 20.0, "alpha": 1.0, "q": 4.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(["spectrum", "--config", str(path)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "discriminant" in err
        assert "no bound states" not in err

    @pytest.mark.parametrize("well", [
        (670.164, 243.099, 0.1704, 0.6470, 1.0, 0.0, 64),
        # its first 64 levels solve; H overflows in a bracket above them
        (741.397, 527.365, 0.1474, 0.3143, 2.5, 1.3, 200),
        (587.451, 294.494, 0.1070, 0.0, 1.0, 0.3116, 64),  # Morse, 1F1 = inf at z > 500
        (946.852, 177.943, 0.18416, 1.12e-8, 2.5, 0.0, 64),  # the 2F1 series is inf
    ])
    def test_kernel_overflow_is_only_the_solver_error(self, tmp_path, capsys, well):
        # the kernels overflow on these valid wells: the CLI prints the
        # solver error and no RuntimeWarning (the test configuration turns
        # one into an exception)
        v1, v2, alpha, q, mass, c_spin, max_levels = well
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "potential": {"v1": v1, "v2": v2, "alpha": alpha, "q": q},
            "dirac": {"mass": mass, "c_spin": c_spin},
            "solver": {"max_levels": max_levels},
        }))
        assert main(["spectrum", "--config", str(path)]) == EXIT_SOLVER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: ")

    def test_missing_field_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "q": 2.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "potential": {"v1": 1.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("block, key", [("dirac", "c-spin"), ("solver", "scan_point"),
                                            ("potential", "V1"), (None, "solvers")])
    def test_unknown_field_exits_2(self, tmp_path, capsys, block, key):
        config = {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
                  "dirac": {"mass": 1.0}}
        if block is None:
            config[key] = {}
        else:
            config.setdefault(block, {})[key] = 0.4
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        assert "unknown field '%s'" % key in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, text", [
        ("potential", "q", "NaN"), ("potential", "q", "Infinity"),
        ("potential", "v1", "Infinity"), ("potential", "alpha", "NaN"),
        ("dirac", "mass", "NaN"), ("dirac", "c_spin", "NaN"),
        ("solver", "scan_points", "1e400"), ("solver", "max_levels", "-Infinity"),
        ("solver", "tol_e", "NaN")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, block, key, text):
        # json reads NaN, Infinity and 1e400 (as inf); no solver may see them
        config = {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
                  "dirac": {"mass": 1.0}}
        config.setdefault(block, {})[key] = "@"
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(config).replace('"@"', text))
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:")

    @pytest.mark.parametrize("block, key, value", [
        ("solver", "scan_points", 150.9), ("solver", "max_levels", 3.5),
        ("solver", "scan_points", True), ("potential", "alpha", True),
        ("potential", "v1", "25"), ("dirac", "mass", "1.0"), ("solver", "tol_e", False)])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, block, key, value):
        # a bool, a string or a fractional count is not cast to a number
        config = {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
                  "dirac": {"mass": 1.0}}
        config.setdefault(block, {})[key] = value
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(config))
        assert main(["spectrum", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: field '%s'" % key)

    def test_integral_float_count_is_accepted(self, tmp_path):
        # scan_points is checked like any count, then ignored
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25, "v2": 10, "alpha": 1, "q": 2},
            "dirac": {"mass": 1}, "solver": {"scan_points": 150.0, "max_levels": 8}}))
        constants, params, config = cli.load_config(str(path))
        assert params == PotentialParams(25.0, 10.0, 1.0, 2.0)
        assert config == SolverConfig(max_levels=8)
        assert type(config.max_levels) is int and type(params.v1) is float

    @pytest.mark.parametrize("scan_points", [10, 100, 20000])
    def test_retired_scan_points_leaves_the_levels_unchanged(self, tmp_path, capsys,
                                                           scan_points):
        # older configs name scan_points; any count, 10 (below the old least
        # of 100) too, loads and prints the bytes of a config without it
        config = {"potential": {"v1": 25.0, "v2": 18.0, "alpha": 0.5, "q": 0.5},
                  "dirac": {"mass": 1.0}}
        outs = []
        for solver in ({}, {"scan_points": scan_points}):
            path = tmp_path / "legacy.json"
            path.write_text(json.dumps(dict(config, solver=solver)))
            assert main(["spectrum", "--config", str(path), "--show-disputed"]) == EXIT_OK
            out, err = capsys.readouterr()
            assert err == ""
            outs.append(out)
        assert outs[0] == outs[1] and outs[0].count("\n") > 3

    def test_left_out_fields_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 1.5},
        }))
        constants, params, config = cli.load_config(str(path))
        assert constants == DiracConstants(1.5)
        assert params == PotentialParams(25.0, 10.0, 1.0, 2.0)
        assert config == SolverConfig()

    def test_unreadable_config_exits_2(self, capsys):
        assert main(["spectrum", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_show_disputed_appends_labeled_rows(self, tmp_path, capsys):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.3},
            "dirac": {"mass": 1.0},
        }))
        assert main(["spectrum", "--config", str(path),
                     "--show-disputed"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "transcendental-q<1" in out
        assert "disputed-closed-form" in out


class TestRoundTrip:
    def test_csv_json_mirror_identical_numerics(self, config_path, tmp_path):
        out = tmp_path / "levels.csv"
        assert main(["spectrum", "--config", config_path,
                     "--out", str(out)]) == EXIT_OK
        csv_text = out.read_text()
        mirror = json.loads((tmp_path / "levels.json").read_text())
        # re-emit the parsed JSON rows: byte-identical CSV numerics
        lines = [",".join(mirror["columns"])]
        for rec in mirror["rows"]:
            lines.append(",".join(
                v if isinstance(v, str) else _fmt(v)
                for v in (rec[c] for c in mirror["columns"])))
        assert "\n".join(lines) + "\n" == csv_text


def _reference_table(columns, rows):
    """CSV and JSON of the straightforward writer: json.dumps of the parsed
    numbers."""
    def cell(v):
        return v if isinstance(v, str) else _fmt(v)

    csv_text = "\n".join(",".join(map(cell, row)) for row in [columns, *rows]) + "\n"
    recs = [{k: v if isinstance(v, str) else float(_fmt(v)) for k, v in zip(columns, row)}
            for row in rows]
    return csv_text, json.dumps({"columns": columns, "rows": recs}, indent=2) + "\n"


def _wavefunction_rows(config, n_r):
    """The rows of ``wavefunction --n-r n_r`` for a config's potential and
    dirac blocks, one numpy scalar a cell."""
    dc = DiracConstants(m=config["dirac"]["mass"], c_spin=config["dirac"]["c_spin"])
    p = PotentialParams(**config["potential"])
    wf = make_wavefunction(dc, p, spectrum(dc, p)[n_r])
    return [list(row) for row in
            zip(wf.radii, wf.f_values, wf.g_values, potential_value(wf.radii, p))]


WELLS = {
    "q2": {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
           "dirac": {"mass": 1.0, "c_spin": 0.0}},
    "q1-deep18": {"potential": {"v1": 25.0, "v2": 18.0, "alpha": 0.5, "q": 1.0},
                  "dirac": {"mass": 1.0, "c_spin": 0.0}},
    "q0.3": {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.3},
             "dirac": {"mass": 1.0, "c_spin": 0.0}},
    "morse": {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.0},
              "dirac": {"mass": 1.0, "c_spin": 0.0}},
    "q4": {"potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 4.0},
           "dirac": {"mass": 1.0, "c_spin": 0.0}},
}
WF_COLUMNS = ["r", "F", "G", "potential_value"]

EDGES = [
    [0, 0.0, -0.0, "a,b"],
    [10**15, 1e15, -1e15, "quote\" inside"],
    [-(10**16), 999999999999999.9, 1e16, "\u00e9"],
    [np.int64(2**62), 1e-4, 1e-5, ""],
    [123456789012345678901234567890, 5e-324, 2.2250738585072014e-308, "plain"],
    [np.int64(-7), 1e308, float("nan"), "x"],
    [1, 1.7976931348623157e308, -1.797693134862315e308, "100%d"],
    [999999999999999, float("inf"), -float("inf"), "y"],
    [2, 1.7976931348623151e308, -1.7976931348623151e308, "near max"],
    [10**400, 1234567890123456.5, 1e-307, "z"],
]

TABLES = {
    "mixed": (["n_r", "E", "method", "x"], [
        [0, 0.587541449360766, "closed-form-q>=1", float("nan")],
        [np.int64(3), np.float64(1e-300), "quote\" and \u00e9", float("inf")],
        [-2, 1.234567890123456e15, "", -float("inf")],
        [7, -0.0, "a,b", 1.0 / 3.0],
    ]),
    "empty": (["n_r", "E_analytic", "E_oracle", "abs_diff"], []),
    "edges": (["n", "x", "y %s", "label"], EDGES),
    "wavefunction": (WF_COLUMNS, _wavefunction_rows(WELLS["q2"], 0)),
    # long enough that its floats take the array path, beside ints and strings
    "edges x30": (["n", "x", "y %s", "label"], [row for _ in range(30) for row in EDGES]),
    # the other exports of the benchmark workloads; q1-deep18 n_r = 5 has
    # 3,328 zero potential cells and tail cells below 1e-290
    "wavefunction q0.3": (WF_COLUMNS, _wavefunction_rows(WELLS["q0.3"], 0)),
    "wavefunction morse": (WF_COLUMNS, _wavefunction_rows(WELLS["morse"], 0)),
    "wavefunction q4 n_r=1": (WF_COLUMNS, _wavefunction_rows(WELLS["q4"], 1)),
    "wavefunction q1-deep18 n_r=5": (WF_COLUMNS, _wavefunction_rows(WELLS["q1-deep18"], 5)),
}


class TestTableWriter:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_mirrors_match_reference(self, name, tmp_path, monkeypatch):
        columns, rows = TABLES[name]
        want_csv, want_json = _reference_table(columns, rows)
        cli._write_table(columns, list(zip(*rows)), str(tmp_path / "t.csv"), "csv")
        assert (tmp_path / "t.csv").read_text() == want_csv
        assert (tmp_path / "t.json").read_text() == want_json
        for fmt, want in (("csv", want_csv), ("json", want_json)):
            out = io.StringIO()
            monkeypatch.setattr(sys, "stdout", out)
            cli._write_table(columns, list(zip(*rows)), None, fmt)
            assert out.getvalue() == want

    def test_column_of_mixed_kinds_is_refused(self):
        with pytest.raises(TypeError, match="mixes"):
            cli._write_table(["x"], [[1, 0.5]], None, "csv")

    def test_a_long_export_needs_no_more_memory_than_the_per_cell_writer(self):
        # the bound is the peak of the writer that formatted each cell as a
        # Python string, on the rows cmd_wavefunction then passed it (lists
        # of floats), measured with this helper on x86_64 with Python
        # 3.11.7 and numpy 2.4.6; the block writer peaks at about 4.7 MB
        config = WELLS["q1-deep18"]
        dc = DiracConstants(m=config["dirac"]["mass"], c_spin=config["dirac"]["c_spin"])
        p = PotentialParams(**config["potential"])
        wf = make_wavefunction(dc, p, spectrum(dc, p)[5])
        cols = [wf.radii, wf.f_values, wf.g_values, potential_value(wf.radii, p)]
        assert len(cols[0]) == 10_001
        with tempfile.TemporaryDirectory() as tmp:
            args = (WF_COLUMNS, cols, os.path.join(tmp, "wf.csv"), "csv")
            assert _peak_bytes(cli._write_table, args) <= 8_509_020


def _peak_bytes(fn, args):
    """The most memory traced at once during a call (numpy reports its
    array buffers to tracemalloc), after one call to warm up."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cell_texts(x):
    """The CSV and JSON texts of each float of x, as float_cells lays them out."""
    cells, keep, json_cells, json_keep = float_cells(np.array(x, dtype=float), cli._one_by_one)
    return ([bytes(c[k]).decode() for c, k in zip(cells, keep)],
            [bytes(c[k]).decode() for c, k in zip(json_cells, json_keep)])


def _double(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@given(xs=st.lists(st.integers(0, 2**64 - 1).map(_double), min_size=1, max_size=64))
# where %g switches notation: X = -5 | -4 and 14 | 15
@example(xs=[1.5e-5, -9.99999999999999e-05, 1e-4, 0.000123456789012345, 1.5e14, -1e15,
             999999999999999.0, 123456789012345.67, 1234567890123456.0])
# a carry into the next power of ten, and a log10 one off (both ways)
@example(xs=[999999999999999.4, 999999999999999.6, 9.999999999999996, -0.9999999999999996,
             9.9999999999999995e-05, 9.999999999999999e22, 1e23, 1e100, 9.999999999999998e99,
             9.99999999999998e99, -9.9999999999998e199])
# ties, broken to even by "%"
@example(xs=[0.5, 2.5, 1234567890123456.5, 123456789012345.5, 123456789012344.5])
@example(xs=[5e-324, -2.2250738585072014e-308, 1e-290, 9.9e-291, 1e290, 1.1e290])
# the e+308 texts, one of which rounds past the largest double
@example(xs=[1e308, 1.7976931348623157e308, -1.7976931348623151e308, 1.797693134862315e308])
@example(xs=[0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1.0, 10.0, 1e16])
@settings(max_examples=300, deadline=None)
def test_float_cells_are_the_texts_of_fmt(xs):
    csv_texts, json_texts = _cell_texts(xs)
    want = [_fmt(x) for x in xs]
    assert csv_texts == want
    assert json_texts == cli._json_texts(want)


@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(x=5e-324)
@example(x=-6.4795440000989e-310)
@example(x=1e15)
@example(x=-0.0)
@example(x=1.7976931348623157e308)
@example(x=1.7976931348623151e308)
@example(x=-1.797693134862315e308)
@example(x=1.0000000000000049)
@example(x=-999999999999999.9)
@settings(max_examples=300, deadline=None)
def test_json_number_is_repr_of_parsed_text(x):
    text = _fmt(x)
    # the CSV text re-emits itself and stays finite where x is
    assert _fmt(float(text)) == text
    assert math.isfinite(float(text)) == math.isfinite(x)
    want = repr(float(text))
    want = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(want, want)
    assert _cell_texts([x]) == ([text], [want])


def _fresh_python(code, *args, **env):
    """Standard output of ``python -c code *args`` in a new process that
    imports qdeform from this checkout; OPENBLAS_NUM_THREADS is unset
    unless given in env."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(base, PYTHONPATH=src, **env), check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys, qdeform.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code).strip() == "[]"


def test_package_import_loads_no_numpy():
    code = ("import sys, qdeform; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'qdeform'))); "
            "print(qdeform.solvers.spectrum is qdeform.spectrum)")
    assert _fresh_python(code).split("\n")[:2] == ["['qdeform']", "True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_process_has_no_blas_thread_pool():
    code = ("import os, qdeform.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    assert _fresh_python(code).split() == ["1", "1"]


def test_user_set_blas_threads_are_kept():
    code = "import os, qdeform.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


@pytest.fixture
def regime_config_paths(config_path, morse_config_path, tmp_path):
    """Configs on the q >= 1, 0 < q < 1 and Morse paths."""
    q_lt_1 = tmp_path / "q0.3.json"
    q_lt_1.write_text(json.dumps({
        "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.3},
        "dirac": {"mass": 1.0, "c_spin": 0.0},
    }))
    return [config_path, str(q_lt_1), morse_config_path]


def test_spectrum_loads_neither_oracle_nor_wavefunctions(regime_config_paths):
    # nor numpy.ma (np.unique loads it) nor fractions and decimal, nor the
    # array writer, which only a block of 256 or more float cells needs
    code = ("import sys, qdeform.cli\n"
            "for path in sys.argv[1:]:\n"
            "    rc = qdeform.cli.main(['spectrum', '--config', path])\n"
            "    print('loaded', rc, [m for m in ('qdeform.oracle', 'qdeform.wavefunctions', "
            "'numpy.ma', 'fractions', 'decimal', 'qdeform._floattext') if m in sys.modules])")
    out = _fresh_python(code, *regime_config_paths)
    assert [line for line in out.splitlines() if line.startswith("loaded")] == ["loaded 0 []"] * 3


def test_verify_loads_no_numpy_ma(regime_config_paths):
    # the oracle's seeds are sorted and made distinct without np.unique,
    # which loads numpy.ma and would cost verify more than the seeds save
    code = ("import sys, qdeform.cli\n"
            "for path in sys.argv[1:]:\n"
            "    for command in (['verify'], ['spectrum', '--verify']):\n"
            "        rc = qdeform.cli.main([*command, '--config', path])\n"
            "        print('loaded', rc, [m for m in ('qdeform.oracle', 'numpy.ma', "
            "'qdeform._floattext') if m in sys.modules])")
    out = _fresh_python(code, *regime_config_paths)
    assert ([line for line in out.splitlines() if line.startswith("loaded")]
            == ["loaded 0 ['qdeform.oracle']"] * 6)


@pytest.mark.parametrize("command", ["verify", "wavefunction --n-r 0",
                                     "morse-limit --q-list 0.1,0.01"])
def test_commands_never_sum_a_polynomial_exactly(regime_config_paths, command):
    # every level is a zero of a non-terminating 2F1 or 1F1, or a(E) = -n_r
    # solved without one, so the exact polynomial sum is never reached, and
    # fractions and decimal stay unloaded
    code = ("import sys, qdeform.cli, qdeform.special as special\n"
            "calls, exact = [], special._terminating_exact\n"
            "special._terminating_exact = lambda *args: calls.append(1) or exact(*args)\n"
            "name, *opts = sys.argv[1].split()\n"
            "for path in sys.argv[2:]:\n"
            "    rc = qdeform.cli.main([name, '--config', path, *opts])\n"
            "    print('loaded', rc, len(calls), "
            "[m for m in ('fractions', 'decimal') if m in sys.modules])")
    out = _fresh_python(code, command, *regime_config_paths)
    assert [line for line in out.splitlines() if line.startswith("loaded")] == ["loaded 0 0 []"] * 3


def test_library_leaves_the_garbage_collector_alone(config_path):
    code = ("import gc, sys, qdeform.cli; "
            "rc = qdeform.cli.main(['spectrum', '--config', sys.argv[1]]); "
            "print(rc, gc.isenabled(), gc.get_freeze_count())")
    assert _fresh_python(code, config_path).splitlines()[-1] == "0 True 0"


def test_cli_process_freezes_its_import_time_heap(config_path):
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['qdeform', 'spectrum', '--config', sys.argv[1]]\n"
            "try:\n"
            "    runpy.run_module('qdeform.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)")
    assert _fresh_python(code, config_path).splitlines()[-1] == "0 True True"


class TestWavefunction:
    def test_export_grid(self, config_path, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", config_path,
                     "--n-r", "0", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"r", "F", "G", "potential_value"}
        f0 = float(rows[0]["F"])
        fs = [float(row["F"]) for row in rows]
        rs = [float(row["r"]) for row in rows]
        peak = max(abs(v) for v in fs)
        assert abs(f0) < 1e-6 * peak
        # trapezoid norm on the exported grid
        total = 0.0
        for i in range(len(rows) - 1):
            gi = float(rows[i]["G"])
            gi1 = float(rows[i + 1]["G"])
            total += 0.5 * (rs[i + 1] - rs[i]) * (
                fs[i] ** 2 + gi ** 2 + fs[i + 1] ** 2 + gi1 ** 2)
        assert total == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("well,n_r", [("q1-deep18", 3), ("q0.3", 0), ("morse", 0)])
    def test_exports_match_reference(self, well, n_r, tmp_path, capsys):
        config = tmp_path / "well.json"
        config.write_text(json.dumps(WELLS[well]))
        want_csv, want_json = _reference_table(WF_COLUMNS, _wavefunction_rows(WELLS[well], n_r))
        argv = ["wavefunction", "--config", str(config), "--n-r", str(n_r)]
        assert main(argv + ["--out", str(tmp_path / "wf.csv")]) == EXIT_OK
        assert (tmp_path / "wf.csv").read_text() == want_csv
        assert (tmp_path / "wf.json").read_text() == want_json
        capsys.readouterr()
        assert main(argv + ["--format", "json"]) == EXIT_OK
        assert capsys.readouterr().out == want_json

    @pytest.mark.parametrize("potential", [
        (592.1743657072199, 261.0997930123119, 2.855467382510766, 1.888362945089285),
        (273.57637326685057, 186.05984560277363, 2.833608644022173, 0.25783811524601213),
    ], ids=["q>=1-envelope", "q<1-z"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_tail_exports_without_warnings(self, potential, tmp_path, capsys):
        # far out the envelope (q >= 1) underflows to 0, and z (q < 1) is
        # exactly 0 where cosh_q overflows; no RuntimeWarning may reach stderr
        v1, v2, alpha, q = potential
        config = tmp_path / "well.json"
        config.write_text(json.dumps({
            "potential": {"v1": v1, "v2": v2, "alpha": alpha, "q": q},
            "dirac": {"mass": 1.0, "c_spin": 0.4}}))
        assert main(["wavefunction", "--config", str(config), "--n-r", "2",
                     "--out", str(tmp_path / "wf.csv")]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_missing_level_exits_4(self, config_path, capsys):
        assert main(["wavefunction", "--config", config_path,
                     "--n-r", "99"]) == EXIT_NO_LEVEL
        assert "n_r=99" in capsys.readouterr().err

    def test_out_in_a_missing_directory_exits_2(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing" / "wf.csv"
        assert main(["wavefunction", "--config", config_path, "--n-r", "0",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: cannot write %s: No such file or directory\n" % out
        assert not out.parent.exists()

    def test_failed_out_keeps_the_last_export(self, config_path, tmp_path, capsys):
        # the mirrors are emptied only once both are open
        out = tmp_path / "x.csv"
        out.write_text("n_r,E\n0,1\n")
        (tmp_path / "x.json").mkdir()
        assert main(["spectrum", "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: cannot write %s: " % (tmp_path / "x.json"))
        assert out.read_text() == "n_r,E\n0,1\n"

    def test_json_mirror_that_is_a_directory_exits_2(self, config_path, tmp_path, capsys):
        # both mirrors are opened before either is written: no CSV rows
        (tmp_path / "wf.json").mkdir()
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", config_path, "--n-r", "0",
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: cannot write %s: " % (tmp_path / "wf.json"))
        assert out.read_text() == ""

    @pytest.mark.parametrize("potential,n_r", [
        ({"v1": 400.0, "v2": 300.0, "alpha": 0.3, "q": 0.0}, 10),
    ], ids=["deep-morse-n10"])
    def test_f_that_misses_the_boundary_exits_3(self, potential, n_r, tmp_path, capsys):
        config = tmp_path / "well.json"
        config.write_text(json.dumps({"potential": potential, "dirac": {"mass": 1.0}}))
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", str(config), "--n-r", str(n_r),
                     "--out", str(out)]) == EXIT_SOLVER
        assert "solver error:" in capsys.readouterr().err
        assert not out.exists()

    def test_q_near_1_ground_state_meets_the_boundary(self, tmp_path, capsys):
        # z0 = 1 - 6.3e-8: the level is polished to the kernel's zero of
        # H(E, 0) before sampling, so F vanishes at the left edge.  As in
        # test_wavefunctions' twin, it vanishes only because a(E) rounds to
        # 0.0 at the polished energy, where gauss_2f1 sums the exact
        # polynomial H = 1; at the energy spectrum returns H(E, 0) is -9e21
        config = tmp_path / "well.json"
        config.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.999},
            "dirac": {"mass": 1.0}}))
        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--config", str(config), "--n-r", "0",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        r = np.array([float(row["r"]) for row in rows])
        f = np.array([float(row["F"]) for row in rows])
        level = spectrum(DiracConstants(m=1.0), PotentialParams(25.0, 10.0, 1.0, 0.999))[0]
        assert abs(f[0]) <= 1e-8 * np.max(np.abs(f))
        assert ode_residual(r, f, level.energy, DiracConstants(m=1.0),
                            PotentialParams(25.0, 10.0, 1.0, 0.999)) <= 1e-6


class TestMorseLimit:
    def test_deviation_decreases(self, morse_config_path, capsys):
        assert main(["morse-limit", "--config", morse_config_path,
                     "--q-list", "0.1,0.01,0.001"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        devs = [float(r[4]) for r in rows if r[3] == "transcendental-q<1"
                and r[1] == "0"]
        assert len(devs) == 3
        assert devs[0] > devs[1] > devs[2]
        tags = {r[3] for r in rows}
        assert {"morse-exact", "morse-asymptotic"} <= tags

    def test_empty_q_list_exits_2(self, morse_config_path, capsys):
        assert main(["morse-limit", "--config", morse_config_path,
                     "--q-list", ""]) == EXIT_CONFIG

    def test_non_decreasing_q_list_exits_2(self, morse_config_path):
        assert main(["morse-limit", "--config", morse_config_path,
                     "--q-list", "0.01,0.1"]) == EXIT_CONFIG

    def test_out_of_range_q_exits_2(self, morse_config_path):
        assert main(["morse-limit", "--config", morse_config_path,
                     "--q-list", "1.5,0.5"]) == EXIT_CONFIG


class TestVerify:
    def test_agreement_reported(self, config_path, capsys):
        assert main(["verify", "--config", config_path]) == EXIT_OK
        captured = capsys.readouterr()
        assert "verify: OK" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0] == "n_r,E_analytic,E_oracle,abs_diff"
        assert float(lines[1].split(",")[-1]) <= 1e-6

    def test_weak_wall_passes(self, tmp_path, capsys):
        # V2 sqrt(q) = 24.9 < V1 = 25: a wall that barely repels
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 17.6, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(["verify", "--config", str(path)]) == EXIT_OK
        assert "verify: OK" in capsys.readouterr().err

    def test_near_unit_q_passes(self, tmp_path, capsys):
        # q -> 1-: a near-wall at the origin, resolved by the oracle's map
        path = tmp_path / "q0999.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 0.999},
            "dirac": {"mass": 1.0},
        }))
        assert main(["verify", "--config", str(path)]) == EXIT_OK
        assert "verify: OK" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_level_missed_by_the_scan_fails(self, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "six.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 18.0, "alpha": 0.5, "q": 1.0},
            "dirac": {"mass": 1.0},
        }))
        real = cli.spectrum
        monkeypatch.setattr(cli, "spectrum", lambda *args: real(*args)[:-1])
        assert main(command + ["--config", str(path)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "verify: FAIL" in err
        assert "oracle counts 6 or more levels, the analytic spectrum 5" in err

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_spectrum_that_lost_every_level_fails(self, command, config_path, capsys,
                                                  monkeypatch):
        # an empty analytic spectrum is checked too: no levels found is not
        # "no bound states" until the oracle finds none either
        monkeypatch.setattr(cli, "spectrum", lambda *args: [])
        assert main(command + ["--config", config_path]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "verify: FAIL" in err
        assert "the oracle counts 1 or more levels, the analytic spectrum 0" in err
        assert "no bound states" not in err

    @pytest.mark.parametrize("command, header", [
        (["verify"], "n_r,E_analytic,E_oracle,abs_diff"),
        (["spectrum", "--verify"], "n_r,E,E_tilde,method,residual_vs_oracle"),
    ])
    def test_empty_spectrum_the_oracle_confirms_passes(self, command, header, tmp_path,
                                                       capsys):
        path = tmp_path / "shallow.json"
        path.write_text(json.dumps({
            "potential": {"v1": 4.0, "v2": 1.0, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 1.0},
        }))
        assert main(command + ["--config", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [header]
        assert "no bound states" in captured.err
        assert "FAIL" not in captured.err
        if command == ["verify"]:
            assert "verify: OK" in captured.err

    @pytest.mark.parametrize("command", [["spectrum"], ["spectrum", "--verify"], ["verify"]])
    @pytest.mark.parametrize("max_levels, n_rows", [(64, 64), (128, 91)])
    def test_max_levels_cap_is_noted(self, command, max_levels, n_rows, tmp_path, capsys,
                                     monkeypatch):
        # a deep well of 91 levels: at the default cap the list stops at
        # n_r = 63 and says so; the note changes no exit code
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "potential": {"v1": 741.397, "v2": 527.365, "alpha": 0.1474, "q": 0.3143},
            "dirac": {"mass": 1.0, "c_spin": 0.1688},
            "solver": {"max_levels": max_levels},
        }))
        # the analytic levels stand in for the oracle's, which take seconds here
        monkeypatch.setattr(oracle, "shoot_eigenvalues", lambda dc, p, n_max, tol, seeds:
                            spectrum(dc, p, SolverConfig(max_levels=n_max)))
        assert main(command + ["--config", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == n_rows + 1
        note = ("note: the spectrum stops at max_levels = 64; levels past n_r = 63, "
                "if any, are not listed\n")
        assert (note in captured.err) == (max_levels == 64)
        assert "FAIL" not in captured.err

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_residual_above_tolerance_fails(self, command, config_path, capsys, monkeypatch):
        # every analytic level 1e-5 off: both commands give one verdict
        real = cli.spectrum
        monkeypatch.setattr(cli, "spectrum", lambda *args: [
            dataclasses.replace(lv, energy=lv.energy + 1e-5) for lv in real(*args)])
        assert main(command + ["--config", config_path]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert re.fullmatch(r"verify: FAIL \(max \|dE\| = 1\.0000\d*e-05 exceeds 1e-06\)\n", err)

    @staticmethod
    def _well(tmp_path, q):
        path = tmp_path / "well.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 18.0, "alpha": 0.5, "q": q},
            "dirac": {"mass": 1.0},
        }))
        return str(path)

    @pytest.mark.parametrize("shift", [2e-6, -2e-6])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_levels_shifted_past_the_band_fail(self, command, q, shift, tmp_path, capsys,
                                               monkeypatch):
        # the oracle is seeded at E_n +- 1e-6 M of the levels it is given:
        # shifted by 2e-6 M, no pair encloses a level, and the oracle still
        # puts every level where the ODE has it
        real = cli.spectrum
        monkeypatch.setattr(cli, "spectrum", lambda *args: [
            dataclasses.replace(lv, energy=lv.energy + shift) for lv in real(*args)])
        assert main(command + ["--config", self._well(tmp_path, q)]) == EXIT_SOLVER
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == (5 if q < 1.0 else 6)
        for row in rows:  # abs_diff, or residual_vs_oracle
            assert float(row.split(",")[-1]) == pytest.approx(2e-6, abs=1e-9)
        worst = re.fullmatch(r"verify: FAIL \(max \|dE\| = (\S+) exceeds 1e-06\)\n",
                             captured.err)
        assert worst and float(worst.group(1)) == pytest.approx(2e-6, abs=1e-9)

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_swapped_labels_fail(self, command, tmp_path, capsys, monkeypatch):
        # the seeds sit at the right energies, but the oracle labels its
        # levels itself: n_r = 1 and 2 swapped are each compared with the
        # other's level
        real = cli.spectrum

        def swapped(*args):
            levels = real(*args)
            one, two = levels[1], levels[2]
            levels[1] = dataclasses.replace(one, n_r=two.n_r)
            levels[2] = dataclasses.replace(two, n_r=one.n_r)
            return levels
        monkeypatch.setattr(cli, "spectrum", swapped)
        assert main(command + ["--config", self._well(tmp_path, 0.5)]) == EXIT_SOLVER
        worst = re.fullmatch(r"verify: FAIL \(max \|dE\| = (\S+) exceeds 1e-06\)\n",
                             capsys.readouterr().err)
        assert worst and float(worst.group(1)) > 1e-2

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_oracle_is_seeded_at_the_levels(self, command, tmp_path, monkeypatch):
        # E_n +- 1e-6 M of each level, and at most 5.5 sweeps a level on
        # these five levels (49 sweeps from the window ends alone)
        seen, sweeps = [], []
        real, real_sweep = oracle.shoot_eigenvalues, oracle.integrate_radial

        def spy(*args, **kwargs):
            seen.append(np.sort(kwargs["seeds"]))
            return real(*args, **kwargs)
        monkeypatch.setattr(oracle, "shoot_eigenvalues", spy)
        monkeypatch.setattr(oracle, "integrate_radial",
                            lambda *args: sweeps.append(1) or real_sweep(*args))
        path = self._well(tmp_path, 0.5)
        assert main(command + ["--config", path]) == EXIT_OK
        e = np.array([lv.energy for lv in spectrum(*cli.load_config(path)[:2])])
        assert len(seen) == 1 and len(e) == 5
        np.testing.assert_array_equal(seen[0], np.sort(np.concatenate([e - 1e-6, e + 1e-6])))
        assert len(sweeps) <= 5.5 * len(e)

    @pytest.mark.parametrize("command", [["verify"], ["spectrum", "--verify"]])
    def test_oracle_tolerance_from_config(self, command, tmp_path, monkeypatch):
        path = tmp_path / "tol.json"
        path.write_text(json.dumps({
            "potential": {"v1": 25.0, "v2": 10.0, "alpha": 1.0, "q": 2.0},
            "dirac": {"mass": 2.0},
            "solver": {"tol_e": 1e-7},
        }))
        seen = []
        real = oracle.shoot_eigenvalues

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return real(*args, **kwargs)

        # cli imports the oracle when it first needs it
        monkeypatch.setattr(oracle, "shoot_eigenvalues", spy)
        assert main(command + ["--config", str(path)]) == EXIT_OK
        assert seen == [pytest.approx(2e-7, rel=1e-15)]
