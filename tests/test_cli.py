"""Command-line interface: output formats, round-trips, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdeform.cli as cli
import qdeform.oracle as oracle
from qdeform import DiracConstants, PotentialParams, make_wavefunction, potential_value, spectrum
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


class TestSpectrum:
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
}
WF_COLUMNS = ["r", "F", "G", "potential_value"]

TABLES = {
    "mixed": (["n_r", "E", "method", "x"], [
        [0, 0.587541449360766, "closed-form-q>=1", float("nan")],
        [np.int64(3), np.float64(1e-300), "quote\" and \u00e9", float("inf")],
        [-2, 1.234567890123456e15, "", -float("inf")],
        [7, -0.0, "a,b", 1.0 / 3.0],
    ]),
    "empty": (["n_r", "E_analytic", "E_oracle", "abs_diff"], []),
    "edges": (["n", "x", "y %s", "label"], [
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
    ]),
    "wavefunction": (WF_COLUMNS, _wavefunction_rows(WELLS["q2"], 0)),
}


class TestTableWriter:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_mirrors_match_reference(self, name, tmp_path, monkeypatch):
        columns, rows = TABLES[name]
        want_csv, want_json = _reference_table(columns, rows)
        cli._write_table(columns, rows, str(tmp_path / "t.csv"), "csv")
        assert (tmp_path / "t.csv").read_text() == want_csv
        assert (tmp_path / "t.json").read_text() == want_json
        for fmt, want in (("csv", want_csv), ("json", want_json)):
            out = io.StringIO()
            monkeypatch.setattr(sys, "stdout", out)
            cli._write_table(columns, rows, None, fmt)
            assert out.getvalue() == want

    def test_column_of_mixed_kinds_is_refused(self):
        with pytest.raises(TypeError, match="mixes"):
            cli._write_table(["x"], [[1], [0.5]], None, "csv")


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
    assert cli._json_texts([0.5, x], "%.15g", ["0.5", text]) == ["0.5", want]


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


def test_spectrum_loads_neither_oracle_nor_wavefunctions(config_path):
    code = ("import sys, qdeform.cli; "
            "rc = qdeform.cli.main(['spectrum', '--config', sys.argv[1]]); "
            "print(rc, [m for m in ('qdeform.oracle', 'qdeform.wavefunctions') "
            "if m in sys.modules])")
    assert _fresh_python(code, config_path).splitlines()[-1] == "0 []"


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

    def test_missing_level_exits_4(self, config_path, capsys):
        assert main(["wavefunction", "--config", config_path,
                     "--n-r", "99"]) == EXIT_NO_LEVEL
        assert "n_r=99" in capsys.readouterr().err


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
