"""Batch front end: spectra, wavefunctions, and Morse-limit sweeps from JSON configs.

All physical quantities are in natural units where the user's chosen mass
scale equals 1.  Results are written as CSV with a JSON mirror; numbers are
formatted to 15 significant digits so that re-emitting a parsed JSON file
reproduces the CSV byte for byte.

Exit codes: 0 success (an empty spectrum is still a success and prints a
note), 2 configuration error, 3 solver failure, 4 requested level absent.
"""

import argparse
import json
import math
import os
import re
import sys
from itertools import chain

# qdeform makes no BLAS call, so a CLI process has no use for OpenBLAS's
# thread pool; OpenBLAS sizes it from this variable when numpy loads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .deformed import PotentialParams, potential_value  # noqa: E402
from .effective import DiracConstants  # noqa: E402
from .errors import QdeformError  # noqa: E402
from .solvers import (  # noqa: E402
    SolverConfig,
    disputed_q_lt_1,
    morse_asymptotic_spectrum,
    solve_morse_exact,
    solve_q_lt_1,
    spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_LEVEL = 4


class ConfigError(Exception):
    """Raised when the run configuration is missing or malformed."""


def _fmt(x):
    """Format a number to 15 significant digits, round-trip stable.

    A finite float whose 15-digit text would round past the largest double
    (and so parse to inf) is written as its shortest repr instead.
    """
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    text = "%.15g" % float(x)
    if text.endswith("e+308") and math.isinf(float(text)):
        return repr(float(x))
    return text


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError("missing field '%s' in %s" % (key, where))
    return mapping[key]


def load_config(path):
    """Parse a JSON config file into (DiracConstants, PotentialParams, SolverConfig).

    Schema::

        {
          "potential": {"v1": ..., "v2": ..., "alpha": ..., "q": ...},
          "dirac":     {"mass": ..., "c_spin": 0.0},
          "solver":    {"scan_points": 2000, "tol_e": 1e-10, "max_levels": 64}
        }

    The "solver" block and "c_spin" are optional.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)

    pot = _require(raw, "potential", "config")
    dirac = _require(raw, "dirac", "config")
    try:
        params = PotentialParams(
            v1=float(_require(pot, "v1", "potential")),
            v2=float(_require(pot, "v2", "potential")),
            alpha=float(_require(pot, "alpha", "potential")),
            q=float(_require(pot, "q", "potential")),
        )
        constants = DiracConstants(
            m=float(_require(dirac, "mass", "dirac")),
            c_spin=float(dirac.get("c_spin", 0.0)),
        )
        sol = raw.get("solver", {})
        config = SolverConfig(
            scan_points=int(sol.get("scan_points", 2000)),
            tol_e=float(sol.get("tol_e", 1e-10)),
            max_levels=int(sol.get("max_levels", 64)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    return constants, params, config


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Number texts whose JSON spelling differs from the text.  A finite "%.15g"
# text has at most 15 significant digits, so it parses to the one double
# whose shortest repr has the same digits; the spellings differ only for
# integral texts (repr appends ".0"), non-finite values, exponent e+15
# (repr writes it out in full), exponent e+308 (a "%.15g" text may round
# past the largest double and parse to inf; _fmt writes such a finite value
# as its repr) and subnormal exponents, where a double holds fewer than 15
# digits.
_JSON_SPECIAL = re.compile(r"-?\d+|-?inf|nan|.*e(?:\+15|\+308|-30[89]|-3[1-9]\d)")


def _json_texts(values, code, texts):
    """The JSON spellings of one number column, from its values, %-code and
    texts: the shortest repr of the float each text parses to, with NaN,
    Infinity and -Infinity for the non-finite ones.

    Only the texts _JSON_SPECIAL matches are parsed again.  Every int text
    is integral; a float can have such a text only when it is not finite,
    below 1e-307 in magnitude, or within 1e-14 relative of an integer, as
    every float from 1e14 up is.
    """
    out = list(texts)
    if code == "%d":
        maybe = range(len(out))
    else:
        x = np.abs(np.asarray(values, dtype=float))
        with np.errstate(invalid="ignore"):
            plain = (x >= 1e-307) & (np.abs(x - np.round(x)) > 1e-14 * x)
        maybe = np.flatnonzero(~plain)
    for i in maybe:
        if _JSON_SPECIAL.fullmatch(out[i]):
            text = repr(float(out[i]))
            out[i] = _JSON_NONFINITE.get(text, text)
    return out


def _column_code(values):
    """The %-code of a table column: "%s" for strings, "%d" for ints and
    numpy integers, "%.15g" for every other number."""
    codes = {"%s" if issubclass(t, str)
             else "%d" if issubclass(t, (int, np.integer)) else "%.15g"
             for t in set(map(type, values))}
    if len(codes) > 1:
        raise TypeError("a table column mixes %s cells" % " and ".join(sorted(codes)))
    return codes.pop()


def _json_list(text):
    """A list one level deep in the indent-2 JSON layout, from its items
    already encoded, indented and joined."""
    return "[\n" + text + "\n  ]" if text else "[]"


def _number_texts(numeric, n):
    """The text of each number of a table, column after column.

    ``numeric`` holds the number columns as (n values, %-code) pairs.  One
    ``%`` formats them all; a text with exponent e+308 may have rounded
    past the largest double, so those alone go through ``_fmt`` again.
    """
    def values():
        return chain.from_iterable(col for col, _ in numeric)

    text = "\n".join("\n".join([code] * n) for _, code in numeric) % tuple(values())
    texts = text.split("\n")
    if "e+308" in text:
        texts = [_fmt(v) if t.endswith("e+308") else t for v, t in zip(values(), texts)]
    return texts


def _write_table(columns, rows, out_path, fmt):
    """Write rows as CSV or JSON; when out_path is given, write both mirrors.

    Every number is formatted once, by one ``%`` over the whole table: the
    CSV holds the text of ``_fmt`` and the JSON the float it parses to, in
    the layout of ``json.dumps({"columns": columns, "rows": [...]}, indent=2)``.
    Strings go to the CSV as they are.
    """
    cols = list(zip(*rows))
    codes = [_column_code(col) for col in cols]
    n = len(rows)
    numeric = [(col, code) for col, code in zip(cols, codes) if code != "%s"]
    texts = _number_texts(numeric, n)
    number_columns = [texts[j * n:(j + 1) * n] for j in range(len(numeric))]

    def cell_columns(number_texts, encode_string):
        numbers = iter(number_texts)
        return [map(encode_string, col) if code == "%s" else next(numbers)
                for col, code in zip(cols, codes)]

    def to_csv():
        lines = map(",".join, zip(*cell_columns(number_columns, str)))
        return "\n".join([",".join(columns), *lines]) + "\n"

    def to_json():
        keys = [json.dumps(k) for k in columns]
        record = ("    {\n" + ",\n".join("      " + k.replace("%", "%%") + ": %s" for k in keys)
                  + "\n    }")
        json_columns = [_json_texts(col, code, t)
                        for (col, code), t in zip(numeric, number_columns)]
        cells = chain.from_iterable(zip(*cell_columns(json_columns, json.dumps)))
        return ('{\n  "columns": ' + _json_list(",\n".join("    " + k for k in keys))
                + ',\n  "rows": ' + _json_list(",\n".join([record] * n) % tuple(cells))
                + "\n}\n")

    if out_path is None:
        sys.stdout.write(to_csv() if fmt == "csv" else to_json())
        return
    base, ext = os.path.splitext(out_path)
    csv_path = out_path if ext == ".csv" else base + ".csv"
    json_path = out_path if ext == ".json" else base + ".json"
    with open(csv_path, "w") as fh:
        fh.write(to_csv())
    with open(json_path, "w") as fh:
        fh.write(to_json())


def _oracle_levels(constants, params, config, levels):
    """The oracle's energies by n_r for a non-empty analytic spectrum, and
    the FAIL message when the two count different levels (else None).

    The oracle is asked for one level more than the analytic count, so that
    a level the scan missed shows; at the max_levels cap the analytic list
    stops on purpose.
    """
    from .oracle import shoot_eigenvalues

    n_max = len(levels) + (len(levels) < config.max_levels)
    oracle = shoot_eigenvalues(constants, params, n_max=n_max,
                               tol=config.tol_e * constants.m)
    mismatch = None
    if len(oracle) != len(levels):
        more = " or more" if len(oracle) == n_max > len(levels) else ""
        mismatch = ("verify: FAIL (the oracle counts %d%s levels, the analytic spectrum %d)"
                    % (len(oracle), more, len(levels)))
    return {lv.n_r: lv.energy for lv in oracle}, mismatch


def cmd_spectrum(args):
    constants, params, config = load_config(args.config)
    levels = spectrum(constants, params, config)

    columns = ["n_r", "E", "E_tilde", "method"]
    rows = [[lv.n_r, lv.energy, lv.e_tilde, lv.method] for lv in levels]

    mismatch = None
    if args.verify and levels:
        by_n, mismatch = _oracle_levels(constants, params, config, levels)
        columns.append("residual_vs_oracle")
        for row, lv in zip(rows, levels):
            row.append(abs(lv.energy - by_n[lv.n_r])
                       if lv.n_r in by_n else float("nan"))

    if args.show_disputed and params.q < 1.0 and params.q > 0.0:
        disputed = disputed_q_lt_1(constants, params, config)
        for lv in disputed:
            row = [lv.n_r, lv.energy, lv.e_tilde, lv.method]
            if args.verify:
                row.append(float("nan"))
            rows.append(row)

    if not levels:
        print("note: no bound states for these parameters", file=sys.stderr)
    _write_table(columns, rows, args.out, args.format)
    if mismatch:
        print(mismatch, file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_wavefunction(args):
    from .wavefunctions import make_wavefunction

    constants, params, config = load_config(args.config)
    levels = spectrum(constants, params, config)
    match = [lv for lv in levels if lv.n_r == args.n_r]
    if not match:
        print("error: level n_r=%d not found (spectrum has %d levels)"
              % (args.n_r, len(levels)), file=sys.stderr)
        return EXIT_NO_LEVEL
    wf = make_wavefunction(constants, params, match[0])
    pot = potential_value(wf.radii, params)
    columns = ["r", "F", "G", "potential_value"]
    rows = list(zip(wf.radii.tolist(), wf.f_values.tolist(),
                    wf.g_values.tolist(), pot.tolist()))
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def cmd_morse_limit(args):
    constants, params, config = load_config(args.config)
    try:
        q_list = [float(s) for s in args.q_list.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError("bad --q-list: %s" % exc)
    if not q_list:
        raise ConfigError("--q-list is empty")
    if any(not (0.0 < q < 1.0) for q in q_list):
        raise ConfigError("all q values must lie in (0, 1)")
    if any(b >= a for a, b in zip(q_list, q_list[1:])):
        raise ConfigError("--q-list must be strictly decreasing")

    morse = PotentialParams(params.v1, params.v2, params.alpha, 0.0)
    exact = solve_morse_exact(constants, morse, config)
    asym = morse_asymptotic_spectrum(constants, morse, config)[: len(exact)]
    sweeps = [solve_q_lt_1(constants,
                           PotentialParams(params.v1, params.v2, params.alpha, q),
                           config)
              for q in q_list]

    exact_by_n = {lv.n_r: lv.energy for lv in exact}
    columns = ["q", "n_r", "E", "method", "deviation_from_morse"]
    rows = []
    for q, levels in zip(q_list, sweeps):
        for lv in levels:
            dev = (abs(lv.energy - exact_by_n[lv.n_r])
                   if lv.n_r in exact_by_n else float("nan"))
            rows.append([q, lv.n_r, lv.energy, lv.method, dev])
    for lv in exact:
        rows.append([0.0, lv.n_r, lv.energy, lv.method, 0.0])
    for lv in asym:
        dev = (abs(lv.energy - exact_by_n[lv.n_r])
               if lv.n_r in exact_by_n else float("nan"))
        rows.append([0.0, lv.n_r, lv.energy, lv.method, dev])
    _write_table(columns, rows, args.out, args.format)
    return EXIT_OK


def cmd_verify(args):
    """Solve the spectrum twice (analytic and shooting) and report agreement."""
    constants, params, config = load_config(args.config)
    levels = spectrum(constants, params, config)
    if not levels:
        print("note: no bound states for these parameters", file=sys.stderr)
        _write_table(["n_r", "E_analytic", "E_oracle", "abs_diff"], [],
                     args.out, args.format)
        return EXIT_OK
    by_n, mismatch = _oracle_levels(constants, params, config, levels)
    columns = ["n_r", "E_analytic", "E_oracle", "abs_diff"]
    rows = []
    worst = 0.0
    for lv in levels:
        e_ref = by_n.get(lv.n_r, float("nan"))
        diff = abs(lv.energy - e_ref)
        worst = max(worst, diff)
        rows.append([lv.n_r, lv.energy, e_ref, diff])
    _write_table(columns, rows, args.out, args.format)
    if mismatch:
        print(mismatch, file=sys.stderr)
        return EXIT_SOLVER
    tol = 1e-6 * constants.m
    if not (worst <= tol):
        print("verify: FAIL (max |dE| = %s exceeds %s)" % (_fmt(worst), _fmt(tol)),
              file=sys.stderr)
        return EXIT_SOLVER
    print("verify: OK (max |dE| = %s)" % _fmt(worst), file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdeform",
        description="Bound states of the s-wave Dirac equation with a "
                    "deformed generalized Poschl-Teller potential.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None,
                       help="output path; writes CSV and a JSON mirror")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="stdout format when --out is omitted")

    p = sub.add_parser("spectrum", help="compute all bound levels")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="add a residual column against the shooting solver")
    p.add_argument("--show-disputed", action="store_true",
                   help="append levels from the disputed closed-form "
                        "quantization applied outside its validity range")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="export one normalized level")
    common(p)
    p.add_argument("--n-r", type=int, required=True, dest="n_r",
                   help="radial quantum number of the level to export")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("morse-limit", help="q -> 0 convergence sweep")
    common(p)
    p.add_argument("--q-list", required=True,
                   help="comma-separated, strictly decreasing q values in (0,1)")
    p.set_defaults(func=cmd_morse_limit)

    p = sub.add_parser("verify", help="cross-check analytic levels against "
                                      "the independent shooting solver")
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except QdeformError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
