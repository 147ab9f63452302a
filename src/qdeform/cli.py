"""Batch front end: spectra, wavefunctions, and Morse-limit sweeps from JSON configs.

All physical quantities are in natural units where the user's chosen mass
scale equals 1.  Results are written as CSV with a JSON mirror; numbers are
formatted to 15 significant digits so that re-emitting a parsed JSON file
reproduces the CSV byte for byte.

Exit codes: 0 success (an empty spectrum is still a success and prints a
note; with ``verify`` the oracle must agree that it is empty), 2
configuration error or an ``--out`` path that cannot be opened for
writing, 3 solver failure, 4 requested level absent.
"""

import argparse
import gc
import json
import math
import os
import sys

# qdeform makes no BLAS call, so a CLI process has no use for OpenBLAS's
# thread pool; OpenBLAS sizes it from this variable when numpy loads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if __name__ == "__main__":
    # the imports below make only long-lived objects; run() freezes them
    # and turns the collector back on
    gc.disable()

import numpy as np  # noqa: E402

from .deformed import PotentialParams, potential_value  # noqa: E402
from .effective import DiracConstants  # noqa: E402
from .errors import QdeformError  # noqa: E402
from .solvers import SolverConfig, closed_form_spectrum, spectrum  # noqa: E402

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_LEVEL = 4


class ConfigError(Exception):
    """Raised when the run configuration is missing or malformed."""


class OutputError(Exception):
    """Raised when an output file cannot be opened for writing."""


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


# The fields of each config block and the type each is cast to.  An
# optional field left out keeps the default of DiracConstants or SolverConfig.
_SCHEMA = {
    "potential": {"v1": float, "v2": float, "alpha": float, "q": float},
    "dirac": {"mass": float, "c_spin": float},
    "solver": {"scan_points": int, "tol_e": float, "max_levels": int},
}
_REQUIRED = ("potential", "dirac", "v1", "v2", "alpha", "q", "mass")


def _cast(kind, key, value):
    """A config value as ``kind`` (float or int), once it is a JSON number:
    a bool or a string is an error, and so is a fractional int field."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError("field '%s' must be %s, got %s" % (
            key, "an integer" if kind is int else "a number", json.dumps(value)))
    return kind(value)


def _checked(mapping, known, where):
    """mapping, once it is a JSON object with every required field of
    ``known`` and no field outside it."""
    if not isinstance(mapping, dict):
        raise ConfigError("%s must be a JSON object" % where)
    for key in mapping:
        if key not in known:
            raise ConfigError("unknown field '%s' in %s" % (key, where))
    for key in known:
        if key in _REQUIRED and key not in mapping:
            raise ConfigError("missing field '%s' in %s" % (key, where))
    return mapping


def load_config(path):
    """Parse a JSON config file into (DiracConstants, PotentialParams, SolverConfig).

    Schema::

        {
          "potential": {"v1": ..., "v2": ..., "alpha": ..., "q": ...},
          "dirac":     {"mass": ..., "c_spin": 0.0},
          "solver":    {"tol_e": 1e-10, "max_levels": 64}
        }

    The "solver" block and "c_spin" are optional; an unknown field is an
    error.  "solver" may also name the retired seed count, which is checked
    as a count and then dropped.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)

    blocks = {name: _checked(block, _SCHEMA[name], name)
              for name, block in _checked(raw, _SCHEMA, "config").items()}
    try:
        pot, dirac, sol = ({key: _cast(_SCHEMA[name][key], key, value)
                            for key, value in blocks.get(name, {}).items()}
                           for name in _SCHEMA)
        params = PotentialParams(**pot)
        constants = DiracConstants(dirac.pop("mass"), **dirac)
        sol.pop("scan_points", None)  # no longer a setting; older configs still name it
        config = SolverConfig(**sol)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc))
    return constants, params, config


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_texts(texts):
    """The JSON spellings of number texts: the shortest repr of the float
    each text parses to, with NaN, Infinity and -Infinity for the
    non-finite ones."""
    return [_JSON_NONFINITE.get(t, t) for t in map(repr, map(float, texts))]


def _column_code(values):
    """The %-code of a table column: "%s" for strings, "%d" for ints and
    numpy integers, "%.15g" for every other number."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return "%.15g"
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


def _text_cells(texts):
    """Texts as a byte matrix, one UTF-8 text a row, and the mask of the
    bytes each row holds."""
    data = [t.encode() for t in texts]
    cells = np.array(data, dtype="S%d" % max(1, max(map(len, data))))
    keep = np.arange(cells.itemsize) < np.array([len(b) for b in data])[:, None]
    return cells.view(np.uint8).reshape(len(data), -1), keep


def _one_by_one(values):
    """The texts of floats formatted one at a time by ``_fmt`` and
    ``_json_texts``, as ``_floattext.float_cells`` returns them."""
    texts = [_fmt(v) for v in values]
    return (*_text_cells(texts), *_text_cells(_json_texts(texts)))


_BLOCK = 2048  # rows formatted and written at a time: bounds an export's memory
# A block with fewer float cells than this is formatted one cell at a time:
# for a short table that costs a process less than the array path, whose
# first call also builds the digit table.
_FEW = 256


def _same(text, n):
    """A part with one text in each of n rows."""
    b = np.frombuffer(text.encode(), np.uint8)
    return np.broadcast_to(b, (n, b.size)), np.broadcast_to(True, (n, b.size))


def _joined(parts):
    """The kept bytes of the rows of (bytes, mask) parts laid side by side."""
    return np.concatenate([b for b, _ in parts], axis=1)[
        np.concatenate([k for _, k in parts], axis=1)]


def _table_blocks(keys, cols, codes, n):
    """The CSV and JSON bytes of the rows of a table, a block at a time."""
    floats = [np.asarray(col, dtype=float) for col, code in zip(cols, codes) if code == "%.15g"]
    texts = {}
    for j, (col, code) in enumerate(zip(cols, codes)):
        if code != "%.15g":
            csv = list(map(str, col)) if code == "%s" else ["%d" % v for v in col]
            texts[j] = (*_text_cells(csv), *_text_cells(
                map(json.dumps, col) if code == "%s" else _json_texts(csv)))
    for lo in range(0, n, _BLOCK):
        rows = np.arange(lo, min(n, lo + _BLOCK))
        size = rows.size
        if floats:
            x = np.concatenate([f[lo:lo + size] for f in floats])
            if x.size < _FEW:
                formatted = _one_by_one(x.tolist())
            else:
                from ._floattext import float_cells
                formatted = float_cells(x, _one_by_one)
            cells = zip(*(np.split(f, len(floats)) for f in formatted))
        # a comma before each record but the first
        csv_parts, json_parts = [], [(np.full((size, 1), 44, np.uint8), rows[:, None] > 0)]
        for j, key in enumerate(keys):
            csv_bytes, csv_keep, json_bytes, json_keep = (
                [a[lo:lo + size] for a in texts[j]] if j in texts else next(cells))
            csv_parts += [(csv_bytes, csv_keep), _same("\n" if j == len(keys) - 1 else ",", size)]
            json_parts += [_same(("\n    {" if j == 0 else ",") + "\n      " + key + ": ", size),
                           (json_bytes, json_keep)]
        json_parts.append(_same("\n    }", size))
        yield _joined(csv_parts), _joined(json_parts)


def _write_table(columns, cols, out_path, fmt):
    """Write a table, given column by column, as CSV or JSON; when out_path
    is given, write both mirrors.

    The CSV holds the text of ``_fmt`` and the JSON the float it parses
    to, in the layout of ``json.dumps({"columns": columns, "rows": [...]},
    indent=2)``; strings go to the CSV as they are.  Int and string cells
    are formatted one by one, float cells a block at a time, with no Python
    object per cell, by ``_floattext.float_cells``; the cells it cannot
    place exactly go to ``_fmt`` and ``_json_texts`` one at a time.  Rows
    are written in blocks of ``_BLOCK``, and a block of fewer than ``_FEW``
    float cells is formatted one cell at a time.
    """
    n = len(cols[0]) if cols else 0
    codes = [_column_code(col) for col in cols]
    keys = [json.dumps(k) for k in columns]
    blocks = _table_blocks(keys, cols, codes, n)
    csv_head = (",".join(columns) + "\n").encode()
    json_head = ('{\n  "columns": ' + _json_list(",\n".join("    " + k for k in keys))
                 + ',\n  "rows": ' + ("[" if n else "[]")).encode()
    json_tail = b"\n  ]\n}\n" if n else b"\n}\n"

    if out_path is None:
        if fmt == "csv":
            text = csv_head + b"".join(c for c, _ in blocks)
        else:
            text = json_head + b"".join(j for _, j in blocks) + json_tail
        sys.stdout.write(text.decode())
        return
    base, ext = os.path.splitext(out_path)
    csv_path = out_path if ext == ".csv" else base + ".csv"
    json_path = out_path if ext == ".json" else base + ".json"
    # both mirrors are opened once without emptying them, so that a path
    # that cannot be opened leaves no rows behind and the last export in place
    for path in (csv_path, json_path):
        _open_for_writing(path, "ab").close()
    with _open_for_writing(csv_path, "wb") as csv_fh, _open_for_writing(json_path, "wb") as json_fh:
        csv_fh.write(csv_head)
        json_fh.write(json_head)
        for csv_block, json_block in blocks:
            csv_fh.write(csv_block)
            json_fh.write(json_block)
        json_fh.write(json_tail)


def _open_for_writing(path, mode):
    try:
        return open(path, mode)
    except OSError as exc:
        raise OutputError("cannot write %s: %s" % (path, exc.strerror or exc))


def _check_against_oracle(constants, params, config, levels):
    """Check an analytic spectrum, empty or not, against the shooting oracle.

    Returns the oracle's energy of each level (NaN where it has none), the
    largest |dE| and the FAIL message, None on a pass.  The check fails
    when the two count different levels or when |dE| exceeds 1e-6 M.  The
    oracle is asked for one level more than the analytic count, so that a
    level the scan missed shows; at the max_levels cap the analytic list
    stops on purpose.  It is seeded at E_n +- 1e-6 M, the ends of each
    level's pass band: a level inside refines from that narrow cell, and
    the oracle still counts, labels and places every level on its own.
    """
    from .oracle import shoot_eigenvalues

    n_max = len(levels) + (len(levels) < config.max_levels)
    tol = 1e-6 * constants.m
    energies = np.array([lv.energy for lv in levels])
    oracle = shoot_eigenvalues(constants, params, n_max=n_max,
                               tol=config.tol_e * constants.m,
                               seeds=np.concatenate([energies - tol, energies + tol]))
    by_n = {lv.n_r: lv.energy for lv in oracle}
    e_oracle = [by_n.get(lv.n_r, float("nan")) for lv in levels]
    worst = 0.0
    for lv, e in zip(levels, e_oracle):
        worst = max(worst, abs(lv.energy - e))
    failure = None
    if len(oracle) != len(levels):
        more = " or more" if len(oracle) == n_max > len(levels) else ""
        failure = ("verify: FAIL (the oracle counts %d%s levels, the analytic spectrum %d)"
                   % (len(oracle), more, len(levels)))
    elif not (worst <= tol):
        failure = "verify: FAIL (max |dE| = %s exceeds %s)" % (_fmt(worst), _fmt(tol))
    return e_oracle, worst, failure


def _note_count(levels, config, failure):
    """Say on stderr when the spectrum is empty (and no check failed) or
    stops at the max_levels cap."""
    if not levels and not failure:
        print("note: no bound states for these parameters", file=sys.stderr)
    elif len(levels) == config.max_levels:
        print("note: the spectrum stops at max_levels = %d; levels past n_r = %d, "
              "if any, are not listed" % (config.max_levels, config.max_levels - 1),
              file=sys.stderr)


def cmd_spectrum(args):
    constants, params, config = load_config(args.config)
    levels = spectrum(constants, params, config)

    columns = ["n_r", "E", "E_tilde", "method"]
    rows = [[lv.n_r, lv.energy, lv.e_tilde, lv.method] for lv in levels]

    failure = None
    if args.verify:
        e_oracle, _, failure = _check_against_oracle(constants, params, config, levels)
        columns.append("residual_vs_oracle")
        for row, lv, e in zip(rows, levels, e_oracle):
            row.append(abs(lv.energy - e))

    if args.show_disputed and 0.0 < params.q < 1.0:
        for lv in closed_form_spectrum(constants, params, config):
            row = [lv.n_r, lv.energy, lv.e_tilde, lv.method]
            if args.verify:
                row.append(float("nan"))
            rows.append(row)

    _note_count(levels, config, failure)
    _write_table(columns, list(zip(*rows)), args.out, args.format)
    if failure:
        print(failure, file=sys.stderr)
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
    _write_table(columns, [wf.radii, wf.f_values, wf.g_values, pot], args.out, args.format)
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
    exact = spectrum(constants, morse, config)
    asym = closed_form_spectrum(constants, morse, config)[: len(exact)]
    sweeps = [spectrum(constants, PotentialParams(params.v1, params.v2, params.alpha, q),
                       config)
              for q in q_list]

    # |E - E_exact| of the same n_r (NaN where none), 0 for the exact levels
    exact_by_n = {lv.n_r: lv.energy for lv in exact}
    columns = ["q", "n_r", "E", "method", "deviation_from_morse"]
    rows = [[q, lv.n_r, lv.energy, lv.method, abs(lv.energy - exact_by_n.get(lv.n_r, math.nan))]
            for q, levels in zip(q_list + [0.0, 0.0], sweeps + [exact, asym]) for lv in levels]
    _write_table(columns, list(zip(*rows)), args.out, args.format)
    return EXIT_OK


def cmd_verify(args):
    """Solve the spectrum twice (analytic and shooting) and report agreement."""
    constants, params, config = load_config(args.config)
    levels = spectrum(constants, params, config)
    e_oracle, worst, failure = _check_against_oracle(constants, params, config, levels)
    _note_count(levels, config, failure)
    rows = [[lv.n_r, lv.energy, e, abs(lv.energy - e)] for lv, e in zip(levels, e_oracle)]
    _write_table(["n_r", "E_analytic", "E_oracle", "abs_diff"], list(zip(*rows)), args.out,
                 args.format)
    if failure:
        print(failure, file=sys.stderr)
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
    except OutputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except QdeformError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER


def run(argv=None):
    """Run main() as the whole of a CLI process and return its exit code.

    The objects alive so far (numpy and qdeform as imported) live until
    the process ends, so they are frozen out of the garbage collector
    first: no collection walks them again, at run time or at exit.
    """
    gc.freeze()
    gc.enable()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
