"""In-process timings of the calls where the special-function kernels work.

    python demos/bench_inprocess.py

A CLI invocation spends about 70 ms starting Python and numpy, so the
compute of most commands hides behind start-up.  This script times the
calls themselves, in one process: each entry's wall time is the best of 5
runs.  One more, untimed run counts what the 2F1/1F1 kernels did for the
entry: how often the solvers called them, at how many points (the
broadcast size of each call's arguments), and how many series terms they
summed; and how many sweeps the shooting oracle made.  It prints one JSON
object.

The entries are `spectrum` of the deep wells, of the z0 = 0.9997 well, of
the 91-level well (C = 0.1688, `max_levels` 200) and of a Morse well whose
1F1 runs at z up to y0 ~ 891 (C = 0.3, `max_levels` 200), the oracle's
`shoot_eigenvalues` of the deep wells (n_max one past their count, tol
1e-10 M), searched from the window ends and seeded as `verify` seeds it,
at E_n +- 1e-6 M of each analytic level, the wavefunction export of a
deep Morse level, the computations of the `morse-limit` invocation of
perfbench's `regular` workload: (25, 10, 1, 0), its closed-form levels,
and q = 0.1, 0.01, 0.001 and 0.0001, and the table writer
(`cli._write_table`, with its array path in `qdeform._floattext`) on two
10,001-row `wavefunction` exports, as CSV and JSON files in a temporary
directory; for these the count `fmt_cells` is the float cells formatted one
at a time by `cli._fmt`.  Wells are
(V1, V2, alpha, q) with M = 1 and C = 0 unless stated.
"""

import json
import os
import platform
import tempfile
import time

import numpy as np

from qdeform import (
    DiracConstants,
    PotentialParams,
    SolverConfig,
    closed_form_spectrum,
    make_wavefunction,
    oracle,
    potential_value,
    shoot_eigenvalues,
    solvers,
    spectrum,
    special,
)
from qdeform import cli

DC = DiracConstants(m=1.0, c_spin=0.0)
DEEP_MORSE = PotentialParams(400.0, 300.0, 0.3, 0.0)
DEEP = PotentialParams(400.0, 300.0, 0.3, 0.3)
Y0_891 = PotentialParams(1323.1798106080698, 522.5167541105709, 0.21289488550774355, 0.0)
REPEATS = 5


def _morse_limit_chain():
    morse = PotentialParams(25.0, 10.0, 1.0, 0.0)
    levels = [spectrum(DC, morse), closed_form_spectrum(DC, morse)]
    levels += [spectrum(DC, PotentialParams(25.0, 10.0, 1.0, q))
               for q in (0.1, 0.01, 0.001, 0.0001)]
    return levels


def _shoot(p, levels, seeded):
    e = np.array([lv.energy for lv in levels])
    seeds = np.concatenate([e - 1e-6 * DC.m, e + 1e-6 * DC.m]) if seeded else ()
    return lambda: shoot_eigenvalues(DC, p, n_max=len(levels) + 1, tol=1e-10 * DC.m,
                                     seeds=seeds)


def _write_export(p, n_r, workdir):
    wf = make_wavefunction(DC, p, spectrum(DC, p)[n_r])
    cols = [wf.radii, wf.f_values, wf.g_values, potential_value(wf.radii, p)]
    path = os.path.join(workdir, "wf.csv")
    return lambda: cli._write_table(["r", "F", "G", "potential_value"], cols, path, "csv")


def entries(workdir):
    """name -> the call to time; the writer entries write into workdir."""
    levels = {p: spectrum(DC, p) for p in (DEEP_MORSE, DEEP)}
    level = levels[DEEP_MORSE][3]
    return {
        "spectrum deep Morse (400, 300, 0.3, 0)": lambda: spectrum(DC, DEEP_MORSE),
        "spectrum deep (400, 300, 0.3, 0.3)": lambda: spectrum(DC, DEEP),
        "spectrum z0 = 0.9997 well": lambda: spectrum(DC, PotentialParams(
            519.3001686780265, 330.1893523433154, 0.2576858226816229, 0.933114315474702)),
        "spectrum 91-level well (741.397, 527.365, 0.1474, 0.3143), C = 0.1688":
            lambda: spectrum(DiracConstants(m=1.0, c_spin=0.1688),
                             PotentialParams(741.397, 527.365, 0.1474, 0.3143),
                             SolverConfig(max_levels=200)),
        "spectrum Morse y0 ~ 891 (1323.18, 522.517, 0.2129, 0), C = 0.3":
            lambda: spectrum(DiracConstants(m=1.0, c_spin=0.3), Y0_891,
                             SolverConfig(max_levels=200)),
        "shoot_eigenvalues deep Morse (400, 300, 0.3, 0)":
            _shoot(DEEP_MORSE, levels[DEEP_MORSE], seeded=False),
        "shoot_eigenvalues deep Morse (400, 300, 0.3, 0), seeded":
            _shoot(DEEP_MORSE, levels[DEEP_MORSE], seeded=True),
        "shoot_eigenvalues deep (400, 300, 0.3, 0.3)": _shoot(DEEP, levels[DEEP], seeded=False),
        "shoot_eigenvalues deep (400, 300, 0.3, 0.3), seeded":
            _shoot(DEEP, levels[DEEP], seeded=True),
        "make_wavefunction deep Morse n_r = 3": lambda: make_wavefunction(DC, DEEP_MORSE, level),
        "morse-limit (25, 10, 1, 0), q = 0.1 .. 0.0001": _morse_limit_chain,
        "_write_table wavefunction (25, 10, 1, 2) n_r = 0":
            _write_export(PotentialParams(25.0, 10.0, 1.0, 2.0), 0, workdir),
        "_write_table wavefunction (25, 18, 0.5, 1) n_r = 5":
            _write_export(PotentialParams(25.0, 18.0, 0.5, 1.0), 5, workdir),
    }


def series_terms(num, c, z):
    """How many terms the series of each element sums: the kernel's stop
    rule (3 consecutive terms below 1e-16 of the compensated sum), replayed
    one term at a time, with the kernel's exact 2**-600 scale of a sum past
    2**600 (here at every term) so that the sum stays finite."""
    terms = np.zeros(z.size, dtype=np.int64)
    term, s, comp = np.ones(z.size), np.ones(z.size), np.zeros(z.size)
    small, live, k = np.zeros(z.size, dtype=np.int64), np.ones(z.size, dtype=bool), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while live.any():
            ratio = num[0] + k
            for p in num[1:]:
                ratio = ratio * (p + k)
            term = term * (ratio / ((c + k) * (k + 1.0)) * z)
            y = term - comp
            t = s + y
            comp, s = (t - s) - y, t
            big = np.abs(s) > 2.0 ** 600
            term, s, comp = (np.where(big, x * 2.0 ** -600, x) for x in (term, s, comp))
            k += 1
            small = np.where(np.abs(term) <= 1e-16 * np.abs(s), small + 1, 0)
            stop = live & (small >= 3)
            terms[stop], live = k, live & ~stop
    return int(terms.sum())


class _Count:
    """Counts the kernel calls of the solvers, the series terms summed, the
    oracle's sweeps and the table cells formatted one at a time."""

    def __init__(self):
        self.calls = self.points = self.terms = self.sweeps = self.cells = 0

    def kernel(self, fn):
        def counted(*args):
            self.calls += 1
            self.points += int(np.broadcast(*args).size)
            return fn(*args)
        return counted

    def series(self, fn):
        def counted(num, c, z):
            self.terms += series_terms(num, c, z)
            return fn(num, c, z)
        return counted

    def sweep(self, fn):
        def counted(*args):
            self.sweeps += 1
            return fn(*args)
        return counted

    def cell(self, fn):
        def counted(x):
            self.cells += 1
            return fn(x)
        return counted


def counts(call):
    count = _Count()
    saved = (solvers.gauss_2f1, solvers.kummer_1f1, special._kahan_series,
             oracle.integrate_radial, cli._fmt)
    solvers.gauss_2f1, solvers.kummer_1f1 = map(count.kernel, saved[:2])
    special._kahan_series = count.series(saved[2])
    oracle.integrate_radial = count.sweep(saved[3])
    cli._fmt = count.cell(saved[4])
    try:
        call()
    finally:
        (solvers.gauss_2f1, solvers.kummer_1f1, special._kahan_series,
         oracle.integrate_radial, cli._fmt) = saved
    return {"kernel_calls": count.calls, "points": count.points,
            "series_terms": count.terms, "sweeps": count.sweeps, "fmt_cells": count.cells}


def main():
    report = {
        "machine": f"{platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "repeats": REPEATS,
        "entries": {},
    }
    with tempfile.TemporaryDirectory() as workdir:
        for name, call in entries(workdir).items():
            call()
            best = min(_seconds(call) for _ in range(REPEATS))
            report["entries"][name] = {"best_s": round(best, 6), **counts(call)}
    print(json.dumps(report, indent=2))


def _seconds(call):
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
