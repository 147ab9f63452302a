"""Random-well agreement sweep: analytic spectra against the shooting oracle.

Draws wells in every regime (Morse q = 0, regular 0 < q < 1, singular
q >= 1 with a repulsive wall), with M in {1, 2.5} and C in [0, 1.6 M], and
solves each one twice.  Prints, by regime, the label mismatches (level
lists whose n_r differ), the worst |dE|/M over matched levels and the
largest oracle grid.  A well on which either side raises is counted and
listed, never dropped.

    python demos/oracle_sweep.py --wells 500 --seed 1

``--stress`` draws harder wells instead, in five q bands taken in turn
(q = 0, q -> 0+, q -> 1-, 0.1 < q < 1 and q > 1; see ``STRESS_BANDS``),
with V1 up to 10^3.2, alpha from 10^-1.2 and C up to 1.9 M.  Each well's
``spectrum`` (``max_levels`` 200) is checked as ``qdeform verify`` checks
it: the oracle at tol 1e-10 M, asked for one level more.  The ledger
prints, by band, the wells that are right, loud (an error, by where it
was raised, its class and the first word of its message), near-miss
(1e-8 < max |dE|/M <= 1e-6) and silently wrong (another count or label,
or |dE|/M > 1e-6), and the script exits 1 if any well is silently wrong.
The rule it keeps: a change may turn a loud well right, never a right or
loud well silently wrong.

    python demos/oracle_sweep.py --stress --wells 500 --seed 7
"""

import argparse
import math
import random
import sys
from collections import Counter

import numpy as np

from qdeform import (
    DiracConstants,
    PotentialParams,
    QdeformError,
    SolverConfig,
    build_grid,
    shoot_eigenvalues,
    spectrum,
)

REGIMES = ("morse", "regular", "singular")


def draw_well(rng, regime):
    """(DiracConstants, PotentialParams) of one random well in ``regime``."""
    m = rng.choice((1.0, 2.5))
    dc = DiracConstants(m=m, c_spin=rng.uniform(0.0, 1.6 * m))
    v1 = rng.uniform(2.0, 60.0)
    alpha = rng.uniform(0.3, 2.0)
    if regime == "morse":
        q = 0.0
    elif regime == "regular":
        # log-uniform from q -> 0+ up to q -> 1-
        q = min(10.0 ** rng.uniform(-4.0, 0.0), 0.9999)
    else:
        q = rng.uniform(1.0, 10.0)
    # V2 sqrt(q) < V1 keeps a q >= 1 wall repulsive
    v2 = rng.uniform(0.05, 0.98) * v1 / max(1.0, math.sqrt(q))
    return dc, PotentialParams(v1, v2, alpha, q)


def sweep(n_wells, seed):
    rng = random.Random(seed)
    stats = {r: {"wells": 0, "levels": 0, "mismatches": 0, "errors": 0,
                 "worst": 0.0, "grid": 0} for r in REGIMES}
    for i in range(n_wells):
        regime = REGIMES[i % len(REGIMES)]
        dc, p = draw_well(rng, regime)
        st = stats[regime]
        st["wells"] += 1
        try:
            analytic = spectrum(dc, p)
            oracle = shoot_eigenvalues(dc, p, tol=1e-10 * dc.m)
            st["grid"] = max(st["grid"], build_grid(dc, p).n_points)
        except QdeformError as exc:
            st["errors"] += 1
            print(f"  error  {regime}: M={dc.m} C={dc.c_spin!r} {p}: "
                  f"{type(exc).__name__}: {exc}")
            continue
        st["levels"] += len(analytic)
        if [lv.n_r for lv in analytic] != [lv.n_r for lv in oracle]:
            st["mismatches"] += 1
            print(f"  labels {regime}: M={dc.m} C={dc.c_spin!r} {p}: "
                  f"{len(analytic)} analytic vs {len(oracle)} oracle levels")
            continue
        for a, o in zip(analytic, oracle):
            st["worst"] = max(st["worst"], abs(a.energy - o.energy) / dc.m)
    return stats


STRESS_BANDS = {
    "q = 0": lambda rng: 0.0,
    "q -> 0+": lambda rng: 10.0 ** rng.uniform(-16.0, -1.0),
    "q -> 1-": lambda rng: 1.0 - 10.0 ** rng.uniform(-7.0, -1.0),
    "0.1 < q < 1": lambda rng: 10.0 ** rng.uniform(-1.0, 0.0),
    "q > 1": lambda rng: 1.0 + 10.0 ** rng.uniform(-6.0, 1.0),
}
STRESS_CONFIG = SolverConfig(max_levels=200)
OUTCOMES = ("right", "loud", "near-miss", "silently wrong")


def draw_stress_well(rng, band):
    """(DiracConstants, PotentialParams) of one stress well in ``band``."""
    m = rng.choice((1.0, 2.5))
    dc = DiracConstants(m=m, c_spin=rng.uniform(0.0, 1.9 * m))
    v1 = 10.0 ** rng.uniform(0.5, 3.2)
    alpha = 10.0 ** rng.uniform(-1.2, 0.4)
    q = STRESS_BANDS[band](rng)
    v2 = rng.uniform(0.05, 0.98) * v1 / max(1.0, math.sqrt(q))
    return dc, PotentialParams(v1, v2, alpha, q)


def judge(dc, p):
    """(outcome, detail) of ``spectrum`` on one well against the oracle."""
    cfg = STRESS_CONFIG
    try:
        levels = spectrum(dc, p, cfg)
    except QdeformError as exc:
        return "loud", f"spectrum {type(exc).__name__} '{str(exc).split()[0]}'"
    n_max = len(levels) + (len(levels) < cfg.max_levels)
    energies = np.array([lv.energy for lv in levels])
    seeds = np.concatenate([energies - 1e-6 * dc.m, energies + 1e-6 * dc.m])
    try:
        oracle = shoot_eigenvalues(dc, p, n_max=n_max, tol=cfg.tol_e * dc.m, seeds=seeds)
    except QdeformError as exc:
        return "loud", f"oracle {type(exc).__name__} '{str(exc).split()[0]}'"
    if [lv.n_r for lv in levels] != [lv.n_r for lv in oracle]:
        return "silently wrong", f"{len(levels)} levels, the oracle {len(oracle)}"
    worst = max((abs(a.energy - o.energy) / dc.m for a, o in zip(levels, oracle)),
                default=0.0)
    if worst > 1e-6:
        return "silently wrong", f"max |dE|/M = {worst:.2e}"
    if worst > 1e-8:
        return "near-miss", f"max |dE|/M = {worst:.2e}"
    return "right", ""


def stress(n_wells, seed):
    """The ledger of ``n_wells`` stress wells, the bands taken in turn:
    {band: Counter of outcomes and loud details}.  Prints every well that
    is not right."""
    rng = random.Random(seed)
    bands = list(STRESS_BANDS)
    ledger = {band: Counter() for band in bands}
    for i in range(n_wells):
        band = bands[i % len(bands)]
        dc, p = draw_stress_well(rng, band)
        outcome, detail = judge(dc, p)
        ledger[band][outcome] += 1
        if outcome == "loud":
            ledger[band][detail] += 1
        if outcome != "right":
            print(f"  {outcome:<14} {band}: M={dc.m} C={dc.c_spin!r} {p}: {detail}")
    return ledger


def print_ledger(ledger, n_wells, seed):
    print(f"\nstress ledger, {n_wells} wells, seed {seed}")
    print(f"{'band':<12} " + " ".join(f"{o:>14}" for o in OUTCOMES))
    for band, counts in ledger.items():
        print(f"{band:<12} " + " ".join(f"{counts[o]:>14}" for o in OUTCOMES))
        for detail, k in sorted((d, k) for d, k in counts.items() if d not in OUTCOMES):
            print(f"{'':<12}   loud: {k} x {detail}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wells", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--stress", action="store_true",
                    help="the stress ledger; exits 1 if a well is silently wrong")
    args = ap.parse_args()
    if args.stress:
        ledger = stress(args.wells, args.seed)
        print_ledger(ledger, args.wells, args.seed)
        return int(any(c["silently wrong"] for c in ledger.values()))
    stats = sweep(args.wells, args.seed)
    print(f"\n{args.wells} wells, seed {args.seed}")
    print(f"{'regime':<9} {'wells':>5} {'levels':>6} {'mismatches':>10} "
          f"{'errors':>6} {'worst |dE|/M':>12} {'largest grid':>12}")
    for regime, st in stats.items():
        print(f"{regime:<9} {st['wells']:>5} {st['levels']:>6} {st['mismatches']:>10} "
              f"{st['errors']:>6} {st['worst']:>12.2e} {st['grid']:>12}")


if __name__ == "__main__":
    sys.exit(main())
