"""Random-well agreement sweep: analytic spectra against the shooting oracle.

Draws wells in every regime (Morse q = 0, regular 0 < q < 1, singular
q >= 1 with a repulsive wall), with M in {1, 2.5} and C in [0, 1.6 M], and
solves each one twice.  Prints, by regime, the label mismatches (level
lists whose n_r differ), the worst |dE|/M over matched levels and the
largest oracle grid.  A well on which either side raises is counted and
listed, never dropped.

    python demos/oracle_sweep.py --wells 500 --seed 1
"""

import argparse
import math
import random

from qdeform import (
    DiracConstants,
    PotentialParams,
    QdeformError,
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wells", type=int, default=150)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    stats = sweep(args.wells, args.seed)
    print(f"\n{args.wells} wells, seed {args.seed}")
    print(f"{'regime':<9} {'wells':>5} {'levels':>6} {'mismatches':>10} "
          f"{'errors':>6} {'worst |dE|/M':>12} {'largest grid':>12}")
    for regime, st in stats.items():
        print(f"{regime:<9} {st['wells']:>5} {st['levels']:>6} {st['mismatches']:>10} "
              f"{st['errors']:>6} {st['worst']:>12.2e} {st['grid']:>12}")


if __name__ == "__main__":
    main()
