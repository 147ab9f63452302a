"""Follow the spectrum into the q -> 0 Morse limit.

As q shrinks the transcendental levels slide onto the Morse-exact ones,
one decade of q buying roughly one decade of accuracy.  The deep-well
asymptotic formula then reproduces the Morse-exact levels once the well
is scaled up: at q = 0 the closed-form condition a(E) = -n_r is the
deep-well asymptotic one.
"""

from qdeform import DiracConstants, PotentialParams, SolverConfig, closed_form_spectrum, spectrum

DC = DiracConstants(m=1.0, c_spin=0.0)
V1, V2, ALPHA = 25.0, 18.0, 0.5


def main():
    morse = PotentialParams(V1, V2, ALPHA, 0.0)
    exact = {lv.n_r: lv.energy for lv in spectrum(DC, morse)}
    print(f"Morse-exact levels: "
          f"{', '.join(f'{e:.9f}' for e in exact.values())}\n")

    print(f"{'q':>8} {'max |E(q) - E_Morse|':>22}")
    for q in (1e-1, 1e-2, 1e-3, 1e-4):
        levels = spectrum(DC, PotentialParams(V1, V2, ALPHA, q))
        dev = max(abs(lv.energy - exact[lv.n_r]) for lv in levels
                  if lv.n_r in exact)
        print(f"{q:>8.0e} {dev:>22.3e}")

    print(f"\n{'scale':>6} {'max |E_asym - E_exact|':>24}")
    # a root tolerance far below the smallest gap, so that the gap is the
    # asymptotic error and not the refinement's
    dc, cfg = DiracConstants(m=1.0, c_spin=-100.0), SolverConfig(tol_e=1e-15)
    for scale in (1.0, 3.0, 10.0):
        p = PotentialParams(0.25 * scale, 0.2 * scale, 1.0, 0.0)
        ex = {lv.n_r: lv.energy for lv in spectrum(dc, p, cfg)}
        asym = {lv.n_r: lv.energy for lv in closed_form_spectrum(dc, p, cfg)}
        gap = max(abs(asym[n] - ex[n]) for n in ex)
        print(f"{scale:>6.0f} {gap:>24.3e}")


if __name__ == "__main__":
    main()
