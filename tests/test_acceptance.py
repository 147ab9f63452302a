"""End-to-end acceptance gate.

Seven criteria, one test each, printed as a pass/fail line so the suite
output doubles as the acceptance report.  The analytic solvers are always
checked against the independent shooting integrator, never against
themselves.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from qdeform import (
    DiracConstants,
    PotentialParams,
    SolverConfig,
    abc_params,
    bound_window,
    closed_form_spectrum,
    effective_eigenvalue,
    gauss_2f1,
    jacobi_p,
    kummer_1f1,
    make_wavefunction,
    ode_residual,
    shape_params,
    shoot_eigenvalues,
    spectrum,
)

M = 1.0


def confluent_limit_residual(alpha, gamma, z, beta):
    """|2F1(alpha, beta, gamma; z/beta) - 1F1(alpha, gamma; z)|, which falls
    toward 0 as beta grows (the confluent limit)."""
    return abs(gauss_2f1(alpha, beta, gamma, z / beta) - kummer_1f1(alpha, gamma, z))


def draw_params(rng):
    """One random q >= 1 configuration with a repulsive inner wall.

    V2 sqrt(q) is kept below 0.8 V1 so the singularity repels; attractive
    walls (fall-to-center) are outside the solution class of the
    closed-form spectra and are rejected by the library itself.
    """
    while True:
        q = rng.uniform(1.0, 10.0)
        c_spin = rng.uniform(0.0, 0.5)
        alpha = rng.uniform(0.5, 2.0)
        v1 = rng.uniform(2.0, 30.0)
        v2 = rng.uniform(0.05, 1.0) * v1
        if v2 * math.sqrt(q) < 0.8 * v1:
            return DiracConstants(m=M, c_spin=c_spin), PotentialParams(
                v1, v2, alpha, q)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_1_regime_i_oracle_agreement(self):
        rng = np.random.default_rng(20260826)
        t0 = time.monotonic()
        worst = 0.0
        n_levels = 0
        for _ in range(20):
            dc, p = draw_params(rng)
            analytic = spectrum(dc, p)
            oracle = shoot_eigenvalues(dc, p)
            assert len(analytic) == len(oracle), (
                f"level count mismatch for {p}: "
                f"{len(analytic)} analytic vs {len(oracle)} oracle")
            for a, o in zip(analytic, oracle):
                assert a.n_r == o.n_r
                rel = abs(a.energy - o.energy) / abs(o.energy)
                worst = max(worst, rel)
            n_levels += len(analytic)
        elapsed = time.monotonic() - t0
        report("criterion 1 (q >= 1 vs oracle)",
               worst <= 1e-6 and elapsed < 60.0,
               f"{n_levels} levels over 20 sets, worst rel dev "
               f"{worst:.2e}, {elapsed:.1f}s")

    def test_2_regime_ii_oracle_agreement(self):
        t0 = time.monotonic()
        dc = DiracConstants(m=M, c_spin=0.0)
        q_values = [0.3] + list(np.linspace(0.06, 0.94, 10).round(3))
        worst = 0.0
        n_levels = 0
        for q in q_values:
            p = PotentialParams(25.0, 18.0, 0.5, float(q))
            analytic = spectrum(dc, p)
            oracle = shoot_eigenvalues(dc, p)
            assert len(analytic) == len(oracle), (
                f"count mismatch at q={q}: {len(analytic)} vs {len(oracle)}")
            for a, o in zip(analytic, oracle):
                worst = max(worst, abs(a.energy - o.energy) / abs(o.energy))
            n_levels += len(analytic)
        elapsed = time.monotonic() - t0
        report("criterion 2 (0 < q < 1 vs oracle)",
               worst <= 1e-6 and elapsed < 120.0,
               f"{n_levels} levels over {len(q_values)} q values, worst "
               f"rel dev {worst:.2e}, {elapsed:.1f}s")

    def test_3_continuity_at_q_equals_one(self):
        dc = DiracConstants(m=M, c_spin=0.0)
        below = spectrum(dc, PotentialParams(25.0, 18.0, 0.5, 1.0 - 1e-6))
        at = spectrum(dc, PotentialParams(25.0, 18.0, 0.5, 1.0))
        assert len(below) == len(at)
        gap = max(abs(a.energy - b.energy) for a, b in zip(below, at))
        report("criterion 3 (continuity at q = 1)", gap <= 1e-3 * M,
               f"{len(at)} levels, max gap {gap:.2e}")

    def test_4_morse_consistency_chain(self):
        dc = DiracConstants(m=M, c_spin=0.0)
        morse = PotentialParams(25.0, 18.0, 0.5, 0.0)
        exact = {lv.n_r: lv.energy for lv in spectrum(dc, morse)}
        prev = math.inf
        last = math.inf
        for q in (1e-1, 1e-2, 1e-3, 1e-4):
            p = PotentialParams(25.0, 18.0, 0.5, q)
            levels = spectrum(dc, p)
            dev = max(abs(lv.energy - exact[lv.n_r]) for lv in levels
                      if lv.n_r in exact)
            assert dev < prev, f"deviation not monotone at q={q}"
            prev = last = dev
        chain_ok = last <= 1e-3 * M

        # asymptotic levels approach the exact ones when the well deepens;
        # the weakly relativistic configuration keeps the effective
        # strengths nearly energy-independent so the deep-well limit bites
        dc2 = DiracConstants(m=M, c_spin=-100.0)
        gaps = []
        for scale in (1.0, 100.0):
            p = PotentialParams(0.25 * scale, 0.2 * scale, 1.0, 0.0)
            exact2 = {lv.n_r: lv.energy for lv in spectrum(dc2, p)}
            asym = {lv.n_r: lv.energy for lv in closed_form_spectrum(dc2, p)}
            gaps.append(max(abs(asym[n] - exact2[n]) for n in exact2))
        shrink_ok = gaps[1] <= gaps[0] / 10.0
        report("criterion 4 (Morse chain)", chain_ok and shrink_ok,
               f"chain deviation at q=1e-4: {last:.2e}; asymptotic gap "
               f"{gaps[0]:.2e} -> {gaps[1]:.2e} under x100 scaling")

    def test_5_wavefunction_certification(self):
        dc = DiracConstants(m=M, c_spin=0.0)
        cfg = SolverConfig(tol_e=1e-14)
        checked = 0
        worst_res = worst_norm = worst_edge = 0.0
        for q, v2 in ((2.0, 10.0), (1.0, 18.0), (0.3, 18.0), (0.0, 18.0)):
            p = PotentialParams(25.0, v2, 0.5, q)
            for lv in spectrum(dc, p, cfg):
                wf = make_wavefunction(dc, p, lv, n_points=200001)
                res = ode_residual(wf.radii, wf.f_values, lv.energy, dc, p)
                worst_res = max(worst_res, res)

                f = wf.f_values
                peak = float(np.max(np.abs(f)))
                worst_edge = max(worst_edge, abs(f[0]) / peak,
                                 abs(f[-1]) / peak)

                mask = np.abs(f) > 1e-7 * peak
                s = np.sign(f[mask])
                nodes = int(np.sum(s[:-1] * s[1:] < 0))
                assert nodes == lv.n_r, (
                    f"q={q} n_r={lv.n_r}: counted {nodes} nodes")

                norm = float(simpson(wf.f_values**2 + wf.g_values**2,
                                     x=wf.radii))
                worst_norm = max(worst_norm, abs(norm - 1.0))
                checked += 1
        ok = worst_res <= 1e-6 and worst_edge <= 1e-8 and worst_norm <= 1e-6
        report("criterion 5 (wavefunction certificate)", ok,
               f"{checked} eigenfunctions; residual {worst_res:.2e}, "
               f"boundary {worst_edge:.2e}, norm error {worst_norm:.2e}")

    def test_6_special_function_suite(self):
        import mpmath
        rng = np.random.default_rng(41)
        worst = 0.0
        # brute-force terminating sums at extended precision
        for _ in range(60):
            n = int(rng.integers(0, 21))
            b = rng.uniform(0.2, 6.0)
            c = rng.uniform(0.3, 6.0)
            z = rng.uniform(0.0, 1.0)
            with mpmath.workdps(60):
                ref = float(mpmath.hyp2f1(-n, b, c, z))
            got = gauss_2f1(-float(n), b, c, z)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
        poch_ok = worst <= 1e-12

        # Euler transformation on non-degenerate inputs
        euler_worst = 0.0
        for _ in range(200):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            c = rng.uniform(0.5, 5.0)
            z = rng.uniform(0.0, 0.45)
            lhs = gauss_2f1(a, b, c, z)
            rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
            euler_worst = max(euler_worst,
                              abs(lhs - rhs) / max(abs(lhs), 1e-9))
        euler_ok = euler_worst <= 1e-9

        # Jacobi symmetry
        jac_ok = all(
            abs(jacobi_p(n, al, be, -x)
                - (-1.0) ** n * jacobi_p(n, be, al, x)) <= 1e-10 * max(
                    1.0, abs(jacobi_p(n, al, be, -x)))
            for n in range(8)
            for al, be, x in [(0.7, 1.9, 0.33), (2.5, 0.1, -0.8)])

        r3 = confluent_limit_residual(1.0, 1.0, 1.0, 1e3)
        r6 = confluent_limit_residual(1.0, 1.0, 1.0, 1e6)
        confl_ok = r6 <= r3 / 1e2

        ok = poch_ok and euler_ok and jac_ok and confl_ok
        report("criterion 6 (special functions)", ok,
               f"brute-force {worst:.1e}, Euler {euler_worst:.1e}, "
               f"confluent {r3:.1e} -> {r6:.1e}")

    def test_7_effective_problem_algebra(self):
        rng = np.random.default_rng(43)
        worst_fact = worst_ab = worst_c = 0.0
        checked = 0
        while checked < 10_000:
            m = rng.uniform(0.2, 5.0)
            c_spin = rng.uniform(-3.0, 1.5 * m)
            dc = DiracConstants(m=m, c_spin=c_spin)
            lo, hi = bound_window(dc)
            e = rng.uniform(lo + 1e-4 * m, hi - 1e-4 * m)
            et = effective_eigenvalue(e, dc)
            fact = abs(et - (e - m) * (e + m - c_spin))
            worst_fact = max(worst_fact, fact / max(abs(et), 1e-12))

            q = rng.uniform(0.05, 8.0)
            v2 = rng.uniform(0.1, 10.0)
            v1 = v2 * max(math.sqrt(q), 1.0) * rng.uniform(1.05, 4.0) + 0.1
            p = PotentialParams(v1, v2, rng.uniform(0.2, 3.0), q)
            try:
                a, b, c = abc_params(e, dc, p)
                lam, eta = shape_params(e, dc, p)
            except Exception:
                continue
            worst_ab = max(worst_ab, abs(a + b - (2 * lam + 2 * eta + 0.5)))
            worst_c = max(worst_c, abs(c - (2 * eta + 1.0)))
            checked += 1
        ok = worst_fact <= 1e-12 and worst_ab <= 1e-11 and worst_c <= 1e-13
        report("criterion 7 (effective-problem algebra)", ok,
               f"10^4 draws; factorization {worst_fact:.1e}, a+b "
               f"{worst_ab:.1e}, c {worst_c:.1e}")
