"""Closed-form eigenfunctions: residuals, nodes, norms, dual routes."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from qdeform import (
    DiracConstants,
    DomainError,
    PotentialParams,
    SolverConfig,
    WavefunctionGrid,
    ZeroNormError,
    analytic_upper,
    cosh_q,
    gauss_2f1,
    lower_component,
    make_wavefunction,
    normalize,
    ode_residual,
    shape_params,
    singularity_radius,
    spectrum,
    tanh_q,
    upper_morse,
    upper_q_ge_1,
    upper_q_lt_1,
)
DC = DiracConstants(m=1.0, c_spin=0.0)
DEEP = PotentialParams(25.0, 18.0, 0.5, 1.0)
# eigenvalues resolved well past the scan tolerance keep the boundary zero
# of F at the 1e-8 peak level, which node counting relies on
TIGHT = SolverConfig(tol_e=1e-14)


def upper_q_ge_1_hypergeometric(r, n_r, e, dc, p):
    """Same F for q >= 1 as ``upper_q_ge_1``, via the terminating 2F1
    instead of the Jacobi form: the second route of the equivalence check.
    """
    lam, eta = shape_params(e, dc, p)
    r = np.asarray(r, dtype=float)
    r0 = singularity_radius(p)
    if np.any(r <= r0):
        raise DomainError(f"wavefunction domain is r > r0 = {r0}")
    sq = math.sqrt(p.q)
    x = 0.5 * p.alpha * r
    t = np.asarray(tanh_q(x, sq))
    z = t * t
    env = (p.q ** 0.25 / np.asarray(cosh_q(x, sq))) ** (2.0 * eta) * t ** (2.0 * lam)
    return env * gauss_2f1(
        -float(n_r), n_r + 2.0 * lam + 2.0 * eta + 0.5, 2.0 * lam + 0.5, z
    )


def well_for(q):
    # V2 sqrt(q) must stay below V1 (repulsive wall) for q > 1
    return PotentialParams(25.0, 10.0 if q > 1.0 else 18.0, 0.5, q)


def count_nodes(f):
    mask = np.abs(f) > 1e-7 * np.max(np.abs(f))
    s = np.sign(f[mask])
    return int(np.sum(s[:-1] * s[1:] < 0))


class TestClosedFormResiduals:
    @pytest.mark.parametrize("q", [2.0, 1.0, 0.3, 0.0])
    def test_satisfies_radial_equation(self, q):
        p = well_for(q)
        for lv in spectrum(DC, p, TIGHT):
            wf = make_wavefunction(DC, p, lv, n_points=200001)
            res = ode_residual(wf.radii, wf.f_values, lv.energy, DC, p)
            assert res < 1e-6, f"q={q}, n_r={lv.n_r}: residual {res}"

    @pytest.mark.parametrize("q", [2.0, 1.0, 0.3, 0.0])
    def test_node_counts_match_quantum_number(self, q):
        p = well_for(q)
        for lv in spectrum(DC, p, TIGHT):
            wf = make_wavefunction(DC, p, lv)
            assert count_nodes(wf.f_values) == lv.n_r


class TestNormalization:
    def test_unit_norm(self):
        for lv in spectrum(DC, DEEP)[:3]:
            wf = make_wavefunction(DC, DEEP, lv)
            total = simpson(wf.f_values**2 + wf.g_values**2, x=wf.radii)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_boundary_decay(self):
        lv = spectrum(DC, DEEP)[0]
        wf = make_wavefunction(DC, DEEP, lv)
        peak = np.max(np.abs(wf.f_values))
        assert abs(wf.f_values[0]) < 1e-6 * peak
        assert abs(wf.f_values[-1]) < 1e-8 * peak

    def test_zero_norm_rejected(self):
        r = np.linspace(1.0, 2.0, 100)
        wf = WavefunctionGrid(r, np.zeros_like(r), np.zeros_like(r))
        with pytest.raises(ZeroNormError):
            normalize(wf)

    @pytest.mark.parametrize("n", [3, 4, 101, 1000, 10001])
    def test_simpson_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        r = np.linspace(0.3, 7.0, n)
        f = np.sin(3.0 * r) * np.exp(-0.5 * r) + 0.1 * rng.standard_normal(n)
        g = 0.2 * np.cos(r) + 0.1 * rng.standard_normal(n)
        wf = normalize(WavefunctionGrid(r, f, g))
        total = simpson(f ** 2 + g ** 2, x=r)
        assert wf.norm_constant == pytest.approx(1.0 / math.sqrt(total), rel=1e-13)

    def test_normalize_needs_uniform_grid(self):
        r = np.array([1.0, 2.0, 4.0, 5.0, 6.0])
        with pytest.raises(DomainError):
            normalize(WavefunctionGrid(r, np.ones_like(r), np.ones_like(r)))

    def test_orthogonality(self):
        wfs = [make_wavefunction(DC, DEEP, lv) for lv in spectrum(DC, DEEP)[:3]]
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = wfs[i], wfs[j]
                fb = np.interp(a.radii, b.radii, b.f_values)
                gb = np.interp(a.radii, b.radii, b.g_values)
                ov = simpson(a.f_values * fb + a.g_values * gb, x=a.radii)
                assert abs(ov) < 1e-4


class TestDualRoutes:
    def test_jacobi_vs_hypergeometric(self):
        # two independent closed forms, equal up to one global constant;
        # V2 sqrt(q) = 24.04 < V1 keeps the wall repulsive (solution class)
        p = PotentialParams(25.0, 17.0, 0.5, 2.0)
        r = np.linspace(singularity_radius(p) + 0.05, 15.0, 500)
        levels = spectrum(DC, p)
        assert len(levels) >= 4
        for lv in levels[:4]:
            f1 = upper_q_ge_1(r, lv.n_r, lv.energy, DC, p)
            f2 = upper_q_ge_1_hypergeometric(r, lv.n_r, lv.energy, DC, p)
            i = int(np.argmax(np.abs(f1)))
            ratio = f1[i] / f2[i]
            assert np.allclose(f1, ratio * f2, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(f1)))


class TestDomainChecks:
    def test_q_ge_1_rejects_inside_wall(self):
        p = PotentialParams(25.0, 10.0, 1.0, 4.0)
        with pytest.raises(DomainError):
            upper_q_ge_1(np.array([0.1]), 0, 0.5, DC, p)

    def test_q_lt_1_rejects_negative_radius(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            upper_q_lt_1(np.array([-0.5]), 0.62, DC, p)

    def test_morse_rejects_unbound_energy(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            upper_morse(np.array([1.0]), 1.5, DC, p)

    def test_lower_component_needs_uniform_grid(self):
        r = np.array([1.0, 2.0, 4.0, 5.0, 6.0])
        with pytest.raises(DomainError):
            lower_component(r, np.ones_like(r), 0.5, DC)


class TestLowerComponent:
    def test_decays_at_both_ends(self):
        lv = spectrum(DC, DEEP)[0]
        wf = make_wavefunction(DC, DEEP, lv)
        peak = np.max(np.abs(wf.g_values))
        assert abs(wf.g_values[0]) < 1e-3 * peak
        assert abs(wf.g_values[-1]) < 1e-6 * peak

    def test_matches_derivative_definition(self):
        lv = spectrum(DC, DEEP)[0]
        wf = make_wavefunction(DC, DEEP, lv)
        r, f = wf.radii, wf.f_values
        h = r[1] - r[0]
        # the second-order reference stencil carries its own truncation
        # error near the wall, so the agreement bar is 1e-4 of peak there
        interior = slice(20, -20)
        fp = np.gradient(f, h, edge_order=2)
        g_ref = (fp - f / r) / (DC.m + lv.energy - DC.c_spin)
        assert np.allclose(wf.g_values[interior], g_ref[interior],
                           atol=1e-4 * np.max(np.abs(f)))
        assert np.allclose(wf.g_values[1000:-20], g_ref[1000:-20],
                           atol=1e-6 * np.max(np.abs(f)))
