"""Closed-form eigenfunctions: residuals, nodes, norms, dual routes."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

import qdeform.wavefunctions as wavefunctions
from qdeform import (
    METHOD_DISPUTED,
    METHOD_MORSE_ASYMPTOTIC,
    METHOD_MORSE_EXACT,
    METHOD_Q_GE_1,
    METHOD_Q_LT_1,
    DiracConstants,
    DomainError,
    EnergyLevel,
    NonConvergenceError,
    ParameterError,
    PotentialParams,
    SolverConfig,
    ZeroNormError,
    analytic_upper,
    closed_form_spectrum,
    cosh_q,
    effective_eigenvalue,
    gauss_2f1,
    make_wavefunction,
    ode_residual,
    shape_params,
    singularity_radius,
    spectrum,
    tanh_q,
)
from qdeform.wavefunctions import _simpson

DC = DiracConstants(m=1.0, c_spin=0.0)
DEEP = PotentialParams(25.0, 18.0, 0.5, 1.0)
# eigenvalues resolved well past the scan tolerance keep the boundary zero
# of F at the 1e-8 peak level, which node counting relies on
TIGHT = SolverConfig(tol_e=1e-14)


def upper_q_ge_1_hypergeometric(r, n_r, e, dc, p):
    """Same F for q >= 1 as ``analytic_upper``, via the terminating 2F1
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


def level_at(e, method, n_r=0):
    """A level built by hand at energy e, with M = 1 and C = 0."""
    return EnergyLevel(n_r=n_r, energy=e, e_tilde=effective_eigenvalue(e, DC), method=method)


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


class TestMorseLimit:
    # as q -> 0+ the export is the Morse export: the envelope forms neither
    # t = tanh_q, which rounds toward 1, nor its power 2 lambda ~ 1/sqrt(q),
    # which turned that rounding into ODE residuals of 0.01 (q = 1e-16) to
    # 4e4 (q = 1e-30); below q = 1e-306 spectrum raised.  The grid is
    # 20,001 points: at 10,001 the h^4 truncation of the n_r = 4 residual is
    # 3.2e-8, at q = 0 as well
    P0 = PotentialParams(25.0, 18.0, 0.5, 0.0)

    @pytest.mark.parametrize("q", [1e-16, 1e-20, 1e-24, 1e-30, 1e-100, 1e-310, 5e-324])
    def test_every_level_exports_the_morse_eigenfunction(self, q):
        p = PotentialParams(25.0, 18.0, 0.5, q)
        morse, levels = spectrum(DC, self.P0), spectrum(DC, p)
        assert len(levels) == len(morse) == 5
        for lv, lv0 in zip(levels, morse):
            wf0 = make_wavefunction(DC, self.P0, lv0, n_points=20001)
            wf = make_wavefunction(DC, p, lv, n_points=20001)
            np.testing.assert_allclose(wf.radii, wf0.radii, rtol=1e-12)
            peak = np.max(np.abs(wf0.f_values))
            assert np.max(np.abs(wf.f_values - wf0.f_values)) <= 1e-8 * peak, lv.n_r
            assert ode_residual(wf.radii, wf.f_values, lv.energy, DC, p) <= 1e-8, lv.n_r


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

    def test_zero_norm_rejected(self, monkeypatch):
        monkeypatch.setattr(wavefunctions, "analytic_upper",
                            lambda r, level, dc, p: np.zeros_like(r))
        with pytest.raises(ZeroNormError):
            make_wavefunction(DC, DEEP, spectrum(DC, DEEP)[0])

    @pytest.mark.parametrize("n", [3, 4, 101, 1000, 10001])
    def test_simpson_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        r = np.linspace(0.3, 7.0, n)
        f = np.sin(3.0 * r) * np.exp(-0.5 * r) + 0.1 * rng.standard_normal(n)
        g = 0.2 * np.cos(r) + 0.1 * rng.standard_normal(n)
        total = simpson(f ** 2 + g ** 2, x=r)
        assert _simpson(f ** 2 + g ** 2, r[1] - r[0]) == pytest.approx(total, rel=1e-13)

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
            f1 = analytic_upper(r, lv, DC, p)
            f2 = upper_q_ge_1_hypergeometric(r, lv.n_r, lv.energy, DC, p)
            i = int(np.argmax(np.abs(f1)))
            ratio = f1[i] / f2[i]
            assert np.allclose(f1, ratio * f2, rtol=1e-9,
                               atol=1e-9 * np.max(np.abs(f1)))


class TestDomainChecks:
    def test_q_ge_1_rejects_inside_wall(self):
        p = PotentialParams(25.0, 10.0, 1.0, 4.0)
        with pytest.raises(DomainError):
            analytic_upper(np.array([0.1]), level_at(0.5, METHOD_Q_GE_1), DC, p)

    @pytest.mark.parametrize("p", [PotentialParams(25.0, 10.0, 1.0, 2.0),
                                   PotentialParams(25.0, 10.0, 1.36, 2.85)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_q_ge_1_is_zero_at_the_first_radius_past_the_wall(self, p):
        # there sqrt(q) e^(-alpha r) rounds to 1 or to 1 + 2^-52 (second
        # well), which gave NaN and a RuntimeWarning
        r0 = singularity_radius(p)
        f = analytic_upper(np.array([np.nextafter(r0, np.inf), r0 + 0.5]), spectrum(DC, p)[0],
                           DC, p)
        assert f[0] == 0.0 and f[1] != 0.0

    def test_q_lt_1_rejects_negative_radius(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            analytic_upper(np.array([-0.5]), level_at(0.62, METHOD_Q_LT_1), DC, p)

    def test_morse_rejects_unbound_energy(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            analytic_upper(np.array([1.0]), level_at(1.5, METHOD_MORSE_EXACT), DC, p)

    @pytest.mark.parametrize("q,method", [(0.3, METHOD_MORSE_EXACT), (2.0, METHOD_MORSE_EXACT),
                                          (0.3, METHOD_Q_GE_1), (0.0, METHOD_Q_LT_1),
                                          (0.3, METHOD_DISPUTED), (0.0, METHOD_MORSE_ASYMPTOTIC)])
    def test_rejects_a_level_of_another_regime(self, q, method):
        p = PotentialParams(25.0, 10.0, 1.0, q)
        with pytest.raises(DomainError, match="not a level of"):
            analytic_upper(np.array([1.0]), level_at(0.62, method), DC, p)

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_exports_no_closed_form_level_below_q_1(self, q):
        # only spectrum's levels have an eigenfunction: the asymptotic Morse
        # and the disputed levels are refused before any sampling
        p = PotentialParams(25.0, 10.0, 1.0, q)
        with pytest.raises(DomainError, match="not a level of"):
            make_wavefunction(DC, p, closed_form_spectrum(DC, p)[0])

    @pytest.mark.parametrize("p,n_true,n_label", [(PotentialParams(25.0, 10.0, 1.0, 2.0), 0, 3),
                                                  (DEEP, 2, 4)],
                             ids=["q2-n0-as-3", "deep-q1-n2-as-4"])
    def test_rejects_a_q_ge_1_level_under_another_n_r(self, p, n_true, n_label):
        # the Jacobi degree is the label: under a wrong one F would be the
        # envelope times P_n_label, of the wrong degree, with an ODE residual
        # of 4 to 12 where the true label gives about 1e-9
        lv = spectrum(DC, p)[n_true]
        with pytest.raises(DomainError, match="not the level"):
            make_wavefunction(DC, p, EnergyLevel(n_label, lv.energy, lv.e_tilde, lv.method))

    @pytest.mark.parametrize("n_points", [4, 1, 0, -3, 2.5, 10001.0, True])
    def test_n_points_is_an_integer_of_at_least_5(self, n_points):
        # the 5-point stencil of G needs five samples
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        with pytest.raises(ParameterError, match="n_points must be an integer >= 5"):
            make_wavefunction(DC, p, spectrum(DC, p)[0], n_points=n_points)


class TestLeftEdge:
    # a level at the default tol_e whose sampled F is of the order of its
    # peak at the left edge instead of about 0
    @pytest.mark.parametrize("p,n_r", [(PotentialParams(400.0, 300.0, 0.3, 0.0), 10)],
                             ids=["deep-morse-n10"])
    def test_rejects_f_that_misses_the_boundary(self, p, n_r):
        with pytest.raises(NonConvergenceError, match="left edge"):
            make_wavefunction(DC, p, spectrum(DC, p)[n_r])

    def test_polished_level_meets_the_boundary(self):
        # z0 = 1 - 6.3e-8: sampled at the energy spectrum returns, |F| peaks
        # at the left edge; at the kernel's own zero of H(E, 0) it vanishes.
        # That zero is exact only by luck: the polished energy
        # 0.6105070012021182 is a float where a(E) rounds to 0.0, so
        # gauss_2f1 takes its exact-polynomial row and H = 1 at every r, while
        # 1.2e-12 M away, at the energy spectrum returns, H(E, 0) is about
        # -9e21.  The n_r = 0 level of 18 of 63 nearby wells (V1 = 24.0,
        # 24.1, .., 26.0 and q = 0.998, 0.999, 0.9995) is refused at the left
        # edge; with a(E) rationalized against its q -> 0+ cancellation, a is
        # -2.2e-16 at the polished energy, not 0.0, and 34 are refused
        p = PotentialParams(25.0, 10.0, 1.0, 0.999)
        lv = spectrum(DC, p)[0]
        wf = make_wavefunction(DC, p, lv)
        f = wf.f_values
        assert abs(f[0]) <= 1e-8 * np.max(np.abs(f))
        assert ode_residual(wf.radii, f, lv.energy, DC, p) <= 1e-6


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
