"""Mapping from the Dirac problem to the effective radial problem."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qdeform import (
    DiracConstants,
    DiscriminantError,
    DomainError,
    EmptyWindowError,
    NonBindingError,
    ParameterError,
    PotentialParams,
    abc_params,
    bound_window,
    effective_eigenvalue,
    effective_strengths,
    shape_params,
)

DC = DiracConstants(m=1.0, c_spin=0.3)
POT = PotentialParams(25.0, 10.0, 1.0, 2.0)


@dataclass(frozen=True)
class EffectiveParams:
    """Energy-dependent parameters of the effective problem at one trial E."""

    e_tilde: float
    v1_tilde: float
    v2_tilde: float
    lambda_: float
    eta: float
    a: float
    b: float
    c: float


def morse_limit_params(e, dc, p):
    """Small-q asymptotic forms (lambda_asymptotic, a_limit, b_growth).

    lambda ~ (1 - Vt2/(alpha sqrt(Vt1)) + 2 sqrt(Vt1)/(alpha sqrt(q)))/4,
    a ~ 1/2 + eta - Vt2/(2 alpha sqrt(Vt1)), b ~ sqrt(Vt1)/(alpha sqrt(q)).
    """
    if p.q <= 0.0:
        raise DomainError("morse_limit_params is a small positive q diagnostic")
    et = effective_eigenvalue(e, dc)
    if et >= 0.0:
        raise DomainError(f"effective eigenvalue {et} >= 0: not a bound state")
    v1t, v2t = effective_strengths(e, dc, p)
    eta = math.sqrt(-et) / p.alpha
    ratio = v2t / (p.alpha * math.sqrt(v1t))
    lam_asym = 0.25 * (1.0 - ratio + 2.0 * math.sqrt(v1t) / (p.alpha * math.sqrt(p.q)))
    a_limit = 0.5 + eta - 0.5 * ratio
    b_growth = math.sqrt(v1t) / (p.alpha * math.sqrt(p.q))
    return lam_asym, a_limit, b_growth


def effective_params(e, dc, p):
    """Bundle every derived quantity at one trial energy."""
    v1t, v2t = effective_strengths(e, dc, p)
    lam, eta = shape_params(e, dc, p)
    a, b, c = abc_params(e, dc, p)
    return EffectiveParams(
        e_tilde=effective_eigenvalue(e, dc),
        v1_tilde=v1t,
        v2_tilde=v2t,
        lambda_=lam,
        eta=eta,
        a=a,
        b=b,
        c=c,
    )


class TestEffectiveEigenvalue:
    def test_factorized_form(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = rng.uniform(0.1, 10.0)
            c = rng.uniform(-5.0, 2.0 * m - 1e-3)
            e = rng.uniform(c - m, m)
            dc = DiracConstants(m=m, c_spin=c)
            et = effective_eigenvalue(e, dc)
            assert et == pytest.approx((e - m) * (e + m - c), rel=1e-13,
                                       abs=1e-13)

    def test_vanishes_at_window_edges(self):
        lo, hi = bound_window(DC)
        assert effective_eigenvalue(lo, DC) == pytest.approx(0.0, abs=1e-14)
        assert effective_eigenvalue(hi, DC) == pytest.approx(0.0, abs=1e-14)

    def test_negative_inside_window(self):
        lo, hi = bound_window(DC)
        for e in np.linspace(lo + 1e-6, hi - 1e-6, 25):
            assert effective_eigenvalue(e, DC) < 0.0


class TestEffectiveStrengths:
    def test_common_prefactor(self):
        e = 0.5
        v1t, v2t = effective_strengths(e, DC, POT)
        pref = DC.m + e - DC.c_spin
        assert v1t == pytest.approx(pref * POT.v1, rel=1e-14)
        assert v2t == pytest.approx(pref * POT.v2, rel=1e-14)

    def test_rejects_repulsive_prefactor(self):
        dc = DiracConstants(m=1.0, c_spin=1.5)
        with pytest.raises(NonBindingError):
            effective_strengths(-1.0, dc, POT)


class TestShapeParams:
    def test_eta_matches_decay_rate(self):
        e = 0.4
        _, eta = shape_params(e, DC, POT)
        assert eta == pytest.approx(
            math.sqrt(-effective_eigenvalue(e, DC)) / POT.alpha, rel=1e-14)

    def test_lambda_from_its_quadratic(self):
        # lambda solves 4 lambda (lambda - 1/2) = (Vt1/q - Vt2/sqrt(q))/alpha^2...
        # equivalently (4 lambda - 1)^2 = 1 + (4/alpha^2)(Vt1/q - Vt2/sqrt(q))
        e = 0.4
        lam, _ = shape_params(e, DC, POT)
        v1t, v2t = effective_strengths(e, DC, POT)
        lhs = (4.0 * lam - 1.0) ** 2
        rhs = 1.0 + (4.0 / POT.alpha**2) * (v1t / POT.q
                                            - v2t / math.sqrt(POT.q))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lam > 0.5

    def test_fall_to_center_rejected(self):
        # attractive singularity: V1 < V2 sqrt(q) makes lambda complex
        p = PotentialParams(25.0, 18.0, 0.5, 2.0)
        assert p.v1 < p.v2 * math.sqrt(p.q)
        dc = DiracConstants(m=1.0, c_spin=0.0)
        with pytest.raises(DiscriminantError):
            shape_params(0.5, dc, p)

    def test_rejects_unbound_energy(self):
        with pytest.raises(DomainError):
            shape_params(DC.m + 0.5, DC, POT)

    def test_rejects_q_zero(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            shape_params(0.5, DC, p)


class TestAbcParams:
    def test_sum_and_c_identities(self):
        # a + b = 2(lambda + eta) + 1/2 and c = 2 eta + 1, at random E
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 10_000:
            m = rng.uniform(0.2, 5.0)
            c_spin = rng.uniform(-3.0, 1.5 * m)
            dc = DiracConstants(m=m, c_spin=c_spin)
            lo, hi = bound_window(dc)
            e = rng.uniform(lo + 1e-4 * m, hi - 1e-4 * m)
            v2 = rng.uniform(0.1, 10.0)
            q = rng.uniform(0.05, 8.0)
            v1 = v2 * max(math.sqrt(q), 1.0) * rng.uniform(1.05, 4.0) + 0.1
            p = PotentialParams(v1, v2, rng.uniform(0.2, 3.0), q)
            try:
                a, b, c = abc_params(e, dc, p)
                lam, eta = shape_params(e, dc, p)
            except (DiscriminantError, NonBindingError):
                continue
            assert a + b == pytest.approx(2.0 * lam + 2.0 * eta + 0.5,
                                          rel=1e-12, abs=1e-12)
            assert c == pytest.approx(2.0 * eta + 1.0, rel=1e-13)
            checked += 1

    def test_b_minus_a_from_joint_discriminant(self):
        e = 0.4
        a, b, _ = abc_params(e, DC, POT)
        v1t, v2t = effective_strengths(e, DC, POT)
        disc = 1.0 + (4.0 / (POT.alpha**2 * POT.q)) * (
            v1t + v2t * math.sqrt(POT.q))
        assert b - a == pytest.approx(0.5 * math.sqrt(disc), rel=1e-12)

    def test_bundle_consistency(self):
        e = 0.4
        ep = effective_params(e, DC, POT)
        assert ep.e_tilde == pytest.approx(effective_eigenvalue(e, DC))
        assert (ep.a, ep.b, ep.c) == pytest.approx(abc_params(e, DC, POT))
        assert (ep.lambda_, ep.eta) == pytest.approx(shape_params(e, DC, POT))


class TestBoundWindow:
    def test_window_edges(self):
        lo, hi = bound_window(DiracConstants(m=2.0, c_spin=0.5))
        assert (lo, hi) == (-1.5, 2.0)

    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            bound_window(DiracConstants(m=1.0, c_spin=2.0))

    def test_mass_must_be_positive(self):
        with pytest.raises(ParameterError):
            DiracConstants(m=0.0)


class TestMorseLimitParams:
    def test_approach_of_exact_params(self):
        # as q -> 0+, |lambda - lambda_asym| and |a - a_limit| shrink and
        # b grows like 1/sqrt(q)
        e = 0.5
        dc = DiracConstants(m=1.0, c_spin=0.0)
        prev_lam_gap = prev_a_gap = math.inf
        prev_b = 0.0
        for q in (1e-2, 1e-4, 1e-6):
            p = PotentialParams(25.0, 10.0, 1.0, q)
            lam, _ = shape_params(e, dc, p)
            a, b, _ = abc_params(e, dc, p)
            lam_asym, a_limit, b_growth = morse_limit_params(e, dc, p)
            lam_gap = abs(lam - lam_asym) / lam
            a_gap = abs(a - a_limit)
            assert lam_gap < prev_lam_gap
            assert a_gap < prev_a_gap
            assert b > prev_b
            assert b == pytest.approx(b_growth, rel=0.2)
            prev_lam_gap, prev_a_gap, prev_b = lam_gap, a_gap, b

        assert prev_a_gap < 1e-2

    def test_rejects_q_zero(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            morse_limit_params(0.5, DiracConstants(m=1.0), p)
