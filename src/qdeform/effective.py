"""Map the Dirac problem (E, M, C, well) to the effective radial problem.

Under exact spin symmetry the upper component obeys a Schroedinger-like
equation with effective eigenvalue

    Et(E) = E^2 - M^2 + C (M - E) = (E - M)(E + M - C)

and effective strengths Vt_i = (M + E - C) V_i.  All derived parameters
(lambda, eta, a, b, c) are functions of the trial energy E and are
recomputed on demand, keeping root-finding stateless.  E may be a scalar or
an array; a function raises if any element lies outside its domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed import PotentialParams
from .errors import (
    DiscriminantError,
    DomainError,
    EmptyWindowError,
    NonBindingError,
    ParameterError,
)

__all__ = [
    "DiracConstants",
    "effective_eigenvalue",
    "effective_strengths",
    "shape_params",
    "abc_params",
    "bound_window",
    "morse_limit_params",
]


@dataclass(frozen=True)
class DiracConstants:
    """Mass M and spin-symmetry constant C (Delta(r) = C), in energy units."""

    m: float
    c_spin: float = 0.0

    def __post_init__(self):
        if self.m <= 0.0:
            raise ParameterError(f"mass must be positive, got {self.m}")


def effective_eigenvalue(e, dc: DiracConstants) -> float:
    """Et = E^2 - M^2 + C(M - E), equal to (E - M)(E + M - C)."""
    return e * e - dc.m * dc.m + dc.c_spin * (dc.m - e)


def effective_strengths(e, dc: DiracConstants, p: PotentialParams):
    """(Vt1, Vt2) = (M + E - C) (V1, V2); requires an attractive prefactor."""
    pref = dc.m + e - dc.c_spin
    if np.any(pref <= 0.0):
        raise NonBindingError(
            f"M + E - C = {np.min(pref)} <= 0: effective well is not attractive"
        )
    return pref * p.v1, pref * p.v2


def shape_params(e, dc: DiracConstants, p: PotentialParams):
    """Exponents (lambda, eta) of the bound-state ansatz at trial energy E.

    lambda = (1 + sqrt(1 + (4/alpha^2)(Vt1/q - Vt2/sqrt(q)))) / 4 and
    eta = sqrt(-Et)/alpha; both must be positive.
    """
    if p.q <= 0.0:
        raise DomainError("shape_params needs q > 0; use the Morse forms at q = 0")
    et = effective_eigenvalue(e, dc)
    if np.any(et >= 0.0):
        raise DomainError(f"effective eigenvalue {np.max(et)} >= 0: not a bound state")
    v1t, v2t = effective_strengths(e, dc, p)
    sq = math.sqrt(p.q)
    disc = 1.0 + (4.0 / (p.alpha * p.alpha)) * (v1t / p.q - v2t / sq)
    if np.any(disc < 0.0):
        raise DiscriminantError(
            f"negative discriminant {np.min(disc)}: exponent lambda would be complex"
        )
    lam = 0.25 * (1.0 + np.sqrt(disc))
    eta = np.sqrt(-et) / p.alpha
    return lam, eta


def abc_params(e, dc: DiracConstants, p: PotentialParams):
    """Hypergeometric parameters (a, b, c) at trial energy E.

    a, b = eta + lambda + (1 -+ sqrt(1 + (4/(alpha^2 q))(Vt1 + Vt2 sqrt(q))))/4
    and c = 2 eta + 1.  The same expressions drive the q >= 1 quantization,
    where the condition is a(E) = -n_r.
    """
    lam, eta = shape_params(e, dc, p)
    return _abc(lam, eta, *effective_strengths(e, dc, p), p)


def _abc(lam, eta, v1t, v2t, p: PotentialParams):
    sq = math.sqrt(p.q)
    disc = 1.0 + (4.0 / (p.alpha * p.alpha * p.q)) * (v1t + v2t * sq)
    if np.any(disc < 0.0):
        raise DiscriminantError(f"negative discriminant {np.min(disc)} in (a, b)")
    root = np.sqrt(disc)
    a = eta + lam + 0.25 * (1.0 - root)
    b = eta + lam + 0.25 * (1.0 + root)
    c = 2.0 * eta + 1.0
    return a, b, c


def bound_window(dc: DiracConstants):
    """The open interval (C - M, M) where Et < 0 and the well binds."""
    if dc.c_spin >= 2.0 * dc.m:
        raise EmptyWindowError(
            f"C = {dc.c_spin} >= 2M = {2 * dc.m}: no bound-state window"
        )
    return dc.c_spin - dc.m, dc.m


def morse_limit_params(e, dc: DiracConstants, p: PotentialParams):
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
