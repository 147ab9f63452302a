"""Map the Dirac problem (E, M, C, well) to the effective radial problem.

Under exact spin symmetry the upper component obeys a Schroedinger-like
equation with effective eigenvalue

    Et(E) = E^2 - M^2 + C (M - E) = (E - M)(E + M - C)

and effective strengths Vt_i = (M + E - C) V_i.  All derived parameters
(lambda, eta, a, b, c) are functions of the trial energy E and are
recomputed on demand, keeping root-finding stateless.  E may be a scalar or
an array; a function raises if any element lies outside its domain, or,
naming it, where a quantity leaves the float range (alpha = 1e-300).
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
    _require_finite,
)

__all__ = [
    "DiracConstants",
    "effective_eigenvalue",
    "effective_strengths",
    "shape_params",
    "abc_params",
    "bound_window",
]


@dataclass(frozen=True)
class DiracConstants:
    """Mass M and spin-symmetry constant C (Delta(r) = C), in energy units."""

    m: float
    c_spin: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.m <= 0.0:
            raise ParameterError(f"mass must be positive, got {self.m}")


def _finite(name, x, e):
    """x, made from E; DomainError names x and the first E where it is not finite."""
    bad = ~np.isfinite(x)
    if np.any(bad):
        raise DomainError(f"{name} is not finite at E = {np.broadcast_to(e, bad.shape)[bad][0]}"
                          ": the parameters leave the float range")
    return x


def effective_eigenvalue(e, dc: DiracConstants) -> float:
    """Et = E^2 - M^2 + C(M - E), equal to (E - M)(E + M - C)."""
    with np.errstate(all="ignore"):
        et = e * e - dc.m * dc.m + dc.c_spin * (dc.m - e)
    return _finite("the effective eigenvalue Et", et, e)


def _bound_eigenvalue(e, dc: DiracConstants):
    """Et of effective_eigenvalue, which a bound state needs negative."""
    et = effective_eigenvalue(e, dc)
    if np.any(et >= 0.0):
        raise DomainError(f"effective eigenvalue {np.max(et)} >= 0: not a bound state")
    return et


def effective_strengths(e, dc: DiracConstants, p: PotentialParams):
    """(Vt1, Vt2) = (M + E - C) (V1, V2); requires an attractive prefactor."""
    pref = dc.m + e - dc.c_spin
    if np.any(pref <= 0.0):
        raise NonBindingError(
            f"M + E - C = {np.min(pref)} <= 0: effective well is not attractive"
        )
    with np.errstate(over="ignore"):
        v1t = pref * p.v1
    return _finite("the effective strength Vt1", v1t, e), pref * p.v2  # Vt2 < Vt1


def shape_params(e, dc: DiracConstants, p: PotentialParams):
    """Exponents (lambda, eta) of the bound-state ansatz at trial energy E.

    lambda = (1 + sqrt(1 + (4/alpha^2)(Vt1/q - Vt2/sqrt(q)))) / 4 and
    eta = sqrt(-Et)/alpha; both must be positive.
    """
    return _shape_and_strengths(e, dc, p)[:2]


def _shape_and_strengths(e, dc: DiracConstants, p: PotentialParams):
    """(lambda, eta) of shape_params and the (Vt1, Vt2) they were made from."""
    if p.q <= 0.0:
        raise DomainError("shape_params needs q > 0; use the Morse forms at q = 0")
    et = _bound_eigenvalue(e, dc)
    v1t, v2t = effective_strengths(e, dc, p)
    sq = math.sqrt(p.q)
    with np.errstate(all="ignore"):
        disc = 1.0 + np.divide(4.0, p.alpha * p.alpha) * (v1t / p.q - v2t / sq)
    if np.any(disc < 0.0):
        raise DiscriminantError(
            f"negative discriminant {np.min(disc)}: exponent lambda would be complex"
        )
    _finite("the discriminant of lambda", disc, e)  # so eta = sqrt(-Et)/alpha is finite
    lam = 0.25 * (1.0 + np.sqrt(disc))
    eta = np.sqrt(-et) / p.alpha
    return lam, eta, v1t, v2t


def abc_params(e, dc: DiracConstants, p: PotentialParams):
    """Hypergeometric parameters (a, b, c) at trial energy E.

    a, b = eta + lambda + (1 -+ sqrt(1 + (4/(alpha^2 q))(Vt1 + Vt2 sqrt(q))))/4
    and c = 2 eta + 1.  The same expressions drive the q >= 1 quantization,
    where the condition is a(E) = -n_r.
    """
    lam, eta, v1t, v2t = _shape_and_strengths(e, dc, p)
    with np.errstate(all="ignore"):
        disc = 1.0 + np.divide(4.0, p.alpha * p.alpha * p.q) * (v1t + v2t * math.sqrt(p.q))
    _finite("the discriminant of (a, b)", disc, e)
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
