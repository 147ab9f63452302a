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
    if p.q <= 0.0:
        raise DomainError("shape_params needs q > 0: lambda is infinite at q = 0")
    return _shape_and_strengths(e, dc, p)[:2]


def _eta_and_rhos(e, dc: DiracConstants, p: PotentialParams):
    """eta, rho_i = sqrt(Vt1 -+ Vt2 sqrt(q) + q alpha^2/4), Vt1 and Vt2 at an
    energy E where Et < 0, as a bound state needs (DomainError otherwise).

    The rho_i hold the exponents without 1/sqrt(q): 4 lambda = 1 + 2 rho1/
    (alpha sqrt(q)), and rho1 is real where lambda is; at q = 0 both are sqrt(Vt1).
    """
    et = effective_eigenvalue(e, dc)
    if np.any(et >= 0.0):
        raise DomainError(f"effective eigenvalue {np.max(et)} >= 0: not a bound state")
    v1t, v2t = effective_strengths(e, dc, p)
    sq, shift = math.sqrt(p.q), 0.25 * p.q * p.alpha * p.alpha
    with np.errstate(all="ignore"):
        return (np.sqrt(-et) / p.alpha, np.sqrt(v1t - v2t * sq + shift),
                np.sqrt(v1t + v2t * sq + shift), v1t, v2t)


def _shape_and_strengths(e, dc: DiracConstants, p: PotentialParams):
    """(lambda, eta) of shape_params at q > 0, and (Vt1, Vt2)."""
    eta, _, _, v1t, v2t = _eta_and_rhos(e, dc, p)
    with np.errstate(all="ignore"):
        disc = 1.0 + np.divide(4.0, p.alpha * p.alpha) * (v1t / p.q - v2t / math.sqrt(p.q))
    if np.any(disc < 0.0):
        raise DiscriminantError(
            f"negative discriminant {np.min(disc)}: exponent lambda would be complex"
        )
    _finite("the discriminant of lambda", disc, e)  # so eta = sqrt(-Et)/alpha is finite
    return 0.25 * (1.0 + np.sqrt(disc)), eta, v1t, v2t


def abc_params(e, dc: DiracConstants, p: PotentialParams):
    """Hypergeometric parameters (a, b, c) at trial energy E, at every q >= 0.

    a, b = eta + lambda + (1 -+ sqrt(1 + (4/(alpha^2 q))(Vt1 + Vt2 sqrt(q))))/4
    and c = 2 eta + 1; the q >= 1 condition is a(E) = -n_r.  Below q = 1/4,
    where lambda and the root grow as 1/sqrt(q) and cancel in a, both come
    from the rho_i of ``_eta_and_rhos``: a = eta + 1/2 - Vt2/(alpha (rho1 +
    rho2)), rationalized (Higham, sec. 1.7), and b = eta + 1/2 + (rho1 +
    rho2)/(2 alpha sqrt(q)).  At q = 0, a is the Kummer parameter eta + 1/2 -
    Vt2/(2 alpha sqrt(Vt1)) of the Morse 1F1, bit for bit, and b = inf.
    """
    if p.q < 0.25:
        eta, rho1, rho2, _, v2t = _eta_and_rhos(e, dc, p)
        with np.errstate(all="ignore"):  # at q = 0, b = inf
            a = eta + 0.5 - v2t / (p.alpha * (rho1 + rho2))
            b = eta + 0.5 + (rho1 + rho2) / (2.0 * p.alpha * math.sqrt(p.q))
        if p.q > 0.0:
            _finite("the parameter b", b, e)
        return _finite("the parameter a", a, e), b, 2.0 * eta + 1.0
    lam, eta, v1t, v2t = _shape_and_strengths(e, dc, p)
    with np.errstate(all="ignore"):  # disc >= 1 since Vt1, Vt2 > 0
        disc = 1.0 + np.divide(4.0, p.alpha * p.alpha * p.q) * (v1t + v2t * math.sqrt(p.q))
    root = np.sqrt(_finite("the discriminant of (a, b)", disc, e))
    return eta + lam + 0.25 * (1.0 - root), eta + lam + 0.25 * (1.0 + root), 2.0 * eta + 1.0


def bound_window(dc: DiracConstants):
    """The open interval (C - M, M) where Et < 0 and the well binds."""
    if dc.c_spin >= 2.0 * dc.m:
        raise EmptyWindowError(
            f"C = {dc.c_spin} >= 2M = {2 * dc.m}: no bound-state window"
        )
    return dc.c_spin - dc.m, dc.m
