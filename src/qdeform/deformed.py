"""Deformed hyperbolic functions, the deformed well, and its singularity.

The deformed functions follow the Arai convention

    sinh_q(x) = (e^x - q e^-x) / 2,   cosh_q(x) = (e^x + q e^-x) / 2,

which reduces to the ordinary hyperbolic functions at q = 1 and gives the
radial Morse well in the q -> 0 limit.  For q >= 1 the well

    V_q(r) = (V1 - V2 cosh_q(alpha r)) / sinh_q(alpha r)^2

has an impenetrable singularity at r0 = ln(q) / (2 alpha); for 0 < q < 1 it
is regular on all of r > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PotentialParams",
    "sinh_q",
    "cosh_q",
    "tanh_q",
    "singularity_radius",
    "potential_value",
    "morse_value",
    "morse_from_physical",
]


@dataclass(frozen=True)
class PotentialParams:
    """Parameters (V1, V2, alpha, q) of the deformed well.

    Requires V1 > V2 > 0, alpha > 0 and q >= 0.  ``regime`` classifies the
    deformation: "morse" (q = 0), "regular" (0 < q < 1) or "singular"
    (q >= 1, hard wall at ``r0``).
    """

    v1: float
    v2: float
    alpha: float
    q: float

    def __post_init__(self):
        if not (self.v1 > self.v2 > 0.0):
            raise ParameterError(
                f"require v1 > v2 > 0, got v1={self.v1}, v2={self.v2}"
            )
        if self.alpha <= 0.0:
            raise ParameterError(f"require alpha > 0, got {self.alpha}")
        if self.q < 0.0:
            raise ParameterError(f"require q >= 0, got {self.q}")

    @property
    def regime(self) -> str:
        if self.q == 0.0:
            return "morse"
        if self.q < 1.0:
            return "regular"
        return "singular"

    @property
    def r0(self) -> float | None:
        """Singularity radius, or None when the well is regular."""
        return singularity_radius(self)


def sinh_q(x, q):
    """Deformed hyperbolic sine (e^x - q e^-x) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (np.exp(x) - q * np.exp(-x))
    return out if out.ndim else float(out)


def cosh_q(x, q):
    """Deformed hyperbolic cosine (e^x + q e^-x) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (np.exp(x) + q * np.exp(-x))
    return out if out.ndim else float(out)


def tanh_q(x, q):
    """Deformed hyperbolic tangent sinh_q / cosh_q.

    Evaluated in a form that never overflows: for x >= 0 the ratio is
    (1 - q e^-2x) / (1 + q e^-2x), for x < 0 it is (e^2x - q)/(e^2x + q).
    Raises DomainError at zeros of cosh_q (possible only for q < 0).
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-2.0 * np.abs(x))
    num = np.where(x >= 0, 1.0 - q * e, e - q)
    den = np.where(x >= 0, 1.0 + q * e, e + q)
    if np.any(den == 0.0):
        raise DomainError("tanh_q undefined where cosh_q vanishes")
    out = num / den
    return out if out.ndim else float(out)


def singularity_radius(p: PotentialParams) -> float | None:
    """r0 = ln(q)/(2 alpha) for q >= 1, else None (no singularity on r > 0)."""
    if p.q >= 1.0:
        return math.log(p.q) / (2.0 * p.alpha)
    return None


def morse_value(r, v1, v2, alpha):
    """Radial Morse well 4 V1 e^{-2 alpha r} - 2 V2 e^{-alpha r}."""
    r = np.asarray(r, dtype=float)
    e = np.exp(-alpha * r)
    out = 4.0 * v1 * e * e - 2.0 * v2 * e
    return out if out.ndim else float(out)


def morse_from_physical(de, re, alpha):
    """Map well depth D_e and equilibrium distance r_e to (V1, V2).

    V1 = (D_e/4) e^{2 alpha r_e}, V2 = D_e e^{alpha r_e}; with these the
    Morse well reaches -D_e at r = r_e.
    """
    if de <= 0.0:
        raise DomainError(f"well depth must be positive, got {de}")
    return 0.25 * de * math.exp(2.0 * alpha * re), de * math.exp(alpha * re)


def potential_value(r, p: PotentialParams):
    """Evaluate the deformed well at radius r (scalar or array).

    For q = 0 delegates to ``morse_value``.  Raises DomainError at or
    inside the singularity (r <= r0 for q >= 1, r <= 0 otherwise).
    """
    if p.q == 0.0:
        return morse_value(r, p.v1, p.v2, p.alpha)
    r_arr = np.asarray(r, dtype=float)
    left = p.r0 if p.q >= 1.0 else 0.0
    if np.any(r_arr <= left):
        raise DomainError(f"radius must exceed {left} for q={p.q}")
    # exact rewrite with e^-x factored out so large radii never overflow:
    # V = (4 V1 e^-2x - 2 V2 e^-x (1 + q e^-2x)) / (1 - q e^-2x)^2
    x = p.alpha * r_arr
    e = np.exp(-x)
    u = p.q * e * e
    out = (4.0 * p.v1 * e * e - 2.0 * p.v2 * e * (1.0 + u)) / (1.0 - u) ** 2
    return out if np.ndim(out) else float(out)
