"""Deformed hyperbolic functions, the deformed well, and its singularity.

The deformed functions follow the Arai convention

    sinh_q(x) = (e^x - q e^-x) / 2,   cosh_q(x) = (e^x + q e^-x) / 2,

which reduces to the ordinary hyperbolic functions at q = 1.  The well

    V_q(r) = (V1 - V2 cosh_q(alpha r)) / sinh_q(alpha r)^2

has an impenetrable singularity at r0 = ln(q) / (2 alpha) for q >= 1, and
the domain r > 0 below.  One expression, with e = e^-alpha r and u = q e^2,
(4 V1 e^2 - 2 V2 e (1 + u)) / (1 - u)^2, serves every q >= 0: it never
overflows at large r, and at q = 0 it is the Morse well 4 V1 e^2 - 2 V2 e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, _require_finite

__all__ = [
    "PotentialParams",
    "cosh_q",
    "tanh_q",
    "singularity_radius",
    "potential_value",
]


@dataclass(frozen=True)
class PotentialParams:
    """Parameters (V1, V2, alpha, q) of the deformed well.

    Requires V1 > V2 > 0, alpha > 0 and q >= 0.  ``regime`` classifies the
    deformation: "morse" (q = 0), "regular" (0 < q < 1) or "singular"
    (q >= 1, hard wall at r0 = ln(q)/(2 alpha)).
    """

    v1: float
    v2: float
    alpha: float
    q: float

    def __post_init__(self):
        _require_finite(self)
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


def cosh_q(x, q):
    """Deformed hyperbolic cosine (e^x + q e^-x) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (np.exp(x) + q * np.exp(-x))
    return out if out.ndim else float(out)


def tanh_q(x, q):
    """Deformed hyperbolic tangent sinh_q / cosh_q.

    Evaluated in a form that never overflows: for x >= 0 the ratio is
    (1 - q e^-2x) / (1 + q e^-2x), for x < 0 it is (e^2x - q)/(e^2x + q).
    At q = 0 it is 1, also where e^2x underflows.  Raises DomainError at
    zeros of cosh_q (possible only for q < 0).
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-2.0 * np.abs(x))
    num = np.where(x >= 0, 1.0 - q * e, e - q)
    den = np.where(x >= 0, 1.0 + q * e, e + q)
    if np.any((den == 0.0) & (np.asarray(q) != 0.0)):
        raise DomainError("tanh_q undefined where cosh_q vanishes")
    # at q = 0 the x < 0 form is e^2x / e^2x, 0/0 where e^2x underflows
    out = np.divide(num, den, out=np.ones_like(den), where=den != 0.0)
    return out if out.ndim else float(out)


def singularity_radius(p: PotentialParams) -> float | None:
    """r0 = ln(q)/(2 alpha) for q >= 1, else None (no singularity on r > 0)."""
    if p.q >= 1.0:
        return math.log(p.q) / (2.0 * p.alpha)
    return None


def _well(r, v1, v2, alpha, q):
    """(4 V1 e^2 - 2 V2 e (1 + u)) / (1 - u)^2 with e = e^-alpha r and
    u = q e^2, unchecked: the deformed well at q >= 0 for V2 > 0, and with
    V2 -> -V2 the well with its attractive term flipped."""
    e = np.exp(-alpha * r)
    u = q * e * e
    return (4.0 * v1 * e * e - 2.0 * v2 * e * (1.0 + u)) / (1.0 - u) ** 2


def potential_value(r, p: PotentialParams):
    """Evaluate the deformed well at radius r (scalar or array).

    One expression serves every q >= 0 (see the module docstring); at q = 0
    it is the Morse well.  Raises DomainError at or inside the singularity:
    r <= r0 for q >= 1, r <= 0 below q = 1.
    """
    r_arr = np.asarray(r, dtype=float)
    left = singularity_radius(p) if p.q >= 1.0 else 0.0
    if np.any(r_arr <= left):
        raise DomainError(f"radius must exceed {left} for q={p.q}")
    out = _well(r_arr, p.v1, p.v2, p.alpha, p.q)
    return out if np.ndim(out) else float(out)
