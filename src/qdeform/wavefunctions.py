"""Analytic bound-state wavefunctions and their normalization.

One closed form F serves every regime; only the boundary that fixes the
level differs.  For q > 0, with x = alpha r / 2 and t = tanh_q(x, sqrt(q)),

    F(r) = (q^(1/4) / cosh_q(x, sqrt(q)))^(2 eta) t^(2 lambda) H(r),

where H is the Jacobi polynomial P_{n_r}^(2 lambda - 1/2, 2 eta)(1 - 2 t^2)
for q >= 1 (the wall at r0 terminates the series) and, for 0 < q < 1, the
hypergeometric factor 2F1(a, b; c; z) of the solver, z = sqrt(q)/cosh_q^2,
whose zero at r = 0 is the level.  The envelope is z^eta (1 - z)^lambda
written through t^2 = 1 - z: forming 1 - z subtracts two numbers near 1
when q -> 1- and r -> 0, while tanh_q keeps its digits there.  At q = 0
(Morse), F = e^(-kappa r) e^(-y/2) H with H = 1F1 at y = y0 e^(-alpha r).

The lower component follows from the first-order coupling,

    G(r) = (F'(r) - F(r)/r) / (M + E - C),

with F' by 5-point finite differences.  One common constant rescales both
components so that the radial integral of F^2 + G^2 is unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed import PotentialParams, cosh_q, singularity_radius, tanh_q
from .effective import DiracConstants, _bound_eigenvalue, shape_params
from .errors import DomainError, NonConvergenceError, ZeroNormError
from .solvers import (
    _SPECTRUM_METHOD,
    EnergyLevel,
    _chandrupatla,
    _hypergeometric_factor,
    _level,
    _morse_argument,
)
from .special import jacobi_p

__all__ = ["WavefunctionGrid", "analytic_upper", "make_wavefunction"]


@dataclass(frozen=True)
class WavefunctionGrid:
    """Sampled upper and lower components on a uniform radial grid."""

    radii: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray


def analytic_upper(r, level: EnergyLevel, dc: DiracConstants, p: PotentialParams):
    """Unnormalized F of one level of the well p at the radii r.

    Only the levels ``spectrum`` returns for this well have an F (below q = 1
    ``make_wavefunction`` polishes them first).  Raises DomainError for any
    other level, for Et >= 0 and for r <= r0 (q >= 1) or r < 0 (q < 1).
    """
    if level.method != _SPECTRUM_METHOD[p.regime]:
        raise DomainError(f"a {level.method!r} level is not a level of the "
                          f"{p.regime} well with q = {p.q}")
    r = np.asarray(r, dtype=float)
    r0 = singularity_radius(p)
    if r0 is not None and np.any(r <= r0):
        raise DomainError(f"wavefunction domain is r > r0 = {r0}")
    if np.any(r < 0.0):
        raise DomainError("radius must be non-negative")
    e = level.energy
    if p.q == 0.0:
        kappa = math.sqrt(-_bound_eigenvalue(e, dc))
        y = _morse_argument(e, dc, p) * np.exp(-p.alpha * r)
        env = np.exp(-kappa * r) * np.exp(-0.5 * y)
    else:
        lam, eta = shape_params(e, dc, p)
        sq = math.sqrt(p.q)
        x = 0.5 * p.alpha * r
        t = np.asarray(tanh_q(x, sq))
        with np.errstate(over="ignore"):  # far out, cosh_q = inf and the envelope 0
            env = (p.q ** 0.25 / np.asarray(cosh_q(x, sq))) ** (2.0 * eta) * t ** (2.0 * lam)
        if r0 is not None:
            return env * jacobi_p(level.n_r, 2.0 * lam - 0.5, 2.0 * eta, 1.0 - 2.0 * (t * t))
    return env * _hypergeometric_factor(e, dc, p, r)


def _derivative_5pt(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative, 5-point central interior, 4th-order one-sided edges."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * h)
    return d


def _simpson(y, h):
    """Composite Simpson's rule for samples y at step h.

    For an even number of samples the last interval is added by the
    three-point rule h (5 y[-1] + 8 y[-2] - y[-3]) / 12, as in scipy's
    ``integrate.simpson``.
    """
    n = len(y)
    odd = y[: n - 1 + n % 2]
    total = h / 3.0 * (odd[0] + odd[-1] + 4.0 * odd[1:-1:2].sum() + 2.0 * odd[2:-1:2].sum())
    if n % 2 == 0:
        total += h * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
    return float(total)


def _polished(level: EnergyLevel, dc: DiracConstants, p: PotentialParams) -> EnergyLevel:
    """The level moved to the kernel's own zero of H(E, 0) within 1e-9 M,
    or as given where H does not change sign there."""
    def h(e):
        return _hypergeometric_factor(e, dc, p, 0.0)
    lo, hi = level.energy - 1e-9 * dc.m, level.energy + 1e-9 * dc.m
    f_lo, f_hi = h(np.array([lo, hi])).tolist()
    if not f_lo * f_hi < 0.0:
        return level
    return _level(level.n_r, _chandrupatla(h, lo, hi, 0.0, fa=f_lo, fb=f_hi), dc, level.method)


def make_wavefunction(dc: DiracConstants, p: PotentialParams, level: EnergyLevel,
                      n_points: int = 10001) -> WavefunctionGrid:
    """Sample and normalize the analytic eigenfunction of one level.

    The uniform grid starts just outside the left boundary and extends
    until F has decayed below 1e-9 of its peak (the right edge is grown
    geometrically until that holds).  Raises NonConvergenceError when F at
    the left edge is not below 1e-6 of its peak: the closed form has lost
    the boundary condition there.  It accepts only the levels ``spectrum``
    returns for this well (DomainError otherwise, see ``analytic_upper``).
    Below q = 1 each such level is first polished to the kernel's own zero
    of H(E, 0), so that F is as near 0 at r = 0 as the kernel allows.
    """
    if p.q < 1.0 and level.method == _SPECTRUM_METHOD[p.regime]:
        level = _polished(level, dc, p)
    base = singularity_radius(p) or 0.0
    left = base + 1e-8 / p.alpha
    kappa = math.sqrt(max(-level.e_tilde, 1e-30))
    r_end = base + max(10.0 / p.alpha, 30.0 / kappa)
    for _ in range(6):
        r = np.linspace(left, r_end, n_points)
        f = np.asarray(analytic_upper(r, level, dc, p))
        peak = np.max(np.abs(f))
        if np.abs(f[-1]) <= 1e-9 * peak:
            break
        r_end *= 1.5
    if np.abs(f[0]) > 1e-6 * peak:
        raise NonConvergenceError(
            f"F at the left edge r = {r[0]} is {abs(f[0]) / peak:.3g} of its peak, "
            f"above 1e-6: the closed form of level n_r = {level.n_r} misses its boundary")
    denom = dc.m + level.energy - dc.c_spin
    if abs(denom) < 1e-12 * dc.m:
        raise DomainError(f"M + E - C = {denom} too close to zero")
    h = r[1] - r[0]
    g = (_derivative_5pt(f, h) - f / r) / denom
    total = _simpson(f ** 2 + g ** 2, h)
    if total <= 0.0:
        raise ZeroNormError("cannot normalize a zero wavefunction")
    s = 1.0 / math.sqrt(total)
    return WavefunctionGrid(radii=r, f_values=s * f, g_values=s * g)
