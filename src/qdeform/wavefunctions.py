"""Analytic bound-state wavefunctions and their normalization.

The upper component F is built in closed form for each regime; the lower
component follows from the first-order coupling,

    G(r) = (F'(r) - F(r)/r) / (M + E - C),

with F' by 5-point finite differences.  One common constant rescales both
components so that the radial integral of F^2 + G^2 is unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .deformed import PotentialParams, cosh_q, singularity_radius, tanh_q
from .effective import (
    DiracConstants,
    abc_params,
    effective_eigenvalue,
    effective_strengths,
    shape_params,
)
from .errors import DomainError, ZeroNormError
from .solvers import (
    METHOD_MORSE_ASYMPTOTIC,
    METHOD_MORSE_EXACT,
    METHOD_Q_GE_1,
    METHOD_Q_LT_1,
    EnergyLevel,
)
from .special import gauss_2f1, jacobi_p, kummer_1f1

__all__ = [
    "WavefunctionGrid",
    "upper_q_ge_1",
    "upper_q_lt_1",
    "upper_morse",
    "analytic_upper",
    "lower_component",
    "normalize",
    "make_wavefunction",
]


@dataclass(frozen=True)
class WavefunctionGrid:
    """Sampled upper/lower components with the applied scale constant."""

    radii: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray
    norm_constant: float = 1.0


def upper_q_ge_1(r, n_r, e, dc: DiracConstants, p: PotentialParams):
    """Unnormalized F for q >= 1: envelope times a Jacobi polynomial."""
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
    return env * jacobi_p(n_r, 2.0 * lam - 0.5, 2.0 * eta, 1.0 - 2.0 * z)


def upper_q_lt_1(r, e, dc: DiracConstants, p: PotentialParams):
    """Unnormalized F for 0 < q < 1: z^eta (1-z)^lambda 2F1(a, b, c; z)."""
    if not (0.0 < p.q < 1.0):
        raise DomainError(f"upper_q_lt_1 requires 0 < q < 1, got {p.q}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise DomainError("radius must be non-negative")
    lam, eta = shape_params(e, dc, p)
    a, b, c = abc_params(e, dc, p)
    sq = math.sqrt(p.q)
    ch = np.asarray(cosh_q(0.5 * p.alpha * r, sq))
    z = sq / (ch * ch)
    return z ** eta * (1.0 - z) ** lam * gauss_2f1(a, b, c, z)


def upper_morse(r, e, dc: DiracConstants, p: PotentialParams):
    """Unnormalized Morse F: exp(-kappa r) exp(-y/2) 1F1(a, c; y).

    y = (4 sqrt(Vt1)/alpha) e^{-alpha r}; this argument/envelope pairing is
    the one that actually satisfies the radial equation (certified by the
    ODE-residual check).
    """
    r = np.asarray(r, dtype=float)
    et = effective_eigenvalue(e, dc)
    if et >= 0.0:
        raise DomainError(f"effective eigenvalue {et} >= 0: not a bound state")
    v1t, v2t = effective_strengths(e, dc, p)
    kappa = math.sqrt(-et)
    eta = kappa / p.alpha
    a = 0.5 - v2t / (2.0 * p.alpha * math.sqrt(v1t)) + eta
    c = 2.0 * eta + 1.0
    y = (4.0 * math.sqrt(v1t) / p.alpha) * np.exp(-p.alpha * r)
    return np.exp(-kappa * r) * np.exp(-0.5 * y) * kummer_1f1(a, c, y)


def analytic_upper(r, level: EnergyLevel, dc: DiracConstants, p: PotentialParams):
    """Dispatch the closed-form F on the level's provenance."""
    if level.method == METHOD_Q_GE_1:
        return upper_q_ge_1(r, level.n_r, level.energy, dc, p)
    if level.method == METHOD_Q_LT_1:
        return upper_q_lt_1(r, level.energy, dc, p)
    if level.method in (METHOD_MORSE_EXACT, METHOD_MORSE_ASYMPTOTIC):
        return upper_morse(r, level.energy, dc, p)
    raise DomainError(f"no closed-form wavefunction for method {level.method!r}")


def _derivative_5pt(f: np.ndarray, h: float) -> np.ndarray:
    """First derivative, 5-point central interior, 4th-order one-sided edges."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / (12.0 * h)
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / (12.0 * h)
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / (12.0 * h)
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / (12.0 * h)
    return d


def _uniform_step(r, min_points, caller):
    """The step of the uniform grid r, which needs min_points samples."""
    if len(r) < min_points:
        raise DomainError(f"{caller} needs at least {min_points} samples")
    h = r[1] - r[0]
    if not np.allclose(np.diff(r), h, rtol=1e-8):
        raise DomainError(f"{caller} requires a uniform grid")
    return h


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


def lower_component(radii, f_values, e, dc: DiracConstants) -> np.ndarray:
    """G from the first-order coupling; needs a uniform grid with r > 0."""
    r = np.asarray(radii, dtype=float)
    f = np.asarray(f_values, dtype=float)
    h = _uniform_step(r, 5, "lower_component")
    denom = dc.m + e - dc.c_spin
    if abs(denom) < 1e-12 * dc.m:
        raise DomainError(f"M + E - C = {denom} too close to zero")
    return (_derivative_5pt(f, h) - f / r) / denom


def normalize(wf: WavefunctionGrid) -> WavefunctionGrid:
    """Rescale F and G by one constant so int (F^2 + G^2) dr = 1 (Simpson's
    rule; needs a uniform grid of at least 3 points)."""
    h = _uniform_step(np.asarray(wf.radii, dtype=float), 3, "normalize")
    total = _simpson(wf.f_values ** 2 + wf.g_values ** 2, h)
    if total <= 0.0:
        raise ZeroNormError("cannot normalize a zero wavefunction")
    s = 1.0 / math.sqrt(total)
    return WavefunctionGrid(
        radii=wf.radii,
        f_values=s * wf.f_values,
        g_values=s * wf.g_values,
        norm_constant=s * wf.norm_constant,
    )


def make_wavefunction(dc: DiracConstants, p: PotentialParams, level: EnergyLevel,
                      n_points: int = 10001) -> WavefunctionGrid:
    """Sample and normalize the analytic eigenfunction of one level.

    The grid starts just outside the left boundary and extends until both
    components have decayed below 1e-9 of their peak (the right edge is
    grown geometrically until that holds).
    """
    r0 = singularity_radius(p)
    left = (r0 + 1e-8 / p.alpha) if r0 is not None else 1e-8 / p.alpha
    et = level.e_tilde
    kappa = math.sqrt(max(-et, 1e-30))
    base = r0 if r0 is not None else 0.0
    r_end = base + max(10.0 / p.alpha, 30.0 / kappa)
    for _ in range(6):
        r = np.linspace(left, r_end, n_points)
        f = np.asarray(analytic_upper(r, level, dc, p))
        peak = np.max(np.abs(f))
        if np.abs(f[-1]) <= 1e-9 * peak:
            break
        r_end *= 1.5
    g = lower_component(r, f, level.energy, dc)
    return normalize(WavefunctionGrid(radii=r, f_values=f, g_values=g))
