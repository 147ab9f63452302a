"""Independent eigenvalue oracle: Numerov shooting on the effective equation.

Integrates u'' = [(M + E - C) Sigma(r) - Et(E)] u outward from the left
boundary and bisects the energy until the terminal log-derivative matches
the analytic decay rate -sqrt(-Et).  Node counting labels the levels.  This
module is pure numerics with no knowledge of the closed-form spectra, so it
serves as the ground truth the analytic solvers are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformed import PotentialParams, potential_value, singularity_radius
from .effective import DiracConstants, bound_window, effective_eigenvalue
from .errors import GridError
from .solvers import METHOD_ORACLE, EnergyLevel

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a hard dependency in practice
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

__all__ = [
    "RadialGrid",
    "build_grid",
    "integrate_radial",
    "shoot_eigenvalues",
    "ode_residual",
]

_RENORM = 1e150
_MAX_POINTS = 3_000_000


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid for the shooting integration."""

    r_start: float
    r_end: float
    n_points: int

    def __post_init__(self):
        if self.r_start >= self.r_end:
            raise GridError(f"need r_start < r_end, got {self.r_start}, {self.r_end}")
        if self.n_points < 1000:
            raise GridError(f"need at least 1000 points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_end - self.r_start) / (self.n_points - 1)

    @property
    def radii(self) -> np.ndarray:
        return np.linspace(self.r_start, self.r_end, self.n_points)


def build_grid(dc: DiracConstants, p: PotentialParams,
               r_end: float | None = None, points_per_wavelength: float = 40.0,
               delta_scale: float = 1.0) -> RadialGrid:
    """Choose a grid adapted to the well depth and decay lengths.

    The right cutoff is placed where the potential term has fallen below
    1e-10 of the deepest effective eigenvalue, plus a generous tail for
    weakly bound states.  The step resolves the shortest local de Broglie
    wavelength with ``points_per_wavelength`` points.  ``delta_scale``
    rescales the left offset (used by the boundary-sensitivity self-test).
    """
    r0 = singularity_radius(p)
    if r0 is not None:
        r_left = r0 + delta_scale * 1e-6 / p.alpha
    else:
        r_left = delta_scale * 1e-8 / p.alpha

    m, c = dc.m, dc.c_spin
    et_min = effective_eigenvalue(0.5 * c, dc)  # most negative over the window
    pref_max = 2.0 * m - c

    if r_end is None:
        base = r0 if r0 is not None else 0.0
        probe = base + np.geomspace(0.1 / p.alpha, 2000.0 / p.alpha, 400)
        tail = pref_max * np.abs(potential_value(probe, p))
        ok = np.nonzero(tail < 1e-10 * abs(et_min))[0]
        if len(ok) == 0:
            raise GridError("could not place the right cutoff: potential decays too slowly")
        r_end = probe[ok[0]] + 60.0 / p.alpha

    # probe |W| away from the (integrable) singular point to set the step
    excl = 0.01 / p.alpha if r0 is not None else 0.0
    probe = np.geomspace(max(r_left, (r0 or 0.0) + excl) - (r0 or 0.0) + 1e-300,
                         r_end - (r0 or 0.0), 600) + (r0 or 0.0)
    probe = probe[probe > r_left]
    w_probe = pref_max * np.abs(potential_value(probe, p)) + abs(et_min)
    k_max = math.sqrt(float(np.max(w_probe)))
    h = 2.0 * math.pi / (points_per_wavelength * k_max)
    n = int(math.ceil((r_end - r_left) / h)) + 1
    n = max(n, 1000)
    n = min(n, _MAX_POINTS)
    return RadialGrid(r_start=r_left, r_end=float(r_end), n_points=n)


@njit(cache=True)
def _numerov_kernel(w, h):
    """Outward Numerov sweep of u'' = w u with u(0)=0, u'(0)=1.

    Returns (terminal log-derivative, interior node count).  u is
    renormalized whenever it exceeds 1e150; sign changes are not counted
    where the step cannot resolve the local scale (h^2 |w|/12 > 1, only
    possible inside a hard repulsive wall where u cannot oscillate).
    """
    n = w.shape[0]
    h2 = h * h / 12.0
    u_ppp = 0.0  # u_{i-3}, kept for the terminal log-derivative
    u_pp = 0.0
    u_p = h
    f_pp = 1.0 - h2 * w[0]
    f_p = 1.0 - h2 * w[1]
    nodes = 0
    for i in range(2, n):
        f_i = 1.0 - h2 * w[i]
        u_i = (2.0 * u_p * (1.0 + 5.0 * h2 * w[i - 1]) - u_pp * f_pp) / f_i
        if u_i * u_p < 0.0 and h2 * abs(w[i]) < 1.0:
            nodes += 1
        if abs(u_i) > _RENORM:
            s = 1.0 / abs(u_i)
            u_i *= s
            u_p *= s
            u_pp *= s
            u_ppp *= s
        u_ppp = u_pp
        u_pp = u_p
        u_p = u_i
        f_pp = f_p
        f_p = f_i
    if u_pp == 0.0:
        ld = math.inf
    else:
        ld = (u_p - u_ppp) / (2.0 * h * u_pp)
    return ld, nodes


def sigma_samples(p: PotentialParams, grid: RadialGrid) -> np.ndarray:
    """Potential samples on the grid (reusable across trial energies)."""
    return np.asarray(potential_value(grid.radii, p), dtype=float)


def integrate_radial(e, dc: DiracConstants, p: PotentialParams,
                     grid: RadialGrid, sigma: np.ndarray | None = None):
    """One outward sweep at trial energy E: (log-derivative at r_end, nodes)."""
    if sigma is None:
        sigma = sigma_samples(p, grid)
    w = (dc.m + e - dc.c_spin) * sigma - effective_eigenvalue(e, dc)
    return _numerov_kernel(w, grid.spacing)


def shoot_eigenvalues(dc: DiracConstants, p: PotentialParams,
                      grid: RadialGrid | None = None, n_max: int = 64,
                      tol: float = 1e-9) -> list[EnergyLevel]:
    """All bound levels up to n_max by node-count + log-derivative bisection.

    For each n_r, bisects on the predicate "past the level": either more
    than n_r nodes, or exactly n_r nodes with the terminal log-derivative
    already below the analytic decay rate -sqrt(-Et).
    """
    if grid is None:
        grid = build_grid(dc, p)
    sigma = sigma_samples(p, grid)
    lo, hi = bound_window(dc)
    eps = 1e-8 * dc.m
    a0, b0 = lo + eps, hi - eps

    def probe(e):
        ld, nodes = integrate_radial(e, dc, p, grid, sigma)
        kappa = math.sqrt(max(-effective_eigenvalue(e, dc), 0.0))
        return nodes, ld + kappa

    def past_level(nodes, phi, n):
        return nodes > n or (nodes == n and phi < 0.0)

    levels = []
    nodes_b, phi_b = probe(b0)
    for n in range(n_max):
        if not past_level(nodes_b, phi_b, n):
            break
        a, b = a0, b0
        while b - a > tol:
            mid = 0.5 * (a + b)
            nodes_m, phi_m = probe(mid)
            if past_level(nodes_m, phi_m, n):
                b = mid
            else:
                a = mid
        e_n = 0.5 * (a + b)
        levels.append(EnergyLevel(
            n_r=n, energy=e_n, e_tilde=effective_eigenvalue(e_n, dc),
            method=METHOD_ORACLE,
        ))
    return levels


def ode_residual(radii, f_values, e, dc: DiracConstants, p: PotentialParams) -> float:
    """Max-norm residual of the effective radial equation on a sampled F.

    Uses central second differences at interior points; normalized by the
    peak of |F|.  A zero function returns 0 by convention.
    """
    r = np.asarray(radii, dtype=float)
    f = np.asarray(f_values, dtype=float)
    if len(r) < 5:
        raise GridError("need at least 5 samples for the difference stencil")
    h = r[1] - r[0]
    if not np.allclose(np.diff(r), h, rtol=1e-8):
        raise GridError("ode_residual requires a uniform grid")
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        return 0.0
    # fourth-order central second difference: truncation h^4 f''''''/90
    fpp = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2]
           + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
    mid = r[2:-2]
    w = (dc.m + e - dc.c_spin) * np.asarray(potential_value(mid, p)) \
        - effective_eigenvalue(e, dc)
    resid = np.abs(fpp - w * f[2:-2])
    # the stencil cannot resolve the wall region where w varies faster
    # than the grid; certify only where the discrete operator is trusted
    ok = h * h * np.abs(w) / 12.0 < 1e-3
    if not np.any(ok):
        raise GridError("grid too coarse to certify any interior point")
    return float(np.max(resid[ok]) / peak)
