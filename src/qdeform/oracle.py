"""Independent eigenvalue oracle: matched Numerov shooting on the effective equation.

The upper component obeys u'' = W(r) u with W = (M + E - C) V(r) - Et(E).

Grid.  For q >= 1 the well has a repulsive 1/(r - r0)^2 wall at
r0 = ln(q)/(2 alpha), and a grid uniform in r would take its step from the
wall.  The oracle integrates instead in s, with r = r0 + L ln(1 + e^s) and
L = 1/alpha: next to the wall r - r0 ~ L e^s is logarithmic, far from it
r ~ r0 + L s is uniform.  With g' = dr/ds = L sigma(s), sigma = 1/(1 + e^-s),
the Liouville substitution u = (g')^(1/2) v gives

    v'' = Q(s) v,    Q = g'^2 W(r(s)) + (1 - sigma^2)/4,

which is still in Numerov form, so one kernel serves every grid.  For
0 <= q < 1 the grid is uniform in r: sigma = 1, g' = 1 and Q = W.  The step
is uniform in the integration coordinate and resolves the largest |Q| over
the bound window with a fixed number of points per local wavelength.

Search.  Each trial energy makes one sweep: outward from the left edge
(v = 0) and inward from r_end (decaying start), both halves stopping at the
outermost classically allowed grid point m.  Each half has a Pruefer phase
theta = pi * nodes + (atan2(v_m, dv/ds) mod pi), the derivative taken as the
difference over the step (m - 1, m) shared by both halves.  The matched
phase Theta(E) = theta_out + theta_in is continuous and rises with E, and
level n_r is the root of Theta = (n_r + 1) pi; at a root the two halves
match for any choice of m.  Brent's method (``solvers._brentq``) solves
each level inside the tightest bracket the energies already swept give,
starting from the previous level and the top of the window.

The module takes only the potential and the effective eigenvalue, no
closed-form spectrum, so it serves as the ground truth the analytic solvers
are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .deformed import PotentialParams, potential_value, singularity_radius
from .effective import DiracConstants, bound_window, effective_eigenvalue
from .errors import GridError
from .solvers import METHOD_ORACLE, EnergyLevel, _brentq

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
    """Grid uniform in the integration coordinate t.

    Without a ``wall``, t = r.  With a wall at r0, r = r0 + scale*ln(1 + e^t),
    logarithmic in r - r0 next to the wall and uniform far from it.
    """

    r_start: float
    r_end: float
    n_points: int
    wall: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.r_start >= self.r_end:
            raise GridError(f"need r_start < r_end, got {self.r_start}, {self.r_end}")
        if self.n_points < 1000:
            raise GridError(f"need at least 1000 points, got {self.n_points}")
        if self.wall is not None and not (self.wall < self.r_start and self.scale > 0.0):
            raise GridError(f"need wall < r_start and scale > 0, got wall {self.wall}, "
                            f"r_start {self.r_start}, scale {self.scale}")

    def _coordinate(self, r: float) -> float:
        if self.wall is None:
            return r
        x = (r - self.wall) / self.scale
        return x + math.log(-math.expm1(-x))  # ln(e^x - 1) without overflow

    @property
    def spacing(self) -> float:
        """The uniform step in t."""
        t0, t1 = self._coordinate(self.r_start), self._coordinate(self.r_end)
        return (t1 - t0) / (self.n_points - 1)

    @property
    def radii(self) -> np.ndarray:
        return self.mapping()[0]

    def mapping(self):
        """(r, dr/dt, sigma) at every grid point.

        On the wall map dr/dt = scale * sigma with sigma = 1/(1 + e^-t);
        for t = r both are 1.
        """
        t = np.linspace(self._coordinate(self.r_start),
                        self._coordinate(self.r_end), self.n_points)
        if self.wall is None:
            one = np.ones_like(t)
            return t, one, one
        sig = 1.0 / (1.0 + np.exp(-t))
        return self.wall + self.scale * np.logaddexp(0.0, t), self.scale * sig, sig


def sweep_terms(p: PotentialParams, grid: RadialGrid):
    """(g'^2 V, g'^2, Liouville term) on the grid, reusable across trial energies.

    Q(E) = (M + E - C) g'^2 V - Et(E) g'^2 + (1 - sigma^2)/4.
    """
    r, jac, sig = grid.mapping()
    jac2 = jac * jac
    return jac2 * np.asarray(potential_value(r, p), dtype=float), jac2, 0.25 * (1.0 - sig * sig)


def build_grid(dc: DiracConstants, p: PotentialParams,
               r_end: float | None = None,
               points_per_wavelength: float = 160.0) -> RadialGrid:
    """Choose a grid adapted to the wall, the well depth and the decay lengths.

    The right cutoff is placed where the potential term has fallen below
    1e-10 of the deepest effective eigenvalue, plus a generous tail for
    weakly bound states.  For q >= 1 the grid starts 1e-9/alpha from the
    wall and maps it logarithmically.  The step resolves the largest |Q|
    over the bound window with ``points_per_wavelength`` points; a grid
    that would need more than 3,000,000 points raises GridError.
    """
    r0 = singularity_radius(p)
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

    if r0 is None:
        grid = RadialGrid(1e-8 / p.alpha, float(r_end), 1000)
    else:
        grid = RadialGrid(r0 + 1e-9 / p.alpha, float(r_end), 1000,
                          wall=r0, scale=1.0 / p.alpha)

    # bound |Q| over the window on a dense probe of the same map to set the step
    pot, jac2, liouville = sweep_terms(p, replace(grid, n_points=4000))
    q_max = float(np.max(pref_max * np.abs(pot) + abs(et_min) * jac2 + liouville))
    h = 2.0 * math.pi / (points_per_wavelength * math.sqrt(q_max))
    t_span = grid.spacing * (grid.n_points - 1)
    n = max(int(math.ceil(t_span / h)) + 1, 1000)
    if n > _MAX_POINTS:
        raise GridError(f"the well needs {n} grid points, more than {_MAX_POINTS}")
    return replace(grid, n_points=n)


def _numerov(a_coef, b_coef, u2, u1):
    """Run u_i = A_i u_{i-1} - B_i u_{i-2} from (u2, u1) = (u_0, u_1).

    Returns the last two values and the number of sign changes.  u is
    renormalized whenever it exceeds 1e150, which changes no sign and no
    ratio.
    """
    nodes = 0
    for a, b in zip(a_coef, b_coef):
        u = a * u1 - b * u2
        if u * u1 < 0.0:
            nodes += 1
        if u > _RENORM or u < -_RENORM:
            s = 1.0 / abs(u)
            u *= s
            u1 *= s
        u2 = u1
        u1 = u
    return u2, u1, nodes


def _sweep(f, u0, u1):
    """Numerov along f = 1 - h^2 Q/12 from (u_0, u_1); see ``_numerov``."""
    a_coef = (12.0 - 10.0 * f[1:-1]) / f[2:]
    b_coef = f[:-2] / f[2:]
    return _numerov(memoryview(a_coef), memoryview(b_coef), u0, u1)


def _phase(u, slope, nodes):
    return math.pi * nodes + math.atan2(u, slope) % math.pi


def integrate_radial(e, dc: DiracConstants, p: PotentialParams,
                     grid: RadialGrid, terms=None):
    """One matched sweep at trial energy E: (Theta, nodes).

    Theta = theta_out + theta_in is the matched Pruefer phase (level n_r
    sits at Theta = (n_r + 1) pi) and nodes = floor(Theta / pi), the zero
    count of the solution regular at the left edge, equal to the number of
    levels below E.  Raises GridError where the step cannot resolve the
    local scale (h^2 |Q|/12 >= 1), since sign changes there are spurious.
    """
    pot, jac2, liouville = sweep_terms(p, grid) if terms is None else terms
    q = (dc.m + e - dc.c_spin) * pot - effective_eigenvalue(e, dc) * jac2 + liouville
    h = grid.spacing
    g = (h * h / 12.0) * q
    if not np.all(np.abs(g) < 1.0):
        raise GridError(f"the step {h:.3g} does not resolve the well at E = {e}")
    f = 1.0 - g
    allowed = np.flatnonzero(q < 0.0)
    m = int(allowed[-1]) if len(allowed) else int(np.argmin(q))
    m = min(max(m, 2), len(f) - 3)

    # outward to m from u_0 = 0, u_1 = h; inward to m - 1 from a decaying start
    u_prev, u_m, nodes_out = _sweep(f[:m + 1], 0.0, h)
    w_m, w_prev, nodes_in = _sweep(f[m - 1:][::-1], 1.0,
                                   math.exp(h * math.sqrt(max(q[-1], 0.0))))
    if w_m * w_prev < 0.0:  # the step (m - 1, m) belongs to the outward half
        nodes_in -= 1

    theta = (_phase(u_m, (u_m - u_prev) / h, nodes_out)
             + _phase(w_m, (w_prev - w_m) / h, nodes_in))
    return theta, int(theta // math.pi)


def shoot_eigenvalues(dc: DiracConstants, p: PotentialParams,
                      grid: RadialGrid | None = None, n_max: int = 64,
                      tol: float = 1e-9) -> list[EnergyLevel]:
    """All bound levels up to n_max: roots of Theta(E) = (n_r + 1) pi.

    The phase at the top of the window counts the levels.  Each level is
    solved by Brent's method to the absolute energy tolerance ``tol``
    inside the tightest bracket of the energies already swept; every sweep
    is remembered.  Raises NonConvergenceError if Brent's method fails.
    """
    if grid is None:
        grid = build_grid(dc, p)
    terms = sweep_terms(p, grid)
    lo, hi = bound_window(dc)
    eps = 1e-8 * dc.m
    swept = {}  # trial energy -> Theta / pi

    def turns(e):
        if e not in swept:
            swept[e] = integrate_radial(e, dc, p, grid, terms)[0] / math.pi
        return swept[e]

    bottom, top = lo + eps, hi - eps
    levels = []
    for n in range(min(n_max, int(turns(top)))):
        target = n + 1
        a = max((e for e, t in swept.items() if t < target), default=bottom)
        b = min(e for e, t in swept.items() if e > a and t >= target)
        e_n = _brentq(lambda e: turns(e) - target, a, b, tol)
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
