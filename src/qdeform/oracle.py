"""Independent eigenvalue oracle: matched Numerov shooting on the effective equation.

The upper component obeys u'' = W(r) u with W = (M + E - C) V(r) - Et(E).

Grid.  The oracle integrates in a coordinate s whose step follows the local
wavelength of the well (Kokoouline, Dulieu, Kosloff and Masnou-Seeuws,
J. Chem. Phys. 110, 9865 (1999)): r = g(s) with g' = dr/ds = Q_env(r)^(-1/2),

    Q_env = (2M - C) Vbar(r) + (M - C/2)^2,
    Vbar  = (2 V2 e^-x + 4 V1 e^-2x + 2 V2 q e^-3x) / (1 - q e^-2x)^2,

with x = alpha r.  Vbar is the deformed well with the sign of its attractive
term flipped, so Vbar >= |V|, and Q_env >= |W| at every energy of the bound
window.  One formula serves every regime: at q = 0 it is the Morse envelope;
for 0 < q < 1 its pole ln(q)/(2 alpha) lies left of the origin, so the map
stays bounded as q -> 1-; for q >= 1 the pole is the wall r0, where
Q_env ~ 1/(r - r0)^2 makes the map logarithmic.  The Liouville substitution
u = (g')^(1/2) v gives

    v'' = Q(s) v,    Q = g'^2 W(r(s)) - 1/2 {g; s},

still in Numerov form, with the Schwarzian term taken analytically,

    -1/2 {g; s} = Q_env''/(4 Q_env^2) - 5 Q_env'^2/(16 Q_env^3),

which tends to the constant 1/(4K) next to a q >= 1 wall, where
Q_env ~ K/(r - r0)^2 and the grid is geometric in r - r0.
s(r) is the integral of Q_env^(1/2), by a Gauss rule on a probe geometric
near the left edge; each grid radius comes from cubic Hermite interpolation
of the probe and one Newton step, so the radii and the g'^2 and Liouville
values at them belong to one smooth map.  Since |g'^2 W| <= 1, the step
resolves the largest |Q| with a fixed number of points per wavelength.

Search.  Each trial energy makes one sweep: outward from the left edge
(v = 0) and inward from r_end (decaying start), both halves stopping at the
outermost classically allowed grid point m.  Each half has a Pruefer phase
theta = pi * nodes + (atan2(v_m, dv/dr) mod pi), the derivative taken as the
difference over the step (m - 1, m) shared by both halves, divided by g'.  The matched
phase Theta(E) = theta_out + theta_in is continuous and, apart from a dip
between the window bottom and the first level, rises with E; level n_r is
the root of Theta = (n_r + 1) pi, and at a root the two halves match for
any choice of m.  Brent's method (``solvers._brentq``) solves
each level inside the tightest bracket the energies already swept give,
starting from the previous level and the top of the window.

The module takes only the potential and the effective eigenvalue, no
closed-form spectrum, so it serves as the ground truth the analytic solvers
are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_PROBE_POINTS = 1000

# 4-point Gauss-Legendre rule on [0, 1]
_GAUSS_T = (0.0694318442029737, 0.3300094782075719, 0.6699905217924281, 0.9305681557970263)
_GAUSS_W = (0.1739274225687269, 0.3260725774312731, 0.3260725774312731, 0.1739274225687269)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radii r_i = g(s_i) at equal steps ``spacing`` in s.

    Carries g'^2 = (dr/ds)^2 and the Liouville term -1/2 {g; s} at every
    radius, so that u = (g')^(1/2) v turns u'' = W u into
    v'' = (g'^2 W - 1/2 {g; s}) v.
    """

    radii: np.ndarray
    jac2: np.ndarray
    liouville: np.ndarray
    spacing: float

    def __post_init__(self):
        n = len(self.radii)
        if n < 1000:
            raise GridError(f"need at least 1000 points, got {n}")
        if len(self.jac2) != n or len(self.liouville) != n:
            raise GridError("radii, jac2 and liouville must have one value per point")
        if not (self.spacing > 0.0 and np.all(np.diff(self.radii) > 0.0)):
            raise GridError("need a positive spacing and strictly rising radii")

    @property
    def n_points(self) -> int:
        return len(self.radii)

    @property
    def r_start(self) -> float:
        return float(self.radii[0])

    @property
    def r_end(self) -> float:
        return float(self.radii[-1])


def sweep_terms(p: PotentialParams, grid: RadialGrid):
    """(g'^2 V, g'^2, Liouville term) on the grid, reusable across trial energies.

    Q(E) = (M + E - C) g'^2 V - Et(E) g'^2 - 1/2 {g; s}.
    """
    return (grid.jac2 * np.asarray(potential_value(grid.radii, p), dtype=float),
            grid.jac2, grid.liouville)


class _Envelope:
    """Q_env(r) = (2M - C) Vbar(r) + (M - C/2)^2, a bound on |W| over the window.

    Vbar = (4 V1 y^2 + 2 V2 y + 2 V2 q y^3) / (1 - q y^2)^2, y = e^(-alpha r),
    is the deformed well with the sign of its attractive term flipped, so
    Vbar >= |V|, and (M - C/2)^2 = max |Et|.
    """

    def __init__(self, dc: DiracConstants, p: PotentialParams):
        self.pref = 2.0 * dc.m - dc.c_spin  # max of M + E - C over the window
        self.alpha, self.q = p.alpha, p.q
        self.c4, self.c2 = 4.0 * p.v1 * self.pref, 2.0 * p.v2 * self.pref
        self.floor = -effective_eigenvalue(0.5 * dc.c_spin, dc)

    def __call__(self, r):
        """Q_env at r, computed in place to keep the temporaries few."""
        y = np.exp(r * -self.alpha)
        b = y * y
        b *= self.q
        num = b + 1.0
        num *= self.c2
        num += self.c4 * y
        num *= y
        b -= 1.0  # (q y^2 - 1)^2 = (1 - q y^2)^2
        b *= b
        num /= b
        num += self.floor
        return num

    def with_liouville(self, r):
        """(Q_env, -1/2 {g; s}) at r for the map g' = Q_env^(-1/2).

        -1/2 {g; s} = Q_env''/(4 Q_env^2) - 5 Q_env'^2/(16 Q_env^3), with the
        r-derivatives taken analytically.
        """
        y = np.exp(r * -self.alpha)
        qy2 = self.q * y * y
        b = 1.0 - qy2
        # numerator and its derivatives in x = alpha r (y' = -y, b' = 2 q y^2)
        n0 = y * (self.c4 * y + self.c2 * (1.0 + qy2))
        n1 = -y * (2.0 * self.c4 * y + self.c2 * (1.0 + 3.0 * qy2))
        n2 = y * (4.0 * self.c4 * y + self.c2 * (1.0 + 9.0 * qy2))
        db = 2.0 * qy2 / b
        inv_b2 = 1.0 / (b * b)
        env = n0 * inv_b2 + self.floor
        d1 = (self.alpha * inv_b2) * (n1 - 2.0 * n0 * db)
        d2 = (self.alpha * self.alpha * inv_b2) * (
            n2 - 4.0 * n1 * db + 4.0 * n0 * db * (1.0 + 1.5 * db))
        inv = 1.0 / env
        return env, (0.25 * d2 - 0.3125 * d1 * d1 * inv) * inv * inv

    def action(self, lo, hi):
        """The integral of Q_env^(1/2) over [lo, hi] by the Gauss rule."""
        width = hi - lo
        total = 0.0
        for t, w in zip(_GAUSS_T, _GAUSS_W):
            total += w * np.sqrt(self(lo + t * width))
        return total * width


def build_grid(dc: DiracConstants, p: PotentialParams,
               r_end: float | None = None,
               points_per_wavelength: float = 240.0) -> RadialGrid:
    """The local-wavelength grid r = g(s), uniform in s with g' = Q_env^(-1/2).

    Q_env = (2M - C) Vbar(r) + (M - C/2)^2 bounds |W| = |(M + E - C) V - Et|
    over the whole bound window, so one step in s resolves every trial
    energy.  The right cutoff is placed where the potential term has
    fallen below 1e-10 of the deepest effective eigenvalue, plus a generous
    tail for weakly bound states.  The grid starts 1e-9/alpha from a q >= 1
    wall and 1e-8/alpha from the origin otherwise.  The step resolves the
    largest |Q| of the transformed equation with ``points_per_wavelength``
    points; a grid that would need more than 3,000,000 points raises
    GridError.
    """
    r0 = singularity_radius(p)
    envelope = _Envelope(dc, p)

    if r_end is None:
        base = r0 if r0 is not None else 0.0
        probe = base + np.geomspace(0.1 / p.alpha, 2000.0 / p.alpha, 400)
        tail = envelope.pref * np.abs(potential_value(probe, p))
        ok = np.nonzero(tail < 1e-10 * envelope.floor)[0]
        if len(ok) == 0:
            raise GridError("could not place the right cutoff: potential decays too slowly")
        r_end = probe[ok[0]] + 60.0 / p.alpha
    r_end = float(r_end)
    r_start = r0 + 1e-9 / p.alpha if r0 is not None else 1e-8 / p.alpha
    if not r_end > r_start:
        raise GridError(f"need r_start < r_end, got {r_start}, {r_end}")

    # s(r) on a probe geometric in the distance to the envelope's pole
    # ln(q)/(2 alpha) (the wall for q >= 1), or to r_start - 1/alpha if that
    # is nearer
    pole = math.log(p.q) / (2.0 * p.alpha) if p.q > 0.0 else -math.inf
    anchor = r_start - min(1.0 / p.alpha, r_start - pole)
    pr = anchor + np.geomspace(r_start - anchor, r_end - anchor, _PROBE_POINTS)
    pr[0], pr[-1] = r_start, r_end
    ps = np.empty_like(pr)
    ps[0] = 0.0
    np.cumsum(envelope.action(pr[:-1], pr[1:]), out=ps[1:])
    env, liouville = envelope.with_liouville(pr)

    q_max = 1.0 + float(np.max(np.abs(liouville)))  # |g'^2 W| <= 1 by the envelope
    s_span = float(ps[-1])
    n = max(int(math.ceil(s_span * points_per_wavelength * math.sqrt(q_max)
                          / (2.0 * math.pi))) + 1, 1000)
    if n > _MAX_POINTS:
        raise GridError(f"the well needs {n} grid points, more than {_MAX_POINTS}")
    h = s_span / (n - 1)

    # r(s_i) by cubic Hermite interpolation on the probe (dr/ds = Q_env^(-1/2)),
    # then one Newton step on s(r) = s_i
    s = h * np.arange(n)
    idx = np.interp(s, ps, np.arange(_PROBE_POINTS, dtype=float))
    k = np.minimum(idx.astype(np.intp), _PROBE_POINTS - 2)
    t = idx - k
    ds = ps[k + 1] - ps[k]
    slope = 1.0 / np.sqrt(env)
    t2 = t * t
    t3 = t2 * t
    r = ((2.0 * t3 - 3.0 * t2 + 1.0) * pr[k] + (t3 - 2.0 * t2 + t) * ds * slope[k]
         + (3.0 * t2 - 2.0 * t3) * pr[k + 1] + (t3 - t2) * ds * slope[k + 1])
    r -= (ps[k] + envelope.action(pr[k], r) - s) / np.sqrt(envelope(r))
    r[0], r[-1] = r_start, r_end

    env, liouville = envelope.with_liouville(r)
    return RadialGrid(r, 1.0 / env, liouville, h)


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

    # both phases take dv/dr = (dv/ds)/g': Theta(E) is then nearer linear,
    # and Brent's method needs fewer sweeps, than with dv/ds
    dr = h * math.sqrt(jac2[m])
    theta = (_phase(u_m, (u_m - u_prev) / dr, nodes_out)
             + _phase(w_m, (w_prev - w_m) / dr, nodes_in))
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
