"""Regime-dependent quantization of the bound-state energies.

Two entry points.  ``spectrum`` gives the exact levels, dispatched on the
deformation q:

* q >= 1: the closed-form condition a(E) = -n_r, where a is the first
  hypergeometric parameter (still implicit in E because the effective
  strengths depend on E);
* 0 < q < 1: zeros in E of 2F1(a(E), b(E), c(E); z0) with the fixed
  argument z0 = 4 sqrt(q)/(1 + sqrt(q))^2;
* q = 0 (Morse): zeros of 1F1(a(E); c(E); y0) with y0 = 4 sqrt(Vt1)/alpha.

Both are zeros at r = 0 of the factor of F that the wavefunctions use.

``closed_form_spectrum`` solves a(E) = -n_r at every q >= 0.  It is exact
only for q >= 1; below, it gives the disputed closed-form levels, and at
q = 0, where a(E) is the Kummer parameter eta + 1/2 - s, the deep-well
asymptotic Morse levels.

``_crossings`` finds where a counting phase, -a(E) here and Theta(E)/pi - 1
in the shooting oracle, first reaches each level n.  Both search the one
window of ``_window`` from its two ends, the oracle also from seed
energies inside it where its caller expects levels, and halving separates
the levels.
Below q = 1 the closed-form levels bracket the exact ones (see
``spectrum``), so H(E, 0) is never scanned.  Every bracket is refined in
lockstep by Chandrupatla's method (``_chandrupatla``), one array call per
step; a refinement that fails, or meets a NaN or infinite value, raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .deformed import PotentialParams, cosh_q
from .effective import (
    DiracConstants,
    _finite,
    abc_params,
    bound_window,
    effective_eigenvalue,
    effective_strengths,
)
from .errors import DiscriminantError, NonConvergenceError, ParameterError, _require_finite
from .special import gauss_2f1, kummer_1f1

__all__ = [
    "EnergyLevel",
    "SolverConfig",
    "METHOD_Q_GE_1",
    "METHOD_Q_LT_1",
    "METHOD_DISPUTED",
    "METHOD_MORSE_EXACT",
    "METHOD_MORSE_ASYMPTOTIC",
    "METHOD_ORACLE",
    "spectrum",
    "closed_form_spectrum",
]

METHOD_Q_GE_1 = "closed-form-q>=1"
METHOD_Q_LT_1 = "transcendental-q<1"
METHOD_DISPUTED = "disputed-closed-form"
METHOD_MORSE_EXACT = "morse-exact"
METHOD_MORSE_ASYMPTOTIC = "morse-asymptotic"
METHOD_ORACLE = "oracle"
# the labels by regime of the levels of spectrum, the only ones with an
# eigenfunction, and of closed_form_spectrum
_SPECTRUM_METHOD = {"singular": METHOD_Q_GE_1, "regular": METHOD_Q_LT_1,
                    "morse": METHOD_MORSE_EXACT}
_CLOSED_FORM_METHOD = {"singular": METHOD_Q_GE_1, "regular": METHOD_DISPUTED,
                       "morse": METHOD_MORSE_ASYMPTOTIC}

_WINDOW_EPS_FACTOR = 1e-8


@dataclass(frozen=True)
class EnergyLevel:
    """One bound level: radial quantum number, Dirac energy, provenance."""

    n_r: int
    energy: float
    e_tilde: float
    method: str


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: ``tol_e`` is the absolute energy tolerance of every
    root, in units of M; a spectrum lists at most ``max_levels``."""

    tol_e: float = 1e-10
    max_levels: int = 64

    def __post_init__(self):
        _require_finite(self)
        if self.tol_e <= 0.0:
            raise ParameterError(f"tol_e must be positive, got {self.tol_e}")
        if self.max_levels < 1:
            raise ParameterError(f"max_levels must be >= 1, got {self.max_levels}")


def _window(dc: DiracConstants):
    """The bound window with each end moved 1e-8 M inward, where the
    searches of the closed form and the oracle start and stop."""
    lo, hi = bound_window(dc)
    eps = _WINDOW_EPS_FACTOR * dc.m
    return lo + eps, hi - eps


def _seed_energies(lo, hi, seeds):
    """lo, hi and the ``seeds`` strictly between them, ascending and each
    once: the first samples of ``_crossings``.  Seeds outside (lo, hi),
    and NaNs, are dropped; np.unique would load numpy.ma."""
    s = np.sort(np.asarray(seeds, dtype=float).ravel())
    s = s[(s > lo) & (s < hi)]
    return np.concatenate(([lo], s[np.diff(s, prepend=lo) > 0.0], [hi]))


_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _chandrupatla(f, xa, xb, xtol, *per_bracket, fa=None, fb=None):
    """Roots of f in the brackets [xa, xb] by Chandrupatla's method
    (Adv. Eng. Softw. 28, 145 (1997)).

    ``xa``, ``xb``, ``xtol`` and the ``per_bracket`` arrays broadcast
    together, one element per bracket.  All brackets are refined in
    lockstep: each step makes one call f(x, *per_bracket) on the float64
    array of the live brackets and drops those that have converged.  ``fa``
    and ``fb``, given together, hold f at the ends.  Element by element this
    is scipy's ``elementwise.find_root`` with xatol = xtol, xrtol = 4 eps,
    fatol = frtol = 0 and 100 iterations: the same evaluations and root.  A
    bracket stops at the end xm with the smaller |f| once f(xm) = 0 or the
    bracket is narrower than xtol + 4 eps |xm|.  Scalar inputs return a
    float.  Raises NonConvergenceError, naming the bracket, when f has the
    same sign at both ends, when f is NaN or infinite, and after 100 steps.
    """
    xa, xb, xtol, *args = np.broadcast_arrays(xa, xb, xtol, *per_bracket)
    shape = xa.shape
    xa, xb, xtol = (np.array(v, dtype=float).ravel() for v in (xa, xb, xtol))
    args = [a.ravel() for a in args]

    def finite(idx, x, fx):
        fx = np.asarray(fx, dtype=float).reshape(x.shape)
        bad = np.flatnonzero(~np.isfinite(fx))
        if len(bad):
            k = bad[np.argmin(idx[bad])]  # the first bracket, its lower end first
            v = "NaN" if np.isnan(fx[k]) else fx[k]
            raise NonConvergenceError(
                f"f is {v} at x = {x[k]} in the bracket [{xa[idx[k]]}, {xb[idx[k]]}]")
        return fx

    def call(idx, x):
        return finite(idx, x, f(x, *(a[idx] for a in args)))

    live = np.arange(xa.size)
    idx, x = np.concatenate([live, live]), np.concatenate([xa, xb])
    if fa is None or fb is None:
        ends = call(idx, x)
    else:
        ends = finite(idx, x, np.concatenate([np.broadcast_to(fa, shape).ravel(),
                                              np.broadcast_to(fb, shape).ravel()]))
    f1, f2 = ends[:xa.size], ends[xa.size:]
    same = (f1 != 0.0) & (f2 != 0.0) & ((f1 < 0.0) == (f2 < 0.0))
    if same.any():
        k = np.flatnonzero(same)[0]
        raise NonConvergenceError(f"f has the same sign at both ends of [{xa[k]}, {xb[k]}]")

    # x1 is the newest point, x2 the other end of the bracket and x3 the end
    # dropped last; with x3 unknown (NaN) the first step bisects
    x1, x2 = xa, xb
    x3 = f3 = np.full(xa.size, np.nan)
    roots = np.empty(xa.size)
    for step in range(_MAXITER + 1):
        xm, fm = np.where(np.abs(f1) < np.abs(f2), [x1, f1], [x2, f2])
        dx, tol = np.abs(x2 - x1), np.abs(xm) * _RTOL + xtol
        done = (fm == 0.0) | (dx < tol)
        if done.any():
            roots[live[done]] = xm[done]
            keep = ~done
            live, x1, x2, x3, f1, f2, f3, dx, tol, xtol = (
                a[keep] for a in (live, x1, x2, x3, f1, f2, f3, dx, tol, xtol))
        if not len(live) or step == _MAXITER:
            break

        # inverse quadratic interpolation through the three points where
        # it is monotone in the bracket, bisection elsewhere; every element
        # computes both, and np.where drops what divided by zero or overflowed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where((1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi)),
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
        tl = 0.5 * tol / dx
        x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        fx = call(live, x)
        # x is the newest point; of x1 and x2, the end where f has the
        # sign of f(x) is dropped
        drop1 = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(drop1, [x1, f1], [x2, f2])
        x2, f2 = np.where(drop1, [x2, f2], [x1, f1])
        x1, f1 = x, fx
    if len(live):
        k = live[0]
        raise NonConvergenceError(f"Chandrupatla's method did not converge in {_MAXITER} "
                                  f"steps in [{xa[k]}, {xb[k]}]")
    return float(roots[0]) if shape == () else roots.reshape(shape)


def _crossings(phase, seeds, n_max, tol):
    """The energies in [seeds[0], seeds[-1]] where phase(E) reaches n = 0,
    1, ..., for n < min(n_max, floor(max v) + 1), v being phase at the samples.

    phase is first sampled at ``seeds``, ascending and distinct: the two
    window ends and, between them, any energies where levels are expected
    (see ``_seed_energies``).  Level n is in the first cell where the
    running maximum of v reaches n.  A seed only moves cell edges: the top
    sample still gives the count, the running maximum the labels, and a
    level that no pair of seeds encloses alone is separated as without
    them.  Crowded cells are halved, one phase call for all, until each
    holds one level; one lockstep Chandrupatla call then refines
    phase(E) - n in each.
    Raises NonConvergenceError, naming the energy, where phase is NaN or
    infinite at a sample and when the first sample already reaches level 0.
    """
    def sample(e):  # phase at the ascending energies e, every value finite
        v = phase(e)
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):
            raise NonConvergenceError(f"phase is {v[bad[0]]} at the sample E = {e[bad[0]]}")
        return v

    e = np.asarray(seeds, dtype=float)
    v = sample(e)
    while True:
        k = np.searchsorted(np.fmax.accumulate(v), np.arange(n_max))
        k = k[k < len(e)]
        if len(k) and k[0] == 0:
            raise NonConvergenceError(f"level 0 is reached at the first sample E = {e[0]}")
        i = k[1:][k[1:] == k[:-1]]
        i = i[np.diff(i, prepend=0) > 0]  # each crowded cell once
        if not len(i):
            break
        mid = 0.5 * (e[i - 1] + e[i])
        stuck = mid[(mid == e[i - 1]) | (mid == e[i])]
        if len(stuck):
            raise NonConvergenceError(f"levels share a cell too narrow to halve at E = {stuck[0]}")
        e, v = np.insert(e, i, mid), np.insert(v, i, sample(mid))
    ns = np.arange(len(k))
    return _chandrupatla(lambda x, n: phase(x) - n, e[k - 1], e[k], tol, ns,
                         fa=v[k - 1] - ns, fb=v[k] - ns)


def _level(n_r, e, dc, method):
    return EnergyLevel(n_r, e, effective_eigenvalue(e, dc), method)


def _morse_argument(e, dc: DiracConstants, p: PotentialParams):
    """y0 = 4 sqrt(Vt1)/alpha, the argument at r = 0 of the Morse 1F1."""
    with np.errstate(all="ignore"):
        y0 = 4.0 * np.sqrt(effective_strengths(e, dc, p)[0]) / p.alpha
    return _finite("y0", y0, e)


def _hypergeometric_factor(e, dc: DiracConstants, p: PotentialParams, r):
    """The factor H(E, r) of F whose zero at r = 0 is a level when q < 1.

    With (a, b, c) of ``abc_params``: for 0 < q < 1, H = 2F1(a, b; c; z), z =
    sqrt(q)/cosh_q(alpha r/2)^2 written so that r = 0 gives z0 = 4 sqrt(q)/
    (1 + sqrt(q))^2 to the bit; at q = 0 (b = inf), H = 1F1(a; c; y0 e^{-alpha r}).
    """
    a, b, c = abc_params(e, dc, p)
    if p.q == 0.0:
        return kummer_1f1(a, c, _morse_argument(e, dc, p) * np.exp(-p.alpha * r))
    sq = math.sqrt(p.q)
    with np.errstate(over="ignore"):  # far out, cosh_q = inf and z = 0
        z = 4.0 * sq / (2.0 * cosh_q(0.5 * p.alpha * r, sq)) ** 2
    return gauss_2f1(a, b, c, z)


def _closed_form_levels(dc: DiracConstants, p: PotentialParams, cfg: SolverConfig, n_max):
    """The roots E_n of a(E) = -n for n < n_max, and their method label;
    see ``closed_form_spectrum``."""
    if p.v1 < p.v2 * math.sqrt(p.q):
        raise DiscriminantError(f"attractive wall: V1 = {p.v1} < V2 sqrt(q) = "
                                f"{p.v2 * math.sqrt(p.q)}; the discriminant of lambda "
                                "is negative in the bound window")
    return (_crossings(lambda e: -abc_params(e, dc, p)[0], np.array(_window(dc)), n_max,
                       cfg.tol_e * dc.m), _CLOSED_FORM_METHOD[p.regime])


def spectrum(dc: DiracConstants, p: PotentialParams,
             cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """All bound levels, exact in every regime of q.

    For q >= 1 these are the levels of ``closed_form_spectrum``.  Below,
    they are the zeros of H(E, 0): 2F1 at z0 for 0 < q < 1, and 1F1 at
    4 sqrt(Vt1)/alpha for q = 0.

    There, the closed-form levels E_n are the exact levels of the longer
    interval r > ln(q)/(2 alpha) (the whole line at q = 0), and a node at
    r = 0 is one more constraint.  With V1 > V2 > 0 the well is repulsive
    left of r = 0 and binds nothing there, and one point constraint moves
    the level count by at most one (Dirichlet bracketing; Reed & Simon IV,
    XIII.15).  So level n lies in (E_n, E_(n+1)), the last one below the
    window top, and H changes sign there once: each n_r is certified by
    its bracket, not counted.  A level lies at most E_n's root tolerance
    tol_e M below E_n, so the bracket starts lower, at s_n = E_n - min(1e-6 M,
    (E_n - E_(n-1))/4); H at u_n = E_n + (s_(n+1) - E_n)/4 picks its half.
    One lockstep call then refines all levels.
    """
    if p.q >= 1.0:
        return closed_form_spectrum(dc, p, cfg)

    def f(e):
        return _hypergeometric_factor(e, dc, p, 0.0)
    method = _SPECTRUM_METHOD[p.regime]
    e_n = _closed_form_levels(dc, p, cfg, cfg.max_levels + 1)[0]
    if not len(e_n):
        return []
    s = e_n - np.minimum(1e-6 * dc.m, 0.25 * np.diff(e_n, prepend=bound_window(dc)[0]))
    if len(e_n) <= cfg.max_levels:  # the last bracket ends at the window top
        s = np.append(s, _window(dc)[1])
    k = len(s) - 1
    u = e_n[:k] + 0.25 * (s[1:] - e_n[:k])
    v = f(np.concatenate([s, u]))
    fs, fu = v[:k + 1], v[k + 1:]
    if k == len(e_n) and np.sign(fs[-2]) == np.sign(fs[-1]):
        k -= 1  # H keeps its sign from the last s_n to the top: no level there
    # a NaN or infinite H at an end of a chosen half raises in _chandrupatla
    left = np.sign(fs[:k]) != np.sign(fu[:k])
    xa, xb = np.where(left, s[:k], u[:k]), np.where(left, u[:k], s[1:k + 1])
    fa, fb = np.where(left, fs[:k], fu[:k]), np.where(left, fu[:k], fs[1:k + 1])
    roots = _chandrupatla(f, xa, xb, cfg.tol_e * dc.m, fa=fa, fb=fb)
    return [_level(n, e, dc, method) for n, e in enumerate(roots.tolist())]


def closed_form_spectrum(dc: DiracConstants, p: PotentialParams,
                         cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """The levels of the closed-form condition a(E) = -n_r, n_r = 0, 1, ...

    a is the first hypergeometric parameter of ``abc_params``; at q = 0 it
    is the Kummer parameter eta + 1/2 - s, with s = Vt2/(2 alpha sqrt(Vt1)),
    and it moves by O(q) as q grows from 0.  The levels are exact for
    q >= 1.  For 0 < q < 1 the condition ignores the r = 0 boundary: these
    are the disputed levels, generally wrong and for comparison only.  At
    q = 0 they are the deep-well asymptotic Morse levels.

    An attractive wall (q >= 1, V1 < V2 sqrt(q)) is outside the solution
    class, since the discriminant of lambda turns negative for deep enough
    states: it raises DiscriminantError.
    """
    roots, method = _closed_form_levels(dc, p, cfg, cfg.max_levels)
    return [_level(n, e, dc, method) for n, e in enumerate(roots.tolist())]
