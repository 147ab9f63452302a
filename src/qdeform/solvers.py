"""Regime-dependent quantization of the bound-state energies.

Three procedures, dispatched on the deformation q:

* q >= 1: the closed-form condition a(E) = -n_r, where a is the first
  hypergeometric parameter (still implicit in E because the effective
  strengths depend on E);
* 0 < q < 1: zeros in E of 2F1(a(E), b(E), c(E); z0) with the fixed
  argument z0 = 4 sqrt(q)/(1 + sqrt(q))^2;
* q = 0 (Morse): zeros of 1F1 at argument 4 sqrt(Vt1)/alpha, plus the
  deep-well asymptotic level formula.

Each is a sign change of one function of E on the bound window, found by
one scan-bracket-refine routine: the function is evaluated over the whole
scan grid in a single array call, and each sign-change bracket is refined
by Brent's method (``_brentq``), which keeps its bracket and
converges.  The hypergeometric functions oscillate violently in E near
the window edge, so guaranteed bracketing beats fast iteration.  A
refinement that fails, or meets a NaN or infinite value, raises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .deformed import PotentialParams
from .effective import (
    DiracConstants,
    abc_params,
    bound_window,
    effective_eigenvalue,
    effective_strengths,
)
from .errors import DiscriminantError, NoRootError, NonConvergenceError, ParameterError
from .special import gauss_2f1, kummer_1f1

__all__ = [
    "EnergyLevel",
    "SolverConfig",
    "METHOD_Q_GE_1",
    "METHOD_Q_LT_1",
    "METHOD_MORSE_EXACT",
    "METHOD_MORSE_ASYMPTOTIC",
    "METHOD_ORACLE",
    "solve_q_ge_1",
    "solve_q_lt_1",
    "solve_morse_exact",
    "solve_morse_asymptotic",
    "morse_asymptotic_spectrum",
    "spectrum",
    "disputed_q_lt_1",
]

METHOD_Q_GE_1 = "closed-form-q>=1"
METHOD_Q_LT_1 = "transcendental-q<1"
METHOD_MORSE_EXACT = "morse-exact"
METHOD_MORSE_ASYMPTOTIC = "morse-asymptotic"
METHOD_ORACLE = "oracle"

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
    scan_points: int = 2000
    tol_e: float = 1e-10  # absolute, in units of M
    max_levels: int = 64

    def __post_init__(self):
        if self.scan_points < 100:
            raise ParameterError(f"scan_points must be >= 100, got {self.scan_points}")
        if self.tol_e <= 0.0:
            raise ParameterError(f"tol_e must be positive, got {self.tol_e}")
        if self.max_levels < 1:
            raise ParameterError(f"max_levels must be >= 1, got {self.max_levels}")


def _scan_window(dc: DiracConstants, cfg: SolverConfig):
    """Scan grid over the bound window: uniform bulk plus geometrically
    refined points toward both edges, where weakly bound levels cluster
    (the effective eigenvalue vanishes at the endpoints)."""
    lo, hi = bound_window(dc)
    eps = _WINDOW_EPS_FACTOR * dc.m
    width = hi - lo
    bulk = np.linspace(lo + eps, hi - eps, cfg.scan_points)
    # 4 points per octave from width/2 down to the eps offset
    n_oct = max(8, int(math.ceil(math.log2(width / (2.0 * eps)))))
    d = width * 0.5 * 2.0 ** (-np.arange(0, n_oct * 4) / 4.0)
    d = d[d > eps]
    edges = np.concatenate([lo + d, hi - d])
    grid = np.unique(np.concatenate([bulk, edges]))
    return grid[(grid > lo) & (grid < hi)]


def _brackets(x, v):
    """Sign-change cells i (between x[i] and x[i+1]) and exact zeros of the
    samples v = f(x); cells touching a NaN are skipped."""
    ok = ~(np.isnan(v[:-1]) | np.isnan(v[1:]))
    zero = ok & (v[:-1] == 0.0)
    cells = np.nonzero(ok & ~zero & ((v[:-1] < 0.0) != (v[1:] < 0.0)))[0]
    return cells, list(x[:-1][zero])


_BRENT_RTOL = 4.0 * sys.float_info.epsilon  # a Python float keeps the iterates Python floats
_BRENT_MAXITER = 100


def _brentq(f, xa, xb, xtol):
    """A root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Step for step the algorithm of scipy's ``brentq`` with its default
    rtol = 4 eps and 100 iterations, so it makes the same evaluations and
    returns the same root.  It stops once the bracket is narrower than
    2 delta, delta = (xtol + rtol |x|)/2, or f(x) = 0.  Raises
    NonConvergenceError when f(xa) and f(xb) have the same sign, when f is
    NaN, and after 100 steps without convergence.
    """
    def value(x):
        v = f(x)
        if v != v:
            raise NonConvergenceError(f"f is NaN at x = {x} in the bracket [{xa}, {xb}]")
        return v

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NonConvergenceError(f"f has the same sign at both ends of [{xa}, {xb}]")
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise NonConvergenceError(
        f"Brent's method did not converge in {_BRENT_MAXITER} steps in [{xa}, {xb}]")


def _refine(f, lo, hi, tol):
    """Brent's method on one sign-change bracket of f."""
    def scalar(e):
        v = float(f(e))
        if not math.isfinite(v):
            raise NonConvergenceError(
                f"quantization function is {v} at E = {e} in the bracket [{lo}, {hi}]")
        return v

    return _brentq(scalar, lo, hi, tol)


def _roots(f, grid, tol, vals=None):
    """All sign-change roots of f on a scan grid, refined by Brent's method.

    ``f`` maps an array of energies to an array of values; ``vals`` may hold
    f(grid) already.  When two adjacent cells both bracket a root, both are
    rescanned 10x finer in one more array call (double-root guard).  Roots
    closer than 10 tol are merged.
    """
    if vals is None:
        vals = f(grid)
    cells, roots = _brackets(grid, vals)
    adjacent = np.diff(cells) == 1
    paired = np.zeros(len(cells), dtype=bool)
    paired[:-1] |= adjacent
    paired[1:] |= adjacent
    brackets = [(grid[i], grid[i + 1]) for i in cells[~paired]]
    if paired.any():
        sub = np.linspace(grid[cells[paired]], grid[cells[paired] + 1], 11, axis=1)
        subvals = f(sub.reshape(-1)).reshape(sub.shape)
        for x, v in zip(sub, subvals):
            sub_cells, sub_roots = _brackets(x, v)
            roots += sub_roots
            brackets += [(x[k], x[k + 1]) for k in sub_cells]
    roots += [_refine(f, lo, hi, tol) for lo, hi in brackets]

    roots.sort()
    deduped = []
    for r in roots:
        if not deduped or r - deduped[-1] > 10.0 * tol:
            deduped.append(r)
    return deduped


def _level(n_r, e, dc, method):
    return EnergyLevel(
        n_r=n_r, energy=e, e_tilde=effective_eigenvalue(e, dc), method=method
    )


def _zero_levels(f, dc, cfg, method):
    """Levels at the zeros of F(E), labelled in order of energy."""
    roots = _roots(f, _scan_window(dc, cfg), cfg.tol_e * dc.m)
    return [_level(n, e, dc, method) for n, e in enumerate(roots[: cfg.max_levels])]


def _crossing_levels(g, dc, cfg, method, ns=None):
    """Level n at the lowest root of g(E) = -n, for each n in ns (default
    0 .. max_levels - 1) up to the first n without one; g is evaluated on the
    scan grid once."""
    grid = _scan_window(dc, cfg)
    g_grid = g(grid)
    levels = []
    for n in range(cfg.max_levels) if ns is None else ns:
        roots = _roots(lambda e: g(e) + n, grid, cfg.tol_e * dc.m, g_grid + n)
        if not roots:
            break
        levels.append(_level(n, roots[0], dc, method))
    return levels


def _closed_form_a(dc: DiracConstants, p: PotentialParams):
    """a(E) of the closed-form condition a(E) = -n_r.

    An attractive wall (q >= 1, V1 < V2 sqrt(q)) is outside the solution
    class: the discriminant of lambda turns negative for deep enough states.
    """
    if p.v1 < p.v2 * math.sqrt(p.q):
        raise DiscriminantError(
            f"attractive wall: V1 = {p.v1} < V2 sqrt(q) = {p.v2 * math.sqrt(p.q)}; "
            "the discriminant of lambda is negative in the bound window"
        )
    return lambda e: abc_params(e, dc, p)[0]


def _morse_shape(e, dc: DiracConstants, p: PotentialParams):
    """(eta, s, y0) of the Morse problem: 1F1(1/2 + eta - s, 2 eta + 1; y0)
    with s = Vt2/(2 alpha sqrt(Vt1)) and y0 = 4 sqrt(Vt1)/alpha."""
    v1t, v2t = effective_strengths(e, dc, p)
    eta = np.sqrt(-effective_eigenvalue(e, dc)) / p.alpha
    return eta, v2t / (2.0 * p.alpha * np.sqrt(v1t)), 4.0 * np.sqrt(v1t) / p.alpha


def solve_q_ge_1(n_r, dc: DiracConstants, p: PotentialParams,
                 cfg: SolverConfig = SolverConfig()) -> EnergyLevel:
    """Level n_r of the singular well (q >= 1) from a(E) + n_r = 0."""
    if p.q < 1.0:
        raise ParameterError(f"solve_q_ge_1 requires q >= 1, got {p.q}")
    if n_r < 0:
        raise ParameterError(f"n_r must be non-negative, got {n_r}")
    levels = _crossing_levels(_closed_form_a(dc, p), dc, cfg, METHOD_Q_GE_1, [n_r])
    if not levels:
        raise NoRootError(
            f"no level n_r={n_r} for q={p.q}: quantization has no root in the window"
        )
    return levels[0]


def solve_q_lt_1(dc: DiracConstants, p: PotentialParams,
                 cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """All levels of the regular well (0 < q < 1): zeros of 2F1 at z0."""
    if not (0.0 < p.q < 1.0):
        raise ParameterError(f"solve_q_lt_1 requires 0 < q < 1, got {p.q}")
    sq = math.sqrt(p.q)
    z0 = 4.0 * sq / (1.0 + sq) ** 2
    return _zero_levels(lambda e: gauss_2f1(*abc_params(e, dc, p), z0),
                        dc, cfg, METHOD_Q_LT_1)


def solve_morse_exact(dc: DiracConstants, p: PotentialParams,
                      cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """All levels of the Morse well (q = 0): zeros of 1F1 at 4 sqrt(Vt1)/alpha."""
    if p.q != 0.0:
        raise ParameterError(f"solve_morse_exact requires q = 0, got q={p.q}")

    def f(e):
        eta, s, y0 = _morse_shape(e, dc, p)
        return kummer_1f1(0.5 + eta - s, 2.0 * eta + 1.0, y0)

    return _zero_levels(f, dc, cfg, METHOD_MORSE_EXACT)


def _morse_asymptotic_g(dc: DiracConstants, p: PotentialParams):
    """g(E) = eta + 1/2 - s of the deep-well condition g(E) = -n_r."""
    def g(e):
        eta, s, _ = _morse_shape(e, dc, p)
        return eta + 0.5 - s
    return g


def solve_morse_asymptotic(n_r, dc: DiracConstants, p: PotentialParams,
                           cfg: SolverConfig = SolverConfig()) -> EnergyLevel:
    """Deep-well asymptotic Morse level: eta(E) = s(E) - n_r - 1/2.

    Here s = Vt2/(2 alpha sqrt(Vt1)); the level exists only while
    s > n_r + 1/2 at the solution (eta > 0).
    """
    if p.q != 0.0:
        raise ParameterError(f"solve_morse_asymptotic requires q = 0, got q={p.q}")
    if n_r < 0:
        raise ParameterError(f"n_r must be non-negative, got {n_r}")
    levels = _crossing_levels(_morse_asymptotic_g(dc, p), dc, cfg,
                              METHOD_MORSE_ASYMPTOTIC, [n_r])
    if not levels:
        raise NoRootError(
            f"no asymptotic Morse level n_r={n_r}: the well supports fewer states"
        )
    return levels[0]


def morse_asymptotic_spectrum(dc: DiracConstants, p: PotentialParams,
                              cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """All deep-well asymptotic Morse levels n_r = 0, 1, ... (q = 0)."""
    if p.q != 0.0:
        raise ParameterError(f"morse_asymptotic_spectrum requires q = 0, got q={p.q}")
    return _crossing_levels(_morse_asymptotic_g(dc, p), dc, cfg, METHOD_MORSE_ASYMPTOTIC)


def spectrum(dc: DiracConstants, p: PotentialParams,
             cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """Full bound spectrum, dispatched on the deformation regime."""
    if p.q >= 1.0:
        return _crossing_levels(_closed_form_a(dc, p), dc, cfg, METHOD_Q_GE_1)
    if p.q > 0.0:
        return solve_q_lt_1(dc, p, cfg)
    return solve_morse_exact(dc, p, cfg)


def disputed_q_lt_1(dc: DiracConstants, p: PotentialParams,
                    cfg: SolverConfig = SolverConfig()) -> list[EnergyLevel]:
    """The disputed closed-form levels for 0 < q < 1.

    This applies the q >= 1 polynomial quantization below its domain of
    validity, for comparison only; it ignores the r = 0 boundary and its
    energies are generally wrong in this regime.
    """
    if not (0.0 < p.q < 1.0):
        raise ParameterError(f"disputed_q_lt_1 requires 0 < q < 1, got {p.q}")
    return _crossing_levels(_closed_form_a(dc, p), dc, cfg, "disputed-closed-form")
