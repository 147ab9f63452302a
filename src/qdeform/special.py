"""Analytic kernels: log-gamma, Gauss 2F1, Kummer 1F1, Jacobi polynomials.

All evaluators are real-argument, double precision and array-first: the
parameters and the argument broadcast together, and scalar inputs return a
float.  Every element picks its own branch by mask: a terminating
polynomial (redone in exact rational arithmetic where it cancels), the
direct series, the Pfaff transform for z < -1/2, the 1-z connection formula
for z > 1/2 with an Euler-transform fallback when it degenerates (c-a-b
near an integer), and Kummer reflection for negative 1F1 arguments.  The
series are summed with compensated (Kahan) accumulation, each element until
its own terms stop mattering.  Only the large-argument 1F1 asymptotic
(|z| > 500) runs one element at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonConvergenceError, ParameterError

__all__ = [
    "gauss_2f1",
    "kummer_1f1",
    "jacobi_p",
    "confluent_limit_residual",
]

_MAX_TERMS = 100_000
_DEGENERATE_TOL = 1e-6
_KUMMER_ASYM_Z = 500.0


def _gamma_sign_log(x):
    """Sign and log|Gamma(x)| of each element of x, with sign 0 and log +inf
    at the poles x = 0, -1, -2, ...; NaN gives NaN."""
    x = np.asarray(x, dtype=float)
    floor = np.floor(x)
    pole = (x <= 0.0) & (x == floor)
    with np.errstate(invalid="ignore"):  # floor(inf) % 2
        sign = np.where(x > 0.0, 1.0, np.where(pole, 0.0, 1.0 - 2.0 * (floor % 2.0)))
    log = np.fromiter(map(math.lgamma, np.where(pole, 1.0, x).ravel().tolist()),
                      float, x.size).reshape(x.shape)
    return sign, np.where(pole, np.inf, log)


def _nonpos_int_degree(x):
    """n = -x where x is a non-positive integer, NaN elsewhere."""
    return np.where((x <= 0.0) & (x == np.round(x)), -np.round(x), np.nan)


def _safe_exp(L):
    """exp(L), +inf past the float range without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(L)


def _kahan_series(num, c, z, nterms=None):
    """Sum a hypergeometric-type series with term recurrence.

    The ratio of consecutive terms is z prod_i (num_i + k) / ((c + k)(k + 1)).
    The parameters, z and ``nterms`` broadcast together.  Where ``nterms``
    is finite the sum is the exact truncation after that many post-leading
    terms (terminating series); elsewhere an element stops once its term
    has been below 1e-16 of its running sum for 3 consecutive terms.  Each
    element is summed as if alone, so an array call gives the scalar calls'
    values.  Returns the sum and the sum of |terms| (a cancellation gauge).
    """
    cols = np.broadcast_arrays(z, np.inf if nterms is None else nterms, c, *num)
    shape = cols[0].shape
    z, limit, c, *num = [np.array(col, dtype=float).reshape(-1) for col in cols]
    out = np.ones(z.size)
    out_mag = np.ones(z.size)
    live = np.nonzero(limit > 0)[0]
    cols = [z[live], limit[live], c[live], *(p[live] for p in num)]
    term, s, mag = np.ones(live.size), np.ones(live.size), np.ones(live.size)
    comp, small = np.zeros(live.size), np.zeros(live.size, dtype=np.int64)
    k = 0
    while live.size:
        if k == _MAX_TERMS:
            raise NonConvergenceError(
                f"hypergeometric series did not converge in {_MAX_TERMS} terms"
            )
        z, limit, c, *num = cols
        ratio = num[0] + k
        for p in num[1:]:
            ratio = ratio * (p + k)
        term = term * (ratio / ((c + k) * (k + 1.0)) * z)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        mag = mag + np.abs(term)
        k += 1
        small = np.where(np.abs(term) <= 1e-16 * np.abs(s), small + 1, 0)
        done = np.where(np.isfinite(limit), k >= limit, small >= 3)
        if done.any():
            out[live[done]] = s[done]
            out_mag[live[done]] = mag[done]
            keep = ~done
            live, term, s, mag, comp, small = (
                x[keep] for x in (live, term, s, mag, comp, small))
            cols = [x[keep] for x in cols]
    return out.reshape(shape), out_mag.reshape(shape)


def _series_2f1(a, b, c, z):
    return _kahan_series((a, b), c, z)[0]


def _series_1f1(a, c, z, nterms=None):
    return _kahan_series((a,), c, z, nterms)[0]


def _terminating_2f1_exact(a, b, c, z, n):
    """Degree-n terminating 2F1 in exact rational arithmetic.

    Floats convert to Fractions exactly, so the only rounding is the final
    cast back; used to rescue points lost to alternating-sum cancellation.
    """
    aF, bF, cF, zF = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    total = Fraction(1)
    term = Fraction(1)
    for k in range(n):
        term *= (aF + k) * (bF + k) * zF
        term /= (cF + k) * (k + 1)
        total += term
    return float(total)


def _terminating_2f1(a, b, c, z, n):
    """Degree-n terminating 2F1; where the alternating polynomial cancels
    more than ~3 digits the element is redone in exact rational arithmetic."""
    s, mag = _kahan_series((a, b), c, z, n)
    for i in np.nonzero((n >= 2) & (np.abs(s) < 1e-3 * mag))[0]:
        s[i] = _terminating_2f1_exact(a[i], b[i], c[i], z[i], int(n[i]))
    return s


def _reject_poles(n, c, name):
    """Raise where a non-positive integer c is reached by the series of
    degree n (NaN: non-terminating)."""
    nc = _nonpos_int_degree(c)
    pole = ~np.isnan(nc) & (np.isnan(n) | (n > nc))
    if pole.any():
        raise ParameterError(
            f"{name} pole: c={c[pole][0]} is a non-positive integer reached by the series"
        )


def _gamma_ratio_sign_log(num, den):
    """sign and log-magnitude of prod Gamma(num_i) / prod Gamma(den_i)."""
    sign = np.ones_like(num[0])
    L = np.zeros_like(num[0])
    for x in num:
        s, log = _gamma_sign_log(x)
        sign, L = sign * s, L + log
    for x in den:
        s, log = _gamma_sign_log(x)
        sign, L = sign * s, L - log
    # a pole in the denominator kills the whole term
    return sign, np.where(sign == 0.0, -np.inf, L)


def _connection_2f1(a, b, c, z):
    """2F1 for 1/2 < z < 1 by the 1-z connection formula (c-a-b = m not an
    integer): two series in w = 1-z with Gamma-ratio weights in log form."""
    w = 1.0 - z
    m = c - a - b
    s1, L1 = _gamma_ratio_sign_log((c, m), (c - a, c - b))
    s2, L2 = _gamma_ratio_sign_log((c, -m), (a, b))
    f1 = _series_2f1(a, b, 1.0 - m, w)
    f2 = _series_2f1(c - a, c - b, 1.0 + m, w)
    ew = _safe_exp(L2 + m * np.log(w))
    with np.errstate(invalid="ignore"):
        t2 = np.where(np.isinf(ew), np.sign(s2 * f2) * np.inf, s2 * ew * f2)
    return s1 * _safe_exp(L1) * f1 + t2


def _broadcast(*xs):
    """The shape the inputs broadcast to, and each input flattened to it."""
    xs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))
    return xs[0].shape, [x.reshape(-1) for x in xs]


def _result(out, shape):
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real arguments.

    a, b, c and z broadcast together; scalar inputs return a float.  Each
    element needs |z| < 1 unless its series terminates.
    """
    shape, (a, b, c, z) = _broadcast(a, b, c, z)
    n = np.fmin(_nonpos_int_degree(a), _nonpos_int_degree(b))
    _reject_poles(n, c, "2F1")
    poly = ~np.isnan(n)
    if np.any(np.abs(z[~poly]) >= 1.0):
        raise DomainError("non-terminating 2F1 requires |z| < 1")
    m = c - a - b
    upper = ~poly & (z > 0.5)
    euler = upper & (np.abs(m - np.round(m)) < _DEGENERATE_TOL)
    out = np.empty(z.shape)
    for mask, fn in (
        (poly, lambda a, b, c, z: _terminating_2f1(a, b, c, z, n[poly])),
        (~poly & (np.abs(z) <= 0.5), _series_2f1),
        # Pfaff transform maps z in (-1, -1/2) to w in (1/3, 1/2)
        (~poly & (z < -0.5), lambda a, b, c, z:
         (1.0 - z) ** (-a) * _series_2f1(a, c - b, c, z / (z - 1.0))),
        # Euler fallback: still a |z|<1 series, just slower near z=1
        (euler, lambda a, b, c, z:
         (1.0 - z) ** (c - a - b) * _series_2f1(c - a, c - b, c, z)),
        (upper & ~euler, _connection_2f1),
    ):
        if mask.any():
            out[mask] = fn(a[mask], b[mask], c[mask], z[mask])
    return _result(out, shape)


def _kummer_asym(a, c, z):
    """Large-z > 0 dominant branch of 1F1 as (smooth_factor, log_magnitude).

    The value is smooth_factor * exp(log_magnitude); the smooth factor
    1/Gamma(a) carries the sign and the zero crossings at a = -n, which is
    what root bracketing needs.  Accurate for z >> |a|, |c|.
    """
    s = 1.0
    total = 1.0
    kmax = max(4, min(40, int(z) - 1))
    prev = abs(s)
    for k in range(kmax):
        s *= (c - a + k) * (1.0 - a + k) / ((k + 1.0) * z)
        if abs(s) > prev:  # asymptotic series: stop at the smallest term
            break
        prev = abs(s)
        total += s
    sign_c, log_c = _gamma_sign_log(c)
    sign_a, log_a = _gamma_sign_log(a)
    L = z + (a - c) * math.log(z) + float(log_c)
    return float(sign_c * sign_a * _safe_exp(-log_a)) * total, L


def _kummer_asym_each(a, c, z, shift):
    """smooth * exp(L + shift) from ``_kummer_asym``, one element at a time."""
    out = np.empty(z.shape)
    for i in range(z.size):
        smooth, L = _kummer_asym(float(a[i]), float(c[i]), float(z[i]))
        out[i] = smooth * _safe_exp(L + shift[i])
    return out


def kummer_1f1(a, c, z):
    """Confluent hypergeometric 1F1(a; c; z) for real arguments.

    a, c and z broadcast together; scalar inputs return a float.  Direct
    compensated series for moderate z, Kummer reflection for z < 0.  For
    |z| > 500 the dominant asymptotic branch is used; there the magnitude
    saturates at the float range but signs and zero locations (a near -n)
    remain faithful, which is all the quantization root-finders require.
    """
    shape, (a, c, z) = _broadcast(a, c, z)
    n = _nonpos_int_degree(a)
    _reject_poles(n, c, "1F1")
    poly = ~np.isnan(n)
    small = np.abs(z) <= _KUMMER_ASYM_Z
    out = np.empty(z.shape)
    for mask, fn in (
        (poly, lambda a, c, z: _series_1f1(a, c, z, n[poly])),
        (~poly & small & (z >= 0.0), _series_1f1),
        # Kummer reflection 1F1(a,c;z) = e^z 1F1(c-a,c;-z): the direct
        # alternating series cancels catastrophically already at z ~ -20,
        # while the reflected series has (eventually) single-signed terms.
        (~poly & small & (z < 0.0), lambda a, c, z:
         np.exp(z) * _series_1f1(c - a, c, -z)),
        (~poly & ~small & (z > 0.0), lambda a, c, z:
         _kummer_asym_each(a, c, z, np.zeros_like(z))),
        (~poly & ~small & (z < 0.0), lambda a, c, z:
         _kummer_asym_each(c - a, c, -z, z)),
    ):
        if mask.any():
            out[mask] = fn(a[mask], c[mask], z[mask])
    return _result(out, shape)


def jacobi_p(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha, beta)(x) by the three-term recurrence.

    Requires n >= 0 and alpha, beta > -1; x may be a scalar or array.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a non-negative integer, got {n}")
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError("jacobi_p requires alpha, beta > -1")
    n = int(n)
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        s = k + alpha + beta
        c1 = 2.0 * k * s * (2.0 * k + alpha + beta - 2.0)
        c2 = (2.0 * k + alpha + beta - 1.0) * (
            (2.0 * k + alpha + beta) * (2.0 * k + alpha + beta - 2.0) * x
            + alpha * alpha - beta * beta
        )
        c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p, p_prev = (c2 * p - c3 * p_prev) / c1, p
    return p if p.ndim else float(p)


def confluent_limit_residual(alpha, gamma, z, beta) -> float:
    """|2F1(alpha, beta, gamma; z/beta) - 1F1(alpha, gamma; z)|.

    Diagnostic for the confluent limit; decreases toward 0 as beta grows.
    """
    if beta <= 0.0 or abs(z / beta) >= 1.0:
        raise DomainError("need beta > 0 with |z/beta| < 1")
    return abs(gauss_2f1(alpha, beta, gamma, z / beta) - kummer_1f1(alpha, gamma, z))
