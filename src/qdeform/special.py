"""Analytic kernels: Gauss 2F1, Kummer 1F1 and Jacobi polynomials.

All evaluators are real-argument, double precision and array-first: the
parameters and the argument broadcast together, and scalar inputs return a
float.  Each kernel has one dispatch, one row per evaluation method, and
every element picks its row by mask.  The domain is what the solvers pass:
every element needs c > 0, and one whose series does not terminate needs
0 <= z < 1 (2F1) or z >= 0 (1F1); anything else raises DomainError.  In
both, an element whose series terminates (a, or b for 2F1, a non-positive
integer) is a polynomial at any finite z, summed exactly and rounded once.
The rest of 2F1 has two rows: the direct series (z <= 1/2, and z > 1/2
where c-a-b is an exact integer) and the 1-z connection formula for the
rest of z > 1/2.  The rest of 1F1 is the series, at any z.  The series are
summed with compensated (Kahan) accumulation and an exact power-of-two
scale, each element until its own terms stop mattering; a NaN or infinite
input raises.  A pass sums a block of up to 16 terms for every element
still summing, fewer when the array is long, and does the same arithmetic
in the same order as one term per pass: a value does not depend on the
block length, nor on the other elements of its call.  A value past the
float range is +-inf, without a warning.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "gauss_2f1",
    "kummer_1f1",
    "jacobi_p",
]

_MAX_TERMS = 100_000
_RESCALE = 600  # a running sum past 2**_RESCALE is multiplied by 2**-_RESCALE
_BIG, _SHRINK = 2.0 ** _RESCALE, 2.0 ** -_RESCALE
_BLOCK_CELLS = 4096  # terms x elements in one block of _kahan_series


def _libm(fn, x):
    """fn (a math function) of each element of the array x, as the C library
    computes it: numpy has no lgamma, and its log can differ in the last bit."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _gamma_sign_log(x):
    """Sign and log|Gamma(x)| of each element of x, with sign 0 and log +inf
    at the poles x = 0, -1, -2, ...; NaN gives NaN."""
    x = np.asarray(x, dtype=float)
    floor = np.floor(x)
    pole = (x <= 0.0) & (x == floor)
    with np.errstate(invalid="ignore"):  # floor(inf) % 2
        sign = np.where(x > 0.0, 1.0, np.where(pole, 0.0, 1.0 - 2.0 * (floor % 2.0)))
    return sign, np.where(pole, np.inf, _libm(math.lgamma, np.where(pole, 1.0, x)))


def _nonpos_int_degree(x):
    """n = -x where x is a non-positive integer, NaN elsewhere."""
    return np.where((x <= 0.0) & (x == np.round(x)), -np.round(x), np.nan)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum raises, ldexp gives +-inf
def _kahan_series(num, c, z):
    """Sum a non-terminating hypergeometric-type series by term recurrence.

    The ratio of consecutive terms is z prod_i (num_i + k) / ((c + k)(k + 1)).
    The parameters and z are 1-d arrays of one length.  An element stops
    once its term has been below 1e-16 of its running sum for 3 consecutive
    terms (a transformed series that happens to terminate stops on its zero
    terms), and its sum is read at that term.  At a check (every 32 terms,
    and where an element stops), a running sum past 2**_RESCALE has its
    term, sum and compensation multiplied by 2**-_RESCALE, exactly, and its
    exponent raised by _RESCALE; an element returns ldexp(sum, exponent),
    +-inf past the float range.  A sum that is not finite at a check (a NaN
    or infinite input, or growth by 2**(1024 - _RESCALE) between two
    checks) raises NonConvergenceError, before its element stops.

    A pass sums the next n terms of every live element as an (n, live)
    block: the ratios come from one broadcast expression in k, the terms
    from a running product down the block with the last term folded into
    row 0, and the compensated sums row by row.  These are the products and
    sums of one term per pass, in the same order, so every term and sum,
    the term each element stops at and the term a raise names are the same
    to the bit whatever n is, and an array call gives its elements' scalar
    values.  n is the largest power of two up to 16 with
    n * live <= _BLOCK_CELLS: a long array is summed a term per pass, with
    temporaries no larger than that needs, and a short one 16 at a time.
    n divides k, 32 and _MAX_TERMS, so no block straddles a check.
    """
    cols = [z, c, *num]
    out = np.ones(z.size)
    live = np.arange(z.size)
    term, s, comp = np.ones(z.size), np.ones(z.size), np.zeros(z.size)
    exponent = np.zeros(z.size, dtype=np.int32)
    # were the last two terms small?  (False before the first term)
    small2, small1 = np.zeros(z.size, dtype=bool), np.zeros(z.size, dtype=bool)
    k = 0
    while live.size:
        if k == _MAX_TERMS:
            raise NonConvergenceError(
                f"hypergeometric series did not converge in {_MAX_TERMS} terms"
            )
        n = 16
        while n > 1 and (n * live.size > _BLOCK_CELLS or k % n):
            n //= 2
        z, c, *num = cols
        kk = np.arange(k, k + n, dtype=float)[:, None]
        terms = num[0] + kk
        for p in num[1:]:
            terms *= p + kk
        den = c + kk
        den *= kk + 1.0
        terms /= den
        terms *= z
        terms[0] *= term
        # one row is its own running product, which accumulate would copy
        # column by column
        if n > 1:
            terms = np.multiply.accumulate(terms, axis=0)
        sums, y = np.empty_like(terms), den[0]
        for j in range(n):
            np.subtract(terms[j], comp, out=y)
            t = np.add(s, y, out=sums[j])
            np.subtract(t, s, out=comp)
            comp -= y
            s = t
        tiny = np.abs(sums, out=den)
        tiny *= 1e-16
        rows = np.empty((n + 2, live.size), dtype=bool)
        rows[0], rows[1] = small2, small1
        np.less_equal(np.abs(terms), tiny, out=rows[2:])
        del den, y, tiny  # one work array, freed before the copies below
        # done[j]: terms j-2, j-1 and j of the block are all small
        done = rows[2:] & rows[1:-1]
        done &= rows[:-2]
        hit = done.any(axis=0)
        stops = hit.any()
        k += n
        # a sum out of the float range stays out, so the last row shows it; NaN fails both
        big = (stops or k % 32 == 0) and not (-_BIG <= s.min() and s.max() <= _BIG)
        if big and not np.isfinite(s).all():
            live_at = np.ones_like(done)  # not stopped before the row
            live_at[1:] = ~np.logical_or.accumulate(done, axis=0)[:-1]
            # the rows the sums are checked at: where an element stops, and
            # every 32nd term
            checked = (done & live_at).any(axis=1)
            checked[-1] |= k % 32 == 0
            bad = checked & (live_at & ~np.isfinite(sums)).any(axis=1)
            if bad.any():
                raise NonConvergenceError(
                    f"hypergeometric series sum is not finite after "
                    f"{k - n + 1 + bad.argmax()} terms")
        term, small2, small1 = terms[-1], rows[-2], rows[-1]
        if stops:
            at = np.flatnonzero(hit)
            out[live[at]] = np.ldexp(sums[done[:, at].argmax(axis=0), at], exponent[at])
            keep = ~hit
            live, term, s, comp, small2, small1, exponent = (
                x[keep] for x in (live, term, s, comp, small2, small1, exponent))
            cols = [x[keep] for x in cols]
        if big:  # in place, on the elements still summing
            at = np.flatnonzero(np.abs(s) > _BIG)
            for x in (term, s, comp):
                x[at] *= _SHRINK
            exponent[at] += _RESCALE
    return out


def _terminating_exact(num, c, z, n):
    """The degree-n polynomial series with numerator parameters ``num``
    ((a,) for 1F1, (a, b) for 2F1), each element summed exactly and rounded
    once, correctly.

    Every float is an exact ratio of integers, so Horner's rule
    s <- 1 + s z prod_i (num_i + k) / ((c + k)(k + 1)), from k = n - 1 down
    to 0, runs on an integer numerator and denominator.  A sum past the
    float range is +-inf; a non-finite input has no exact value and raises.
    """
    if not all(np.isfinite(x).all() for x in (c, z, *num)):
        raise DomainError("a terminating series needs finite parameters and z")
    if np.any(n > _MAX_TERMS):
        raise NonConvergenceError(
            f"a terminating series of degree {int(np.max(n))} exceeds {_MAX_TERMS} terms")
    out = np.empty(z.size)
    cols = [map(float.as_integer_ratio, x.tolist()) for x in (c, z, *num)]
    for i, ((pc, qc), (pz, qz), *ps) in enumerate(zip(*cols)):
        top = bottom = 1
        for k in range(int(n[i]) - 1, -1, -1):
            up, down = pz * qc, qz * (pc + k * qc) * (k + 1)
            for p, q in ps:
                up, down = up * (p + k * q), down * q
            top, bottom = bottom * down + top * up, bottom * down
        try:
            out[i] = top / bottom if top else 0.0  # int / int rounds correctly
        except OverflowError:
            out[i] = math.inf if (top > 0) == (bottom > 0) else -math.inf
    return out


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
    f1 = _kahan_series((a, b), 1.0 - m, w)
    f2 = _kahan_series((c - a, c - b), 1.0 + m, w)
    with np.errstate(invalid="ignore", over="ignore"):  # past the float range: +-inf
        out = s1 * np.exp(L1) * f1 + s2 * np.exp(L2 + m * np.log(w)) * f2
    bad = np.flatnonzero(np.isnan(out))  # 0 * inf, or inf - inf
    if len(bad):
        i = bad[0]
        raise NonConvergenceError(
            f"the 1-z connection formula of 2F1({a[i]}, {b[i]}; {c[i]}; {z[i]}) is NaN")
    return out


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
    element needs c > 0, and 0 <= z < 1 unless its series terminates.
    """
    shape, (a, b, c, z) = _broadcast(a, b, c, z)
    n = np.fmin(_nonpos_int_degree(a), _nonpos_int_degree(b))
    poly = ~np.isnan(n)
    if not (np.all(c > 0.0) and np.all(poly | ((z >= 0.0) & (z < 1.0)))):  # NaN fails
        raise DomainError("2F1 requires c > 0, and 0 <= z < 1 unless the series terminates")
    m = c - a - b
    # at an exact integer m the connection formula is undefined, and the
    # direct series still converges for z < 1
    series = ~poly & ((z <= 0.5) | (m == np.round(m)))
    out = np.empty(z.shape)
    for mask, fn in (
        (poly, lambda a, b, c, z: _terminating_exact((a, b), c, z, n[poly])),
        (series, lambda a, b, c, z: _kahan_series((a, b), c, z)),
        (~poly & ~series, _connection_2f1),
    ):
        if mask.any():
            out[mask] = fn(a[mask], b[mask], c[mask], z[mask])
    return _result(out, shape)


def kummer_1f1(a, c, z):
    """Confluent hypergeometric 1F1(a; c; z) for real arguments.

    a, c and z broadcast together; scalar inputs return a float.  Each
    element needs c > 0, and z >= 0 unless it is a polynomial (a = -n),
    which is summed exactly.  Every other element is the compensated
    series, at any z; a value past the float range is +-inf.
    """
    shape, (a, c, z) = _broadcast(a, c, z)
    n = _nonpos_int_degree(a)
    poly = ~np.isnan(n)
    if not (np.all(c > 0.0) and np.all(poly | (z >= 0.0))):  # NaN fails
        raise DomainError("1F1 requires c > 0, and z >= 0 unless a = -n")
    out = np.empty(z.shape)
    for mask, fn in (
        (poly, lambda a, c, z: _terminating_exact((a,), c, z, n[poly])),
        (~poly, lambda a, c, z: _kahan_series((a,), c, z)),
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
