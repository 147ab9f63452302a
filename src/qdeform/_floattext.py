"""Exact "%.15g" texts of float arrays, as byte matrices, for long table
exports; ``cli`` imports it only for a block that takes the array path.

``float_cells`` takes X = floor(log10 |x|) and y = |x| 10^(14 - X), the
product of |x| and 10^(14 - X) held as a double-double, with the error of
the product itself recovered by Dekker's split.  So y is known to about
1e-16, and its rounding to an integer N is the rounding of the exact binary
value that "%" makes, unless y lies within 1e-6 of a tie.  Such a cell is
formatted one at a time by the caller, and so is every cell whose N falls
outside [10^14, 10^15) (a carry, or a log10 one off), whose |x| lies
outside [1e-290, 1e290] but for +-0 (10^(14 - X) would leave the float
range), that is not finite, or whose X is 15 (its JSON repr is written
without an exponent).
"""

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=None)
def _digit_tables():
    """'%04d' % i for each i < 10000, as the bytes of one little-endian
    uint32, and the count of trailing zeros of that text."""
    i = np.arange(10000, dtype="<u4")
    zeros = np.zeros(10000, np.intp)
    for d in (10, 100, 1000, 10000):
        zeros += i % d == 0
    return sum((i // 10 ** (3 - j) % 10 + 48) << 8 * j for j in range(4)), zeros


@functools.lru_cache(maxsize=None)
def _pow10(k):
    """10**k as s (hi + lo): s a power of two and hi + lo a double-double
    in (1/2, 2), hi rounded to nearest and lo the rest, rounded; all by
    exact integer arithmetic."""
    p, q = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    e = p.bit_length() - q.bit_length()
    p, q = (p, q << e) if e >= 0 else (p << -e, q)
    hi = p / q
    num, den = hi.as_integer_ratio()
    return hi, (p * den - num * q) / (q * den), math.ldexp(1.0, e)


def _split(v):
    """v as hi + lo with at most 26 significant bits in each (Veltkamp's
    split; |v| < 1e300), so that the product of two halves is exact."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def float_cells(x, one_by_one):
    """The CSV and JSON texts of a float array, as byte matrices of 26
    bytes a cell: (bytes, CSV mask, JSON bytes, JSON mask).

    A finite x is N 10^(X - 14) to 15 digits, 10^14 <= N < 10^15.  Its
    bytes are laid out as "%.15g" lays it out: a sign byte; 20 bytes with
    the digits of N and a point, after digit X when 0 <= X < 15, after "0"
    and before -X - 1 zeros when -4 <= X < 0, and after the first digit
    otherwise; then "e", the sign and three digits of X.  The CSV mask
    keeps the sign of a negative x, drops trailing zeros and a point with
    no digit after it, and keeps "e" and two or three exponent digits
    outside -4 <= X < 15.  The JSON mask adds ".0" to an integral text, as
    the repr of the float it parses to has it.  The cells it cannot place
    exactly take the texts of ``one_by_one``, which maps a list of floats
    to the same four matrices.
    """
    m = x.size
    a = np.abs(x)
    fast = (a >= 1e-290) & (a <= 1e290)
    a = np.where(fast, a, 0.0)
    with np.errstate(divide="ignore"):
        ex = np.where(fast, np.floor(np.log10(a)), 0.0).astype(np.intp)
    # |X| <= 291, so 10^(14 - X) is entry X + 300 of each table
    row = ex + 300
    table = np.zeros((3, 601))
    for i in np.flatnonzero(np.bincount(row)).tolist():
        table[:, i] = _pow10(314 - i)
    hi, lo, scale = table
    hi1, hi2 = _split(hi)
    hi, lo, hi1, hi2, scale = (t.take(row) for t in (hi, lo, hi1, hi2, scale))
    a *= scale  # a power of two, so exact: y / (hi + lo) is near 1e14
    a1, a2 = _split(a)
    # y = |x| 10^(14 - X) = a (hi + lo) = p + err + a lo, p + err = a hi exactly
    p = a * hi
    err = ((a1 * hi1 - p) + a1 * hi2 + a2 * hi1) + a2 * hi2
    whole = np.floor(p)
    t = (p - whole) + (err + a * lo)
    up = np.floor(t)
    whole += up
    t -= up  # y - whole, in [0, 1]
    n = whole + (t > 0.5)
    ok = (fast & (whole >= 1e14) & (n < 1e15) & (np.abs(t - 0.5) > 1e-6) & (ex != 15)) | (x == 0)
    n[~ok] = 0.0

    quad, zeros = _digit_tables()
    # the four-digit groups of n; n < 2^53, so each quotient is exact
    q = np.floor(n / np.array([[1e12], [1e8], [1e4], [1.0]]))
    q[1:] -= 1e4 * q[:-1]
    q = q.astype(np.intp)
    # per row: "0000", the 16 digits of n (one leading zero), "00000000"
    z = np.full((m, 7), quad[0], "<u4")
    z[:, 1:5] = quad.take(q).T
    z = z.view(np.uint8)
    tz = zeros.take(q)
    last = 14 - (tz[3] + (q[3] == 0) * (tz[2] + (q[2] == 0) * (tz[1] + (q[1] == 0) * tz[0])))

    cells = np.empty((m, 26), np.uint8)
    cells[:, 0] = 45
    cells[:, 1] = z[:, 5]
    cells[:, 2] = 46
    cells[:, 3:21] = z[:, 6:24]
    # the point moves for each -4 <= X < 0 and 0 < X < 15 in the block
    for e in (np.flatnonzero(np.bincount(np.clip(ex, -5, 15) + 5)) - 5).tolist():
        if e in (-5, 0, 15):
            continue
        rows = np.flatnonzero(ex == e)
        if e < 0:
            cells[rows, 1] = 48
            cells[rows, 3:21] = z[rows, 6 + e:24 + e]
        else:
            cells[rows, 1:e + 2] = z[rows, 5:e + 6]
            cells[rows, e + 2] = 46
            cells[rows, e + 3:21] = z[rows, e + 6:24]
    fixed = (ex >= 0) & (ex < 15)
    small = (ex >= -4) & (ex < 0)
    cells[:, 22:] = quad.take(np.abs(ex)).view(np.uint8).reshape(m, 4)
    cells[:, 21] = np.where(fixed, 46, 101)
    cells[:, 22] = np.where(fixed, 48, np.where(ex < 0, 45, 43))

    # the kept digit bytes are a prefix of the 20: up to the point, or to
    # the place of the last nonzero digit
    dot = np.where(fixed, ex + 1, 1)
    place = last - np.where(small, ex, 0)
    place += place >= dot
    prefix = np.arange(20) < np.arange(21)[:, None]
    # suffix bytes kept: none, ".0", "e+XX", "e+XXX"
    suffix = np.array([[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 1, 0, 1, 1], [1, 1, 1, 1, 1]], bool)
    kind = np.where(fixed | small, 0, 2 + (np.abs(ex) >= 100))
    keep = np.empty((m, 26), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 1:21] = prefix.take(np.maximum(dot, place + 1), axis=0)
    keep[:, 21:] = suffix.take(kind, axis=0)
    json_keep = keep.copy()
    json_keep[:, 21:] = suffix.take(kind + (fixed & (place < dot)), axis=0)

    slow = np.flatnonzero(~ok)
    json_cells = cells
    if slow.size:
        json_cells = cells.copy()
        texts = one_by_one(x[slow].tolist())
        for out, mask, b, k in ((cells, keep, *texts[:2]), (json_cells, json_keep, *texts[2:])):
            out[slow, :b.shape[1]] = b
            mask[slow] = False
            mask[slow, :b.shape[1]] = k
    return cells, keep, json_cells, json_keep
