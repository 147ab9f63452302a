"""Checks of qdeform's outputs against computations made apart from it.

Nothing here imports qdeform.  The paper's effective quantities

    Et = E^2 - M^2 + C (M - E),   Vt_i = (M + E - C) V_i,
    eta = sqrt(-Et)/alpha,
    lambda = (1 + sqrt(1 + (4/alpha^2)(Vt1/q - Vt2/sqrt q)))/4,
    a, b = eta + lambda + (1 -+ sqrt(1 + (4/(alpha^2 q))(Vt1 + Vt2 sqrt q)))/4,
    c = 2 eta + 1,

are derived again below and evaluated in 30-digit mpmath arithmetic, and
the wavefunction certificates use their own quadrature and stencil.  A
check that fails raises ``Mismatch``.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

mp.mp.dps = 30

Q_GE_1 = "closed-form-q>=1"
Q_LT_1 = "transcendental-q<1"
MORSE = "morse-exact"
MORSE_ASYMPTOTIC = "morse-asymptotic"
DISPUTED = "disputed-closed-form"

BRACKET_TOLS = 10        # a level must bracket its root within +-10 tol_e
VERIFY_AGREEMENT = 1e-6  # |E_analytic - E_oracle| / M that verify promises
NORM_TOL = 1e-6
TAIL_TOL = 1e-8
RESIDUAL_TOL = 1e-4      # max |F'' - W F| / max |F| on the trusted points
DISPUTED_FACTOR = 1e3    # the disputed level misses the oracle by this much more


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


def need(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass(frozen=True)
class Well:
    """One config: the deformed well, the Dirac constants and tol_e."""

    v1: float
    v2: float
    alpha: float
    q: float
    m: float
    c: float
    tol_e: float

    @classmethod
    def from_config(cls, cfg):
        pot, dirac = cfg["potential"], cfg["dirac"]
        return cls(pot["v1"], pot["v2"], pot["alpha"], pot["q"], dirac["mass"],
                   dirac.get("c_spin", 0.0),
                   cfg.get("solver", {}).get("tol_e", 1e-10))

    def at_q(self, q):
        return replace(self, q=q)

    @property
    def method(self):
        """The quantization the paper prescribes for this regime of q."""
        if self.q >= 1.0:
            return Q_GE_1
        return Q_LT_1 if self.q > 0.0 else MORSE

    @property
    def r0(self):
        return math.log(self.q) / (2.0 * self.alpha) if self.q >= 1.0 else 0.0


def e_tilde(e, w):
    return e * e - w.m * w.m + w.c * (w.m - e)


def _effective(e, w):
    """(eta, Vt1, Vt2) at trial energy e, in mpmath."""
    e = mp.mpf(e)
    et = e_tilde(e, w)
    pref = w.m + e - w.c
    need(et < 0 and pref > 0, "E = %r lies outside the bound window" % float(e))
    return mp.sqrt(-et) / w.alpha, pref * w.v1, pref * w.v2


def abc(e, w):
    """Hypergeometric parameters (a, b, c) of the paper at trial energy e."""
    eta, v1t, v2t = _effective(e, w)
    sq = mp.sqrt(w.q)
    lam = (1 + mp.sqrt(1 + 4 / w.alpha ** 2 * (v1t / w.q - v2t / sq))) / 4
    root = mp.sqrt(1 + 4 / (w.alpha ** 2 * w.q) * (v1t + v2t * sq))
    return eta + lam + (1 - root) / 4, eta + lam + (1 + root) / 4, 2 * eta + 1


def quantization(method, e, n_r, w):
    """The function whose zero is level n_r, by the method the row names."""
    if method in (Q_GE_1, DISPUTED):
        return abc(e, w)[0] + n_r
    if method == Q_LT_1:
        a, b, c = abc(e, w)
        sq = mp.sqrt(w.q)
        return mp.hyp2f1(a, b, c, 4 * sq / (1 + sq) ** 2)
    eta, v1t, v2t = _effective(e, w)
    s = v2t / (2 * w.alpha * mp.sqrt(v1t))
    if method == MORSE:
        return mp.hyp1f1(mp.mpf(0.5) - s + eta, 2 * eta + 1,
                         4 * mp.sqrt(v1t) / w.alpha)
    need(method == MORSE_ASYMPTOTIC, "unknown method %r" % method)
    return eta + n_r + mp.mpf(0.5) - s


def check_level(method, n_r, e, w):
    """The quantization function changes sign within +-10 tol_e of e."""
    d = BRACKET_TOLS * w.tol_e * w.m
    lo = quantization(method, e - d, n_r, w)
    hi = quantization(method, e + d, n_r, w)
    need(lo * hi <= 0, "%s level n_r=%d at E=%r brackets no root within "
         "+-%g (f = %s, %s)" % (method, n_r, e, d, mp.nstr(lo, 5), mp.nstr(hi, 5)))


def closed_form_count(w):
    """Levels of a(E) = -n_r: a(E) > 0 at the bottom of the window, so level
    n exists exactly when -a reaches n at the top, E -> M."""
    a_top = abc(w.m * (1.0 - 1e-12), w)[0]
    return max(0, int(mp.ceil(-a_top)))


def check_labels(levels, w, count=None):
    """Labels run 0, 1, ... in order of rising energy, and none is missing."""
    need(levels, "no levels reported")
    need([n for n, _ in levels] == list(range(len(levels))),
         "labels %s are not 0..%d" % ([n for n, _ in levels], len(levels) - 1))
    energies = [e for _, e in levels]
    need(all(e1 < e2 for e1, e2 in zip(energies, energies[1:])),
         "energies do not rise with n_r: %s" % energies)
    if count is not None:
        need(len(levels) == count,
             "%d levels reported, the closed form has %d" % (len(levels), count))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    need(rows, "empty output")
    return rows[0], rows[1:]


def check_spectrum(text, w, show_disputed=False):
    """Returns ({n_r: E}, {n_r: E of the disputed rows})."""
    header, rows = parse_csv(text)
    need(header == ["n_r", "E", "E_tilde", "method"], "header %s" % header)
    found = {w.method: [], DISPUTED: []}
    for row in rows:
        n_r, e, et, method = int(row[0]), float(row[1]), float(row[2]), row[3]
        need(method == w.method or (show_disputed and method == DISPUTED),
             "method %r in the %s regime" % (method, w.method))
        need(abs(et - e_tilde(e, w)) <= 1e-12 * max(1.0, abs(et)),
             "E_tilde %r does not match E = %r" % (et, e))
        check_level(method, n_r, e, w)
        found[method].append((n_r, e))
    closed = w.method == Q_GE_1
    check_labels(found[w.method], w, closed_form_count(w) if closed else None)
    if show_disputed:
        check_labels(found[DISPUTED], w, closed_form_count(w))
    return dict(found[w.method]), dict(found[DISPUTED])


def check_verify(text, stderr, w):
    """Returns ({n_r: E_analytic}, {n_r: E_oracle})."""
    need("verify: OK" in stderr, "verify did not report agreement")
    header, rows = parse_csv(text)
    need(header == ["n_r", "E_analytic", "E_oracle", "abs_diff"], "header %s" % header)
    analytic, oracle = [], []
    for row in rows:
        n_r, ea, eo, diff = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        need(math.isfinite(eo), "the oracle has no level labelled n_r=%d" % n_r)
        need(abs(ea - eo) <= VERIFY_AGREEMENT * w.m,
             "n_r=%d: |E_analytic - E_oracle| = %g" % (n_r, abs(ea - eo)))
        need(abs(diff - abs(ea - eo)) <= 1e-15 + 1e-9 * diff,
             "n_r=%d: abs_diff %r is not |E_analytic - E_oracle|" % (n_r, diff))
        check_level(w.method, n_r, ea, w)
        analytic.append((n_r, ea))
        oracle.append((n_r, eo))
    check_labels(analytic, w, closed_form_count(w) if w.method == Q_GE_1 else None)
    check_labels(oracle, w)
    return dict(analytic), dict(oracle)


def check_disputed_claim(transcendental, disputed, oracle):
    """The paper's point: below q = 1 the closed form misses the true level
    by far more than the transcendental condition does, on some level."""
    ratios = [abs(disputed[n] - oracle[n]) / max(abs(transcendental[n] - oracle[n]), 1e-15)
              for n in oracle if n in disputed and n in transcendental]
    need(ratios and max(ratios) >= DISPUTED_FACTOR,
         "no disputed level misses the oracle by %gx the transcendental "
         "miss (ratios %s)" % (DISPUTED_FACTOR, ratios))


def check_morse_limit(text, q_list, w):
    header, rows = parse_csv(text)
    need(header == ["q", "n_r", "E", "method", "deviation_from_morse"], "header %s" % header)
    morse = w.at_q(0.0)
    by_q, exact, asym = {}, [], []
    for row in rows:
        q, n_r, e, method, dev = float(row[0]), int(row[1]), float(row[2]), row[3], float(row[4])
        if q > 0.0:
            need(method == Q_LT_1, "method %r at q = %r" % (method, q))
            check_level(method, n_r, e, w.at_q(q))
            by_q.setdefault(q, []).append((n_r, e, dev))
        else:
            need(method in (MORSE, MORSE_ASYMPTOTIC), "method %r at q = 0" % method)
            check_level(method, n_r, e, morse)
            (exact if method == MORSE else asym).append((n_r, e, dev))
    need(list(by_q) == q_list, "q values %s, asked for %s" % (list(by_q), q_list))
    check_labels([(n, e) for n, e, _ in exact], morse)
    e_morse = {n: e for n, e, _ in exact}
    for rows_q in list(by_q.values()) + [asym]:
        check_labels([(n, e) for n, e, _ in rows_q], morse)
        for n_r, e, dev in rows_q:
            need(abs(dev - abs(e - e_morse[n_r])) <= 1e-14 + 1e-9 * dev,
                 "deviation %r of n_r=%d is not |E - E_morse|" % (dev, n_r))
    for n_r in e_morse:
        devs = [dev for q in q_list for n, _, dev in by_q[q] if n == n_r]
        need(all(d2 < d1 for d1, d2 in zip(devs, devs[1:])),
             "n_r=%d: deviations %s do not shrink as q falls" % (n_r, devs))
    return len(rows)


def potential(r, w):
    """(V1 - V2 cosh_q(alpha r)) / sinh_q(alpha r)^2, or the Morse well at
    q = 0, with e^{2 alpha r} divided out of both sides so nothing overflows."""
    e = np.exp(-w.alpha * r)
    if w.q == 0.0:
        return 4.0 * w.v1 * e * e - 2.0 * w.v2 * e
    return (4.0 * w.v1 * e * e - 2.0 * w.v2 * (e + w.q * e ** 3)) / (1.0 - w.q * e * e) ** 2


def simpson(y, h):
    """Composite Simpson rule on a uniform grid; the trapezoid takes the
    last interval when the number of intervals is odd."""
    n = len(y) - 1
    m = n - n % 2
    s = h / 3.0 * (y[0] + 4.0 * y[1:m:2].sum() + 2.0 * y[2:m - 1:2].sum() + y[m])
    if m < n:
        s += 0.5 * h * (y[-2] + y[-1])
    return float(s)


def load_table(csv_path, json_path):
    """The CSV as an array, after checking that the JSON mirror equals it."""
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    with open(json_path) as fh:
        mirror = json.load(fh)
    need(mirror["columns"] == header, "JSON columns %s, CSV %s" % (mirror["columns"], header))
    from_json = np.array([[rec[c] for c in header] for rec in mirror["rows"]], dtype=float)
    need(from_json.shape == data.shape and np.array_equal(from_json, data),
         "the JSON mirror differs from the CSV")
    return header, data


def check_wavefunction(csv_path, json_path, n_r, e, w):
    header, data = load_table(csv_path, json_path)
    need(header == ["r", "F", "G", "potential_value"], "header %s" % header)
    r, f, g, v = data.T
    h = (r[-1] - r[0]) / (len(r) - 1)
    need(len(r) >= 101 and r[0] > w.r0 and np.allclose(np.diff(r), h, rtol=1e-6, atol=0),
         "the radial grid is not uniform on r > r0")
    v_own = potential(r, w)
    # away from the wall's cancellation and from the underflow of the tail
    away = (r > w.r0 + 1e-3 / w.alpha) & (np.abs(v_own) > 1e-200)
    need(np.allclose(v[away], v_own[away], rtol=1e-9, atol=0),
         "potential_value differs from the deformed well")

    norm = simpson(f * f + g * g, h)
    need(abs(norm - 1.0) <= NORM_TOL, "norm %r, not 1" % norm)
    peak = np.max(np.abs(f))
    signs = np.sign(f[np.abs(f) > 1e-6 * peak])
    nodes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    need(nodes == n_r, "%d nodes for n_r=%d" % (nodes, n_r))
    need(abs(f[-1]) <= TAIL_TOL * peak and abs(g[-1]) <= TAIL_TOL * np.max(np.abs(g)),
         "the tail has not decayed: F(r_end) = %r, G(r_end) = %r" % (f[-1], g[-1]))

    # F'' = W F with W = (M + E - C) V - Et, by the 5-point stencil, on the
    # points where the step resolves W
    fpp = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (12.0 * h * h)
    w_r = (w.m + e - w.c) * v_own[2:-2] - e_tilde(e, w)
    trusted = h * h * np.abs(w_r) / 12.0 < 1e-3
    need(np.count_nonzero(trusted) > len(r) // 2, "the grid resolves too few points")
    resid = float(np.max(np.abs(fpp - w_r * f[2:-2])[trusted]) / peak)
    need(resid <= RESIDUAL_TOL, "ODE residual %g" % resid)
    return len(r)
