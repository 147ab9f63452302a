"""Hypergeometric kernels against extended-precision references."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, gammasgn

from qdeform import (
    DiracConstants,
    DomainError,
    NonConvergenceError,
    PotentialParams,
    abc_params,
    bound_window,
    gauss_2f1,
    jacobi_p,
    kummer_1f1,
    special,
)

mpmath.mp.dps = 50


def confluent_limit_residual(alpha, gamma, z, beta):
    """|2F1(alpha, beta, gamma; z/beta) - 1F1(alpha, gamma; z)|, which falls
    toward 0 as beta grows (the confluent limit)."""
    return abs(gauss_2f1(alpha, beta, gamma, z / beta) - kummer_1f1(alpha, gamma, z))


def mp_2f1(a, b, c, z):
    return float(mpmath.hyp2f1(a, b, c, z))


def mp_1f1(a, c, z):
    return float(mpmath.hyp1f1(a, c, z))


class TestGammaSignLog:
    def test_matches_scipy_away_from_poles(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([rng.uniform(-40.0, 40.0, 2000),
                            rng.uniform(1e-8, 1.0, 200), [0.5, 1.0, 2.0, 171.0, 1e5]])
        x = x[(x > 0.0) | (np.abs(x - np.round(x)) > 1e-9)]
        sign, log = special._gamma_sign_log(x)
        np.testing.assert_array_equal(sign, gammasgn(x))
        np.testing.assert_allclose(log, gammaln(x), rtol=1e-13, atol=1e-13)

    def test_poles_have_sign_zero(self):
        poles = np.array([0.0, -1.0, -2.0, -7.0, -60.0])
        sign, log = special._gamma_sign_log(poles)
        np.testing.assert_array_equal(sign, 0.0)
        np.testing.assert_array_equal(log, np.inf)

    def test_scalar_keeps_shape(self):
        sign, log = special._gamma_sign_log(-0.5)
        assert sign.shape == log.shape == ()
        assert float(sign) == -1.0
        assert float(log) == pytest.approx(math.log(2.0 * math.sqrt(math.pi)), rel=1e-14)


class TestGauss2F1:
    def test_trivial(self):
        assert gauss_2f1(0.3, 4.1, 2.2, 0.0) == 1.0
        # a=1, b=c collapses to the geometric series
        assert gauss_2f1(1.0, 2.0, 2.0, 0.4) == pytest.approx(5.0 / 3.0,
                                                              rel=1e-14)

    @pytest.mark.parametrize("z", [1.0, -1.5, math.nan, -0.3, -0.8, -1.0, -35.0])
    def test_non_terminating_needs_z_inside_the_unit_disc(self, z):
        # 2F1 takes 0 <= z < 1 and 1F1 z >= 0, the arguments the solvers
        # pass, unless the series terminates
        with pytest.raises(DomainError):
            gauss_2f1(0.3, 0.4, 1.2, np.array([0.2, z]))
        if not z >= 0.0:
            with pytest.raises(DomainError):
                kummer_1f1(0.3, 1.2, np.array([0.2, z]))

    def test_terminating_high_z(self):
        # degree-3 polynomial, z = 0.9 outside the direct-series zone
        ref = mp_2f1(-3, 2.7, 1.4, 0.9)
        assert gauss_2f1(-3.0, 2.7, 1.4, 0.9) == pytest.approx(ref, rel=1e-12)

    def test_direct_series_region(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            a, b = rng.uniform(-3.0, 4.0, size=2)
            c = rng.uniform(0.3, 5.0)
            z = rng.uniform(0.0, 0.5)
            ref = mp_2f1(a, b, c, z)
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10,
                                                          abs=1e-12)

    def test_connection_region(self):
        # z > 1/2 requires the 1-z transformation path
        rng = np.random.default_rng(13)
        for _ in range(150):
            a, b = rng.uniform(-2.0, 3.0, size=2)
            c = rng.uniform(0.5, 6.0)
            z = rng.uniform(0.55, 0.99)
            ref = mp_2f1(a, b, c, z)
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-9,
                                                          abs=1e-12)

    def test_pochhammer_consistency(self):
        # terminating series vs brute-force extended-precision sum
        rng = np.random.default_rng(19)
        for _ in range(80):
            n = int(rng.integers(0, 21))
            b = rng.uniform(0.2, 6.0)
            c = rng.uniform(0.3, 6.0)
            z = rng.uniform(0.0, 1.0)
            with mpmath.workdps(60):
                total = mpmath.mpf(0)
                for k in range(n + 1):
                    total += (mpmath.rf(-n, k) * mpmath.rf(b, k)
                              / (mpmath.rf(c, k) * mpmath.factorial(k))
                              * mpmath.mpf(z) ** k)
            assert gauss_2f1(-float(n), b, c, z) == pytest.approx(
                float(total), rel=1e-12, abs=1e-13)

    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
           c=st.floats(0.5, 5.0), z=st.floats(0.0, 0.45))
    @settings(max_examples=120, deadline=None)
    def test_euler_transformation(self, a, b, c, z):
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_gauss_value_at_unity(self):
        # c - a - b > 0: limit z -> 1- equals the Gauss ratio of gammas
        a, b, c = 0.7, 0.4, 2.9
        ref = math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                       - math.lgamma(c - a) - math.lgamma(c - b))
        assert gauss_2f1(a, b, c, 1.0 - 1e-12) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("a, b, c, z, expected", [
        (3.7, 0.4, 0.7, 0.8, 108.92064398746075),
        (4.5, 0.25, 1.5, 0.9, 115.23885676841527),
    ])
    def test_connection_with_denominator_pole(self, a, b, c, z, expected):
        # c - a = -3: Gamma(c - a) in a denominator has a pole, so the
        # first term of the 1-z connection formula vanishes
        ref = mp_2f1(a, b, c, z)
        assert ref == pytest.approx(expected, rel=1e-14)
        assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-12)

    def test_degenerate_difference_path(self):
        # c - a - b an exact integer must still evaluate correctly
        for a, b, z in ((0.3, 0.7, 0.8), (1.2, 0.8, 0.7), (0.5, 0.5, 0.95)):
            c = a + b + 1.0
            ref = mp_2f1(a, b, c, z)
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-7)

    def test_sign_at_near_integer_c_minus_a_minus_b(self):
        # physical points of random 0 < q < 1 wells: (a, b, c) = abc_params(E)
        # at z0 = 4 sqrt(q)/(1 + sqrt(q))^2, with E placed where
        # m = c - a - b = -sqrt(1 + k (M + E - C))/2 lies 1e-12..1e-6 from an
        # integer; the zeros of 2F1 there are levels, so its sign must hold
        rng = np.random.default_rng(41)
        points = []
        while len(points) < 40:
            q = rng.uniform(0.05, 0.95)
            sq = math.sqrt(q)
            v1 = rng.uniform(20.0, 400.0)
            p = PotentialParams(v1, rng.uniform(0.05, 0.95) * v1, rng.uniform(0.1, 1.0), q)
            dc = DiracConstants(1.0, rng.uniform(0.0, 1.0))
            lo, hi = bound_window(dc)
            k = 4.0 * (p.v1 / q - p.v2 / sq) / p.alpha ** 2
            m_top, m_bottom = (-0.5 * math.sqrt(1.0 + k * (dc.m + e - dc.c_spin))
                               for e in (hi, lo))
            ns = np.arange(math.ceil(m_top), math.floor(m_bottom) + 1)
            if not ns.size:
                continue
            target = rng.choice(ns) + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.5, -6.5)
            e = (4.0 * target ** 2 - 1.0) / k - dc.m + dc.c_spin
            if not lo < e < hi:
                continue
            a, b, c = (float(x) for x in abc_params(e, dc, p))
            if 1e-12 < abs(c - a - b - round(c - a - b)) < 1e-6:
                points.append((a, b, c, 4.0 * sq / (1.0 + sq) ** 2))
        for a, b, c, z0 in points:
            got = gauss_2f1(a, b, c, z0)
            assert np.sign(got) == mpmath.sign(mpmath.hyp2f1(a, b, c, z0)), (a, b, c, z0, got)


class TestKummer1F1:
    def test_trivial(self):
        assert kummer_1f1(0.7, 1.9, 0.0) == 1.0
        assert kummer_1f1(1.0, 1.0, 2.5) == pytest.approx(math.exp(2.5),
                                                          rel=1e-13)

    def test_terminating_example(self):
        # 1 + (-2/1.5)*3 + ((-2)(-1)/(1.5*2.5))*(9/2) = -0.6
        ref = 1.0 - 2.0 * (3.0 / 1.5) + 2.0 * (9.0 / (1.5 * 2.5 * 2.0))
        assert ref == pytest.approx(-0.6)
        assert kummer_1f1(-2.0, 1.5, 3.0) == pytest.approx(ref, rel=1e-13)

    def test_against_mpmath_moderate(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            a = rng.uniform(-5.0, 5.0)
            c = rng.uniform(0.3, 8.0)
            z = rng.uniform(0.0, 50.0)
            ref = mp_1f1(a, c, z)
            assert kummer_1f1(a, c, z) == pytest.approx(ref, rel=1e-9,
                                                        abs=1e-12)

    def test_large_z_sign_agreement(self):
        # the series at z > 500: finite at 600, +inf at 900
        a, c = -3.7, 2.1
        for z in (600.0, 900.0):
            ref = mpmath.hyp1f1(a, c, z)
            assert math.copysign(1.0, kummer_1f1(a, c, z)) == mpmath.sign(ref)

    @pytest.mark.parametrize("a, c, z", [(300.5, 22.78, 600.0), (200.5, 22.78, 600.0),
                                         (300.5, 22.783691082019175, 533.5421230913678)])
    def test_large_z_past_the_float_range_is_infinite(self, a, c, z):
        # mpmath gives 7.25e443 for the last row: the scaled series sum is
        # finite, and only its ldexp overflows (with no warning: the test
        # configuration makes one an error)
        assert kummer_1f1(a, c, z) == math.inf

    @pytest.mark.parametrize("a, c, z, expected", [
        (31.905268175063615, 547.0999480386279, 1239.102947439284, 1.61006438344e163),
        (-81.90681054953637, 60.49289223228528, 707.6587911498474, 7.49843612562e112),
    ])
    def test_large_z_value(self, a, c, z, expected):
        # z is not >> |a|, c, so the large-z asymptotic expansion is far off
        # here: 1.71e170 and 9.94e103
        ref = float(mpmath.hyp1f1(a, c, z))
        assert ref == pytest.approx(expected, rel=1e-11)
        assert kummer_1f1(a, c, z) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_large_z_against_mpmath(self):
        # a, c and z drawn from (-40, 40) x (0.5, 60) x (500, 1200); about
        # half the values are past 1e300 and skipped
        rng = np.random.default_rng(11)
        a, c, z = (rng.uniform(lo, hi, 150) for lo, hi in ((-40.0, 40.0), (0.5, 60.0),
                                                            (500.0, 1200.0)))
        got = kummer_1f1(a, c, z)
        checked = 0
        for args, value in zip(zip(a, c, z), got):
            ref = mpmath.hyp1f1(*args)
            if abs(ref) < 1e300:
                assert value == pytest.approx(float(ref), rel=1e-12, abs=0.0), args
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("a, c, z", [(math.nan, 1.5, 600.0), (0.3, 1.2, math.inf)])
    def test_non_finite_input_raises(self, a, c, z):
        # quietly: the test configuration makes a RuntimeWarning an error
        with pytest.raises(NonConvergenceError, match="not finite"):
            kummer_1f1(a, c, z)


@pytest.mark.parametrize("c", [0.0, -0.7, -2.0, math.nan])
@pytest.mark.parametrize("fn, args", [
    (gauss_2f1, (0.3, 0.4)), (gauss_2f1, (0.3, -1.0)), (kummer_1f1, (0.3,)), (kummer_1f1, (-1.0,)),
], ids=["2F1", "2F1-poly", "1F1", "1F1-poly"])
def test_c_must_be_positive(fn, args, c):
    # the solvers pass c = 2 eta + 1 > 1; a polynomial needs c > 0 too,
    # even where its degree (1) stops short of a pole at c = -2
    with pytest.raises(DomainError, match="c > 0"):
        fn(*args, np.array([1.5, c]), 0.3)


# One row per branch, each with a z in that branch's region.
GAUSS_BRANCHES = [
    ((0.3, 1.1, 2.2), 0.4),     # direct series
    ((0.6, 0.9, 2.9), 0.85),    # 1-z connection formula
    ((0.3, 0.7, 2.0), 0.8),     # direct series, z > 1/2: c - a - b = 1
    ((-3.0, 2.7, 1.4), 0.9),    # terminating: exact polynomial
    ((-8.0, 9.0, 1.5), 0.8),    # terminating, cancels in floats
]
KUMMER_BRANCHES = [
    ((0.7, 1.9), 12.0),         # direct series
    ((-3.7, 2.1), 900.0),       # direct series, z > 500: +inf
    ((-2.0, 1.5), 3.0),         # terminating: exact polynomial
]


def _broadcast_cases(rows):
    params = np.array([p for p, _ in rows])
    zs = np.array([z for _, z in rows])
    cols = tuple(params.T)
    return {
        # every branch in one call, element by element
        "array-z": (cols, zs),
        # every parameter row against one z
        "scalar-z": (cols, float(zs[-1])),
        # every parameter row against every z: a 2-d broadcast
        "outer": (tuple(c[:, None] for c in cols), zs[None, :]),
    }


def exact_polynomial(num, c, z, n):
    """The degree-n series with numerator parameters num, summed term by term
    in Fractions and rounded once."""
    total = term = Fraction(1)
    for k in range(n):
        for p in num:
            term *= Fraction(p) + k
        term *= Fraction(z) / ((Fraction(c) + k) * (k + 1))
        total += term
    return float(total)


class TestTerminatingPolynomials:
    def test_deep_kummer_polynomial_is_correctly_rounded(self):
        # float(mpmath.hyp1f1(-50, 1, 1e4)) at 50 digits
        assert kummer_1f1(-50.0, 1.0, 1e4) == 2.5574644497223042e+135

    def test_every_polynomial_is_correctly_rounded(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            b, c = rng.uniform(-30.0, 30.0), rng.uniform(0.1, 30.0)
            z = rng.uniform(-2.0, 2.0) * 10.0 ** rng.uniform(-1.0, 3.0)
            assert gauss_2f1(-n, b, c, z) == exact_polynomial((-n, b), c, z, n)
            assert gauss_2f1(b, -n, c, z) == exact_polynomial((-n, b), c, z, n)
            assert kummer_1f1(-n, c, z) == exact_polynomial((-n,), c, z, n)

    @pytest.mark.parametrize("fn, args, expected", [
        (gauss_2f1, (-300.0, 2.5, 1.5, 1e300), math.inf),
        (gauss_2f1, (-3.0, 2.5, 1.5, 1e300), -math.inf),
        (kummer_1f1, (-3.0, 1.5, 1e200), -math.inf),
        (kummer_1f1, (-300.0, 1.5, -1e300), math.inf),
    ])
    def test_past_the_float_range_is_infinite(self, fn, args, expected):
        # without a warning: the test configuration makes one an error
        assert fn(*args) == expected

    @pytest.mark.parametrize("z", [math.nan, math.inf])
    def test_non_finite_z_raises(self, z):
        with pytest.raises(DomainError):
            gauss_2f1(-2.0, 1.5, 2.5, np.array([0.3, z]))
        with pytest.raises(DomainError):
            kummer_1f1(-2.0, 1.5, np.array([0.3, z]))


# inputs whose series sum is not finite at a check, which no scale absorbs
NON_FINITE_SERIES = [
    (gauss_2f1, (1e70, 1e70, 0.5, 0.3)),  # from 6e278 to past 1e308 in one term
    (kummer_1f1, (0.3, 1.2, math.inf)),
    (gauss_2f1, (math.nan, 1.5, 2.5, 0.3)),
]


class TestNonFiniteSeries:
    @pytest.mark.parametrize("fn, args", NON_FINITE_SERIES)
    def test_raises_within_a_few_dozen_terms(self, fn, args):
        # quietly (the test configuration makes a RuntimeWarning an error),
        # and long before the 100,000-term budget runs out
        with pytest.raises(NonConvergenceError, match="not finite") as info:
            fn(*args)
        assert int(str(info.value).split()[-2]) <= 1000

    @pytest.mark.parametrize("fn, args", [
        (gauss_2f1, (300.5, 300.5, 1.5, 0.49)),  # mpmath: 3.48e310
        (kummer_1f1, (1000.5, 1.5, 400.0)),      # 5.56e641
        (kummer_1f1, (-4.5, 2.1, 900.0)),        # -4.23e372
    ])
    def test_past_the_float_range_is_infinite(self, fn, args):
        # the running sums are scaled by 2**-600, so they stay finite, and
        # the value is +-inf with the sign of the true one; no warning
        ref = (mpmath.hyp2f1 if fn is gauss_2f1 else mpmath.hyp1f1)(*args)
        assert abs(ref) > np.finfo(float).max
        assert fn(*args) == math.copysign(math.inf, ref)

    def test_connection_formula_nan_raises(self):
        # the first series of the 1-z connection row is -inf, and its weight
        # 0: c - a = -680 is a pole of its denominator.  mpmath: -1.92e-274
        with pytest.raises(NonConvergenceError, match="connection formula .* is NaN"):
            gauss_2f1(np.array([0.3, 800.5]), -1400.5, 120.5, 0.55)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum raises, ldexp gives +-inf
def one_term_series(num, c, z, stops=None):
    """special._kahan_series as it was when it summed one term per pass for
    every live element: the reference that the blocked sums must equal to
    the bit.  At each check a sum past 2**600 is scaled by 2**-600 and its
    exponent raised by 600.  The term count at which each element stops is
    appended to the list ``stops``, when one is given."""
    cols = [z, c, *num]
    out = np.ones(z.size)
    live = np.arange(z.size)
    term, s = np.ones(z.size), np.ones(z.size)
    comp, small = np.zeros(z.size), np.zeros(z.size, dtype=np.int64)
    exponent = np.zeros(z.size, dtype=np.int64)
    k = 0
    while live.size:
        if k == special._MAX_TERMS:
            raise NonConvergenceError(
                f"hypergeometric series did not converge in {special._MAX_TERMS} terms"
            )
        z, c, *num = cols
        ratio = num[0] + k
        for p in num[1:]:
            ratio = ratio * (p + k)
        term = term * (ratio / ((c + k) * (k + 1.0)) * z)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        k += 1
        small = np.where(np.abs(term) <= 1e-16 * np.abs(s), small + 1, 0)
        done = small >= 3
        stop = done.any()
        if (stop or k % 32 == 0) and not np.isfinite(s).all():
            raise NonConvergenceError(
                f"hypergeometric series sum is not finite after {k} terms")
        if stop:
            out[live[done]] = np.ldexp(s[done], exponent[done])
            if stops is not None:
                stops += [k] * int(done.sum())
            keep = ~done
            live, term, s, comp, small, exponent = (
                x[keep] for x in (live, term, s, comp, small, exponent))
            cols = [x[keep] for x in cols]
        if stop or k % 32 == 0:
            big = np.abs(s) > 2.0 ** 600
            term, s, comp = (np.where(big, x * 2.0 ** -600, x) for x in (term, s, comp))
            exponent = np.where(big, exponent + 600, exponent)
    return out


def _series_draw(size, seed):
    """(a, b, c, z) with 0 <= z < 0.95.  About a quarter of the elements
    sit in the 1-z connection row with c - a = 0, -1, ..., -5, so that its
    series (c - a, c - b; 1 + c - a - b; 1 - z) reaches zero terms and stops
    on them."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-12.0, 12.0, (2, size))
    c = rng.uniform(0.5, 12.0, size)
    z = rng.uniform(0.0, 0.95, size)
    ends = rng.random(size) < 0.25
    c = np.where(ends, rng.integers(4, 96, size) / 8.0, c)  # c - a is exact
    a = np.where(ends, c + rng.integers(0, 6, size), a)
    z = np.where(ends, rng.uniform(0.5, 0.95, size), z)
    return a, b, c, z


def _outcome(fn, args):
    try:
        return fn(*args)
    except NonConvergenceError as exc:
        return type(exc), str(exc)


class TestBlockedSeries:
    """The series sums up to 16 terms per pass.  Its values and its errors
    must be those of the one-term-per-pass loop, to the bit."""

    @staticmethod
    def _assert_same(fn, args, monkeypatch):
        got = _outcome(fn, args)
        monkeypatch.setattr(special, "_kahan_series", one_term_series)
        want = _outcome(fn, args)
        monkeypatch.undo()
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)
        return got

    # 10,001 elements start a term per pass (16 per pass only below 256
    # live elements), so the block length changes within the call
    @pytest.mark.parametrize("size, seeds", [
        (1, range(40)), (3, range(20)), (40, range(8)), (300, range(3)), (10_001, range(1))])
    def test_values_equal_the_one_term_loop(self, size, seeds, monkeypatch):
        for seed in seeds:
            a, b, c, z = _series_draw(size, seed)
            for fn, args in ((gauss_2f1, (a, b, c, z)), (kummer_1f1, (a, c, 40.0 * z))):
                assert not isinstance(self._assert_same(fn, args, monkeypatch), tuple)

    def test_the_draws_stop_mid_block_and_on_zero_terms(self):
        a, b, c, z = _series_draw(40, 0)
        stops = []
        one_term_series((a, b), c, z, stops)
        assert {k % 16 for k in stops} != {0}
        # where c - a = -n, the second series of the connection row ends
        # after term n and stops 3 terms later
        n = a - c
        ends = (n == np.round(n)) & (z > 0.5)
        assert ends.sum() >= 5
        stops.clear()
        a, b, c, z = (x[ends] for x in (a, b, c, z))
        one_term_series((c - a, c - b), 1.0 + c - a - b, 1.0 - z, stops)
        assert sorted(stops) == sorted(n[ends] + 3)

    @pytest.mark.parametrize("size, seeds", [(1, range(20)), (3, range(10)), (40, range(4))])
    def test_scaled_sums_equal_the_one_term_loop(self, size, seeds, monkeypatch):
        # at z in (500, 1200) the running sums pass 2**600 and are scaled,
        # at checks that the blocks and the one-term loop place apart; many
        # values are past the float range, +-inf in both
        for seed in seeds:
            a, b, c, z = _series_draw(size, seed)
            args = (3.5 * a, 5.0 * c, 500.0 + 700.0 * z / 0.95)
            assert not isinstance(self._assert_same(kummer_1f1, args, monkeypatch), tuple)

    @pytest.mark.parametrize("fn, args", NON_FINITE_SERIES)
    @pytest.mark.parametrize("size", [1, 3, 40, 300, 10_001])
    def test_errors_equal_the_one_term_loop(self, fn, args, size, monkeypatch):
        # the same message names the same term: the first check, at most
        # 32 terms after the sum left the float range.  The non-finite
        # elements sit among finite ones: first at the start, then at both
        # ends.
        draw = _series_draw(size, 1)
        if fn is kummer_1f1:
            draw = draw[0], draw[2], 40.0 * draw[3]
        for at in (0, -1):
            for x, bad in zip(draw, args):
                x[at] = bad
            kind, message = self._assert_same(fn, draw, monkeypatch)
            assert kind is NonConvergenceError and "not finite" in message


def _peak_bytes(fn, args):
    """The most memory traced at once during a call (numpy reports its
    array buffers to tracemalloc), after one call to warm up."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesMemory:
    # A block of n terms holds n rows per live element, so a long array
    # must be summed in short blocks.  The bounds are the peaks of the same
    # calls with the one-term-per-pass loop, measured on x86_64 with
    # Python 3.11.7 and numpy 2.4.6.
    N = 10_001

    @pytest.mark.parametrize("fn, args, loop_peak", [
        # every element in the 1-z connection row: two series per element
        (gauss_2f1, (np.full(N, 2.3), np.full(N, -1.7), np.full(N, 3.1),
                     np.linspace(0.51, 0.99, N)), 2_780_449),
        # every element in the series row, stopping after 4 to 130 terms
        (kummer_1f1, (np.full(N, 2.3), np.full(N, 3.1), np.linspace(0.1, 60.0, N)),
         2_064_578),
    ], ids=["gauss_2f1", "kummer_1f1"])
    def test_a_long_array_needs_no_more_memory_than_the_one_term_loop(
            self, fn, args, loop_peak):
        assert _peak_bytes(fn, args) <= loop_peak


class TestBroadcastKernels:
    @pytest.mark.parametrize("kind", ["array-z", "scalar-z", "outer"])
    @pytest.mark.parametrize("fn, rows", [(gauss_2f1, GAUSS_BRANCHES),
                                          (kummer_1f1, KUMMER_BRANCHES)],
                             ids=["gauss_2f1", "kummer_1f1"])
    def test_array_call_equals_scalar_calls(self, fn, rows, kind, monkeypatch):
        calls = {"exact": 0}
        orig = special._terminating_exact

        def spy(*args):
            calls["exact"] += 1
            return orig(*args)

        monkeypatch.setattr(special, "_terminating_exact", spy)
        args = _broadcast_cases(rows)[kind]
        got = fn(*args[0], args[1])
        params = np.broadcast_arrays(*args[0], args[1])
        want = np.array([fn(*(float(x) for x in el))
                         for el in zip(*(x.reshape(-1) for x in params))])
        assert got.shape == params[0].shape
        np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-14, atol=0.0)
        assert calls["exact"] > 0
        assert isinstance(fn(*(float(x) for x in rows[0][0]), rows[0][1]), float)


class TestJacobiP:
    def test_degree_zero_and_one(self):
        assert jacobi_p(0, 1.3, -0.2, 0.77) == 1.0
        alpha, beta, x = 1.5, 0.5, 0.3
        expected = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
        assert jacobi_p(1, alpha, beta, x) == pytest.approx(expected,
                                                            rel=1e-14)

    def test_matches_hypergeometric_route(self):
        # recurrence vs the Gamma-prefactor 2F1 form
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(0, 13))
            alpha = rng.uniform(-0.9, 3.0)
            beta = rng.uniform(-0.9, 3.0)
            x = rng.uniform(-1.0, 1.0)
            pref = math.exp(math.lgamma(n + alpha + 1.0)
                            - math.lgamma(n + 1.0) - math.lgamma(alpha + 1.0))
            ref = pref * gauss_2f1(-float(n), n + alpha + beta + 1.0,
                                   alpha + 1.0, 0.5 * (1.0 - x))
            assert jacobi_p(n, alpha, beta, x) == pytest.approx(
                ref, rel=1e-11, abs=1e-11)

    def test_example_degree_four(self):
        ref = float(mpmath.jacobi(4, 1.5, 0.5, 0.3))
        assert jacobi_p(4, 1.5, 0.5, 0.3) == pytest.approx(ref, rel=1e-12)

    @given(n=st.integers(0, 10), alpha=st.floats(-0.5, 3.0),
           beta=st.floats(-0.5, 3.0), x=st.floats(-1.0, 1.0))
    @settings(max_examples=120, deadline=None)
    def test_reflection_symmetry(self, n, alpha, beta, x):
        lhs = jacobi_p(n, alpha, beta, -x)
        rhs = (-1.0) ** n * jacobi_p(n, beta, alpha, x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestConfluentLimit:
    def test_zero_argument_exact(self):
        assert confluent_limit_residual(0.8, 1.4, 0.0, 1e4) == 0.0

    def test_residual_shrinks(self):
        r3 = confluent_limit_residual(1.0, 1.0, 1.0, 1e3)
        r6 = confluent_limit_residual(1.0, 1.0, 1.0, 1e6)
        assert r3 < 1e-2
        assert r6 < 1e-5
        assert r6 < r3

    def test_generic_parameters(self):
        prev = math.inf
        for beta in (1e2, 1e3, 1e4, 1e5):
            r = confluent_limit_residual(0.6, 2.3, 2.0, beta)
            assert r < prev
            prev = r
