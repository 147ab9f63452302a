"""Hypergeometric kernels against extended-precision references."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, gammasgn

from qdeform import gauss_2f1, jacobi_p, kummer_1f1, special
from qdeform.special import confluent_limit_residual

mpmath.mp.dps = 50


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

    def test_terminating_high_z(self):
        # degree-3 polynomial, z = 0.9 outside the direct-series zone
        ref = mp_2f1(-3, 2.7, 1.4, 0.9)
        assert gauss_2f1(-3.0, 2.7, 1.4, 0.9) == pytest.approx(ref, rel=1e-12)

    def test_direct_series_region(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            a, b = rng.uniform(-3.0, 4.0, size=2)
            c = rng.uniform(0.3, 5.0)
            z = rng.uniform(-0.5, 0.5)
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

    def test_far_negative_argument(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(0.1, 2.5, size=2)
            c = rng.uniform(0.5, 5.0)
            z = rng.uniform(-0.99, -0.55)
            ref = mp_2f1(a, b, c, z)
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10)

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
           c=st.floats(0.5, 5.0), z=st.floats(-0.45, 0.45))
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
        (2.3, 0.4, -0.7, 0.8, -854.615102839119),
        (1.5, 0.25, -1.5, 0.9, 2604.51248092826),
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
            z = rng.uniform(-50.0, 50.0)
            ref = mp_1f1(a, c, z)
            assert kummer_1f1(a, c, z) == pytest.approx(ref, rel=1e-9,
                                                        abs=1e-12)

    @given(a=st.integers(-3 * 2**20, 3 * 2**20),
           c=st.integers(2**19, 6 * 2**20), z=st.floats(0.1, 30.0))
    @settings(max_examples=120, deadline=None)
    def test_kummer_reflection(self, a, c, z):
        # a and c on a dyadic grid, so that c - a is exact in floating point
        a, c = a / 2**20, c / 2**20
        lhs = kummer_1f1(a, c, z)
        rhs = math.exp(z) * kummer_1f1(c - a, c, -z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_large_z_sign_agreement(self):
        # beyond the series cutoff only the sign pattern is contractual
        a, c = -3.7, 2.1
        for z in (600.0, 900.0):
            ref = mpmath.hyp1f1(a, c, z)
            assert math.copysign(1.0, kummer_1f1(a, c, z)) == mpmath.sign(ref)


# One row per branch, each with a z in that branch's region.
GAUSS_BRANCHES = [
    ((0.3, 1.1, 2.2), 0.4),     # direct series
    ((0.7, 1.3, 2.5), -0.8),    # Pfaff transform
    ((0.6, 0.9, 2.9), 0.85),    # 1-z connection formula
    ((0.3, 0.7, 2.0), 0.8),     # Euler fallback: c - a - b = 1
    ((-3.0, 2.7, 1.4), 0.9),    # terminating
    ((-8.0, 9.0, 1.5), 0.8),    # terminating, cancels: rational rescue
]
KUMMER_BRANCHES = [
    ((0.7, 1.9), 12.0),         # direct series
    ((-1.3, 2.4), -35.0),       # Kummer reflection
    ((-3.7, 2.1), 900.0),       # asymptotic, z > 500
    ((2.2, 3.1), -700.0),       # reflected asymptotic
    ((-2.0, 1.5), 3.0),         # terminating
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


class TestBroadcastKernels:
    @pytest.mark.parametrize("kind", ["array-z", "scalar-z", "outer"])
    @pytest.mark.parametrize("fn, rows", [(gauss_2f1, GAUSS_BRANCHES),
                                          (kummer_1f1, KUMMER_BRANCHES)],
                             ids=["gauss_2f1", "kummer_1f1"])
    def test_array_call_equals_scalar_calls(self, fn, rows, kind, monkeypatch):
        calls = {"rescue": 0, "asymptotic": 0}
        for key, name in (("rescue", "_terminating_2f1_exact"),
                          ("asymptotic", "_kummer_asym")):
            orig = getattr(special, name)

            def spy(*args, key=key, orig=orig):
                calls[key] += 1
                return orig(*args)

            monkeypatch.setattr(special, name, spy)
        args = _broadcast_cases(rows)[kind]
        got = fn(*args[0], args[1])
        params = np.broadcast_arrays(*args[0], args[1])
        want = np.array([fn(*(float(x) for x in el))
                         for el in zip(*(x.reshape(-1) for x in params))])
        assert got.shape == params[0].shape
        np.testing.assert_allclose(got.reshape(-1), want, rtol=1e-14, atol=0.0)
        if kind != "scalar-z":
            key = "rescue" if fn is gauss_2f1 else "asymptotic"
            assert calls[key] > 0
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
