"""Deformed hyperbolic functions and the potential itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeform import (
    DomainError,
    ParameterError,
    PotentialParams,
    cosh_q,
    potential_value,
    singularity_radius,
    tanh_q,
)


def morse_from_physical(de, re, alpha):
    """Map well depth D_e and equilibrium distance r_e to (V1, V2).

    V1 = (D_e/4) e^{2 alpha r_e}, V2 = D_e e^{alpha r_e}; with these the
    Morse well reaches -D_e at r = r_e.
    """
    return 0.25 * de * math.exp(2.0 * alpha * re), de * math.exp(alpha * re)


class TestDeformedFunctions:
    def test_q_one_reduces_to_hyperbolic(self):
        x = np.linspace(-3.0, 5.0, 41)
        assert np.allclose(cosh_q(x, 1.0), np.cosh(x), rtol=1e-14)
        assert np.allclose(tanh_q(x, 1.0), np.tanh(x), rtol=1e-14)

    def test_q_zero_reduces_to_half_exponential(self):
        x = np.linspace(-2.0, 10.0, 25)
        assert np.allclose(cosh_q(x, 0.0), 0.5 * np.exp(x), rtol=1e-14)

    def test_explicit_values(self):
        # cosh_2(1) = (e + 2/e)/2, tanh_2(1) = (e - 2/e)/(e + 2/e)
        e = math.e
        assert tanh_q(1.0, 2.0) == pytest.approx((e - 2.0 / e) / (e + 2.0 / e), rel=1e-15)
        assert cosh_q(1.0, 2.0) == pytest.approx((e + 2.0 / e) / 2.0, rel=1e-15)

    @given(x=st.floats(-20.0, 20.0), q=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_fundamental_identity(self, x, q):
        # cosh_q^2 - sinh_q^2 = q for every x, with sinh_q = tanh_q cosh_q
        lhs = cosh_q(x, q) ** 2 * (1.0 - tanh_q(x, q) ** 2)
        assert lhs == pytest.approx(q, abs=1e-9 * max(1.0, math.cosh(x) ** 2))

    @given(x=st.floats(-10.0, 10.0), q=st.floats(1e-6, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_scaling_identity(self, x, q):
        # cosh_q(x) = sqrt(q) cosh(x - ln(q)/2), tanh_q(x) = tanh(x - ln(q)/2)
        shift = x - 0.5 * math.log(q)
        assert cosh_q(x, q) == pytest.approx(math.sqrt(q) * math.cosh(shift), rel=1e-11)
        assert tanh_q(x, q) == pytest.approx(math.tanh(shift), rel=1e-11, abs=1e-11)

    def test_tanh_q_large_argument_saturates(self):
        assert tanh_q(500.0, 3.0) == pytest.approx(1.0, abs=1e-15)
        assert np.isfinite(tanh_q(800.0, 3.0))

    def test_tanh_q_at_q_zero_is_one_where_e_2x_underflows(self):
        # cosh_0(-400) = 9.6e-175 > 0, but e^-800 underflows, so the x < 0
        # form would be 0/0; q < 0, where cosh_q can vanish, still raises
        assert cosh_q(-400.0, 0.0) > 0.0
        assert tanh_q(-400.0, 0.0) == 1.0
        np.testing.assert_array_equal(tanh_q(np.array([-800.0, -400.0, -3.0, 0.0, 5.0]), 0.0), 1.0)
        with pytest.raises(DomainError):
            tanh_q(0.0, -1.0)


class TestSingularityRadius:
    def test_q_above_one(self):
        p = PotentialParams(4.0, 1.0, 1.0, math.e**2)
        assert singularity_radius(p) == pytest.approx(1.0, rel=1e-14)

    def test_q_one_boundary(self):
        p = PotentialParams(4.0, 1.0, 1.0, 1.0)
        assert singularity_radius(p) == 0.0

    def test_alpha_scaling(self):
        p1 = PotentialParams(4.0, 1.0, 0.5, 3.0)
        p2 = PotentialParams(4.0, 1.0, 2.0, 3.0)
        assert singularity_radius(p1) == pytest.approx(
            4.0 * singularity_radius(p2), rel=1e-14)

    def test_no_singularity_below_one(self):
        for q in (0.0, 0.5, 0.99):
            p = PotentialParams(4.0, 1.0, 1.0, q)
            assert p.regime in ("morse", "regular")


class TestPotentialParams:
    def test_rejects_bad_ordering(self):
        with pytest.raises(ParameterError):
            PotentialParams(1.0, 2.0, 1.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            PotentialParams(4.0, -1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            PotentialParams(4.0, 1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            PotentialParams(4.0, 1.0, 1.0, -0.5)

    def test_regime_dispatch(self):
        assert PotentialParams(4.0, 1.0, 1.0, 0.0).regime == "morse"
        assert PotentialParams(4.0, 1.0, 1.0, 0.7).regime == "regular"
        assert PotentialParams(4.0, 1.0, 1.0, 1.0).regime == "singular"
        assert PotentialParams(4.0, 1.0, 1.0, 2.5).regime == "singular"


class TestPotentialValue:
    def test_matches_definition(self):
        p = PotentialParams(4.0, 1.0, 0.7, 2.0)
        r = np.linspace(singularity_radius(p) + 0.05, 12.0, 200)
        x = p.alpha * r
        sinh = (np.exp(x) - p.q * np.exp(-x)) / 2.0
        direct = (p.v1 - p.v2 * cosh_q(x, p.q)) / sinh ** 2
        assert np.allclose(potential_value(r, p), direct, rtol=1e-12)

    def test_morse_limit_is_exact(self):
        p = PotentialParams(4.0, 1.0, 1.0, 0.0)
        r = np.linspace(0.1, 15.0, 120)
        expected = (4.0 * p.v1 * np.exp(-2.0 * r)
                    - 2.0 * p.v2 * np.exp(-r))
        assert np.allclose(potential_value(r, p), expected, rtol=1e-13)

    def test_q_zero_is_the_morse_expression_to_the_bit(self):
        # the one expression of every q, at q = 0, is 4 V1 e^2 - 2 V2 e with
        # e = exp(-alpha r), bit for bit, on random wells and radii r > 0
        rng = np.random.default_rng(2026)
        for _ in range(300):
            v2 = 10.0 ** rng.uniform(-2.0, 3.0)
            p = PotentialParams(v2 * 10.0 ** rng.uniform(1e-4, 1.0), v2,
                                10.0 ** rng.uniform(-2.0, 2.0), 0.0)
            r = 10.0 ** rng.uniform(-10.0, 2.0, 64) / p.alpha
            e = np.exp(-p.alpha * r)
            assert np.array_equal(potential_value(r, p), 4.0 * p.v1 * e * e - 2.0 * p.v2 * e)
            value = potential_value(float(r[0]), p)
            assert type(value) is float and value == 4.0 * p.v1 * e[0] * e[0] - 2.0 * p.v2 * e[0]

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_below_q_one_the_domain_is_r_positive(self, q):
        p = PotentialParams(4.0, 1.0, 1.0, q)
        for r in (0.0, -1.0, -np.inf, np.array([1.0, 0.0])):
            with pytest.raises(DomainError, match="radius must exceed 0.0"):
                potential_value(r, p)

    def test_q_to_zero_continuity(self):
        # pointwise approach to the Morse curve as q -> 0+
        r = np.linspace(0.5, 8.0, 50)
        p0 = PotentialParams(4.0, 1.0, 1.0, 0.0)
        base = potential_value(r, p0)
        prev = np.inf
        for q in (1e-2, 1e-4, 1e-6):
            p = PotentialParams(4.0, 1.0, 1.0, q)
            dev = np.max(np.abs(potential_value(r, p) - base))
            assert dev < prev
            prev = dev
        assert prev < 1e-5

    def test_wall_blows_up(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        r0 = singularity_radius(p)
        vals = potential_value(r0 + np.array([1e-2, 1e-4, 1e-6]), p)
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] > 1e10

    def test_no_overflow_at_large_r(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        with np.errstate(over="raise", invalid="raise"):
            vals = potential_value(np.array([50.0, 200.0, 400.0]), p)
        assert np.all(np.isfinite(vals))
        assert abs(vals[-1]) < 1e-100

    def test_morse_from_physical_minimum(self):
        # the mapped (V1, V2) place the well minimum -D_e at r = r_e
        de, re_, alpha = 5.0, 1.3, 0.8
        v1, v2 = morse_from_physical(de, re_, alpha)
        assert v1 < v2  # outside PotentialParams: the Morse well written out
        r = np.linspace(0.1, 10.0, 20001)
        e = np.exp(-alpha * r)
        vals = 4.0 * v1 * e * e - 2.0 * v2 * e
        i = int(np.argmin(vals))
        assert r[i] == pytest.approx(re_, abs=1e-3)
        assert vals[i] == pytest.approx(-de, rel=1e-6)
