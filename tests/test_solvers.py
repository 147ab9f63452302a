"""Quantization solvers for the three deformation regimes."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qdeform import (
    METHOD_MORSE_ASYMPTOTIC,
    METHOD_MORSE_EXACT,
    METHOD_Q_GE_1,
    METHOD_Q_LT_1,
    DiracConstants,
    DiscriminantError,
    NonConvergenceError,
    ParameterError,
    PotentialParams,
    SolverConfig,
    abc_params,
    disputed_q_lt_1,
    effective_eigenvalue,
    effective_strengths,
    gauss_2f1,
    kummer_1f1,
    solve_morse_asymptotic,
    solve_morse_exact,
    solve_q_ge_1,
    solve_q_lt_1,
    spectrum,
)
from qdeform.solvers import _brentq, _roots

DC = DiracConstants(m=1.0, c_spin=0.0)


class TestSolveQGe1:
    def test_known_single_level(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        lv = solve_q_ge_1(0, DC, p)
        assert lv.energy == pytest.approx(0.587541449360766, abs=1e-9)
        assert lv.method == METHOD_Q_GE_1
        assert lv.e_tilde == pytest.approx(
            effective_eigenvalue(lv.energy, DC), rel=1e-13)

    def test_roots_satisfy_quantization(self):
        p = PotentialParams(25.0, 18.0, 0.5, 1.0)
        levels = spectrum(DC, p)
        assert len(levels) >= 3
        for lv in levels:
            a, _, _ = abc_params(lv.energy, DC, p)
            assert a + lv.n_r == pytest.approx(0.0, abs=1e-7)

    def test_energies_strictly_increasing(self):
        p = PotentialParams(25.0, 18.0, 0.5, 1.0)
        es = [lv.energy for lv in spectrum(DC, p)]
        assert es == sorted(es)
        assert len(set(es)) == len(es)

    def test_rejects_q_below_one(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            solve_q_ge_1(0, DC, p)

    def test_attractive_wall_raises(self):
        # V2 sqrt(q) = 40 > V1 = 25: outside the solution class, not empty
        p = PotentialParams(25.0, 20.0, 1.0, 4.0)
        with pytest.raises(DiscriminantError):
            spectrum(DC, p)
        with pytest.raises(DiscriminantError):
            solve_q_ge_1(0, DC, p)

    def test_shallow_well_binds_nothing(self):
        # this well's effective depth never reaches the first level
        p = PotentialParams(4.0, 1.0, 1.0, 2.0)
        assert spectrum(DC, p) == []


class TestSolveQLt1:
    def test_known_single_level(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        levels = solve_q_lt_1(DC, p)
        assert len(levels) == 1
        assert levels[0].energy == pytest.approx(0.624387194, abs=1e-8)
        assert levels[0].method == METHOD_Q_LT_1

    def test_roots_are_2f1_zeros(self):
        p = PotentialParams(25.0, 18.0, 0.5, 0.3)
        levels = solve_q_lt_1(DC, p)
        assert len(levels) >= 3
        sq = math.sqrt(p.q)
        z0 = 4.0 * sq / (1.0 + sq) ** 2
        for lv in levels:
            a, b, c = abc_params(lv.energy, DC, p)
            # scale-free smallness: compare against a nearby non-zero value
            off = abs(gauss_2f1(*abc_params(lv.energy + 1e-3, DC, p), z0))
            assert abs(gauss_2f1(a, b, c, z0)) < 1e-5 * max(off, 1e-30)

    def test_levels_indexed_consecutively(self):
        p = PotentialParams(25.0, 18.0, 0.5, 0.3)
        levels = solve_q_lt_1(DC, p)
        assert [lv.n_r for lv in levels] == list(range(len(levels)))

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ParameterError):
            solve_q_lt_1(DC, PotentialParams(25.0, 10.0, 1.0, 1.5))
        with pytest.raises(ParameterError):
            solve_q_lt_1(DC, PotentialParams(25.0, 10.0, 1.0, 0.0))


class TestSolveMorse:
    P = PotentialParams(25.0, 10.0, 1.0, 0.0)

    def test_known_single_level(self):
        levels = solve_morse_exact(DC, self.P)
        assert len(levels) == 1
        assert levels[0].energy == pytest.approx(0.629900745, abs=1e-8)
        assert levels[0].method == METHOD_MORSE_EXACT

    def test_roots_are_1f1_zeros(self):
        p = PotentialParams(25.0, 18.0, 0.5, 0.0)
        levels = solve_morse_exact(DC, p)
        assert len(levels) >= 3
        for lv in levels:
            v1t, v2t = effective_strengths(lv.energy, DC, p)
            et = effective_eigenvalue(lv.energy, DC)
            eta = math.sqrt(-et) / p.alpha
            z = 4.0 * math.sqrt(v1t) / p.alpha
            a = 0.5 + eta - v2t / (2.0 * p.alpha * math.sqrt(v1t))
            assert abs(kummer_1f1(a, 2.0 * eta + 1.0, z)) < 1e-4 * abs(
                kummer_1f1(a + 0.05, 2.0 * eta + 1.0, z))

    def test_asymptotic_close_to_exact(self):
        lv_exact = solve_morse_exact(DC, self.P)[0]
        lv_asym = solve_morse_asymptotic(0, DC, self.P)
        assert lv_asym.method == METHOD_MORSE_ASYMPTOTIC
        assert lv_asym.energy == pytest.approx(lv_exact.energy, abs=1e-6)
        assert lv_asym.energy != lv_exact.energy

    def test_asymptotic_rejects_positive_q(self):
        with pytest.raises(ParameterError):
            solve_morse_asymptotic(0, DC, PotentialParams(25.0, 10.0, 1.0, 0.1))


class TestSpectrumDispatch:
    def test_method_tags_follow_regime(self):
        cases = [
            (2.0, METHOD_Q_GE_1),
            (1.0, METHOD_Q_GE_1),
            (0.5, METHOD_Q_LT_1),
            (0.0, METHOD_MORSE_EXACT),
        ]
        for q, tag in cases:
            p = PotentialParams(25.0, 10.0, 1.0, q)
            levels = spectrum(DC, p)
            assert levels, f"no levels at q={q}"
            assert all(lv.method == tag for lv in levels)

    def test_continuity_across_q_equals_one(self):
        p_lo = PotentialParams(25.0, 18.0, 0.5, 1.0 - 1e-6)
        p_hi = PotentialParams(25.0, 18.0, 0.5, 1.0)
        e_lo = [lv.energy for lv in spectrum(DC, p_lo)]
        e_hi = [lv.energy for lv in spectrum(DC, p_hi)]
        assert len(e_lo) == len(e_hi)
        for a, b in zip(e_lo, e_hi):
            assert a == pytest.approx(b, abs=1e-3)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SolverConfig(scan_points=10)
        with pytest.raises(ParameterError):
            SolverConfig(tol_e=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(max_levels=0)

    def test_deeper_well_binds_more(self):
        n_shallow = len(spectrum(DC, PotentialParams(25.0, 10.0, 1.0, 2.0)))
        n_deep = len(spectrum(DC, PotentialParams(250.0, 100.0, 1.0, 2.0)))
        assert n_deep > n_shallow


class TestRefinement:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_in_bracket_raises(self, bad):
        # finite at every grid point, so the scan brackets the root at 0.55,
        # but not finite around it: no unconverged answer may come back
        def f(e):
            e = np.asarray(e, dtype=float)
            return np.where(abs(e - 0.55) < 0.04, bad, e - 0.55)

        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonConvergenceError):
            _roots(f, grid, 1e-12)

    @pytest.mark.parametrize("f, expected", [
        (lambda e: np.cos(10.0 * e), [0.05 * math.pi, 0.15 * math.pi, 0.25 * math.pi]),
        # adjacent bracketing cells, one with three roots: the double-root
        # guard rescans both 10x finer and finds all four
        (lambda e: (e - 0.45) * (e - 0.552) * (e - 0.565) * (e - 0.578),
         [0.45, 0.552, 0.565, 0.578]),
        (lambda e: e + 5.0, []),
    ])
    def test_roots_of_array_function(self, f, expected):
        grid = np.linspace(0.0, 1.0, 11)
        roots = _roots(lambda e: f(np.asarray(e)), grid, 1e-13)
        assert roots == pytest.approx(expected, abs=1e-12)


def _brent_cases():
    """300 random sign-change brackets of smooth, steep and piecewise functions."""
    rng = np.random.default_rng(23)
    kinds = [
        lambda r, k: lambda x: math.sin(k * (x - r)) + 0.3 * (x - r),
        lambda r, k: lambda x: math.exp(x - r) - 1.0,
        lambda r, k: lambda x: (x - r) ** 3 + 1e-3 * (x - r),
        lambda r, k: lambda x: math.tanh(k * 1e3 * (x - r)),
        lambda r, k: lambda x: math.copysign(abs(x - r) ** 0.1, x - r),
        lambda r, k: lambda x: (x - r) if x < r else k * (x - r) + 1e-3,
        lambda r, k: lambda x: math.floor(4.0 * (x - r)) + 0.5,
    ]
    cases = []
    while len(cases) < 300:
        r, k = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 5.0)
        lo, hi = r - rng.uniform(0.01, 3.0), r + rng.uniform(0.01, 3.0)
        f = kinds[len(cases) % len(kinds)](r, k)
        if f(lo) * f(hi) < 0.0:
            cases.append((f, lo, hi, 10.0 ** rng.uniform(-14.0, -3.0)))
    return cases


class TestBrent:
    def test_same_steps_and_root_as_scipy(self):
        for f, lo, hi, xtol in _brent_cases():
            ours, theirs = [], []
            root = _brentq(lambda x: ours.append(x) or f(x), lo, hi, xtol)
            assert root == brentq(lambda x: theirs.append(x) or f(x), lo, hi, xtol=xtol)
            assert ours == theirs

    def test_no_sign_change_raises(self):
        with pytest.raises(NonConvergenceError, match="same sign"):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)

    def test_iteration_limit_raises(self):
        # a root at 0 with the smallest subnormal as xtol: the steps halve
        # the bracket, and 100 halvings do not reach the tolerance
        f = lambda x: math.copysign(abs(x) ** 0.1, x)  # noqa: E731
        info = brentq(f, -1.0, 2.0, xtol=5e-324, full_output=True, disp=False)[1]
        assert not info.converged and info.iterations == 100
        with pytest.raises(NonConvergenceError, match="did not converge in 100 steps"):
            _brentq(f, -1.0, 2.0, 5e-324)

    def test_nan_raises(self):
        with pytest.raises(NonConvergenceError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12)

    def test_exact_zero_at_an_end(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0

    def test_iterates_stay_python_floats(self):
        # a numpy scalar in the step would reach f and turn its arithmetic
        # into numpy scalars, whose overflow warns instead of giving inf quietly
        seen = []

        def f(x):
            seen.append(x)
            return 1e250 * math.sinh(40.0 * (x - 0.3))

        _brentq(f, 0.0, 1.0, 1e-12)
        assert len(seen) > 3
        assert all(type(x) is float for x in seen)


class TestDisputed:
    def test_disagrees_with_valid_solver(self):
        # the closed-form condition applied below q = 1 ignores the r = 0
        # boundary; its levels must not be trusted, only compared
        p = PotentialParams(25.0, 18.0, 0.5, 0.3)
        good = {lv.n_r: lv.energy for lv in solve_q_lt_1(DC, p)}
        disp = {lv.n_r: lv.energy for lv in disputed_q_lt_1(DC, p)}
        common = sorted(set(good) & set(disp))
        assert common
        gaps = [abs(good[n] - disp[n]) for n in common]
        assert max(gaps) > 1e-8

    def test_tag(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        for lv in disputed_q_lt_1(DC, p):
            assert lv.method == "disputed-closed-form"

    def test_rejects_q_at_least_one(self):
        with pytest.raises(ParameterError):
            disputed_q_lt_1(DC, PotentialParams(25.0, 10.0, 1.0, 1.0))
