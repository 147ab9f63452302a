"""Quantization solvers for the three deformation regimes."""

import importlib.util
import math
import os
import random
import warnings

import numpy as np
import pytest
from scipy.optimize import elementwise

from qdeform import (
    METHOD_DISPUTED,
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
    bound_window,
    build_grid,
    closed_form_spectrum,
    effective_eigenvalue,
    effective_strengths,
    gauss_2f1,
    integrate_radial,
    kummer_1f1,
    shoot_eigenvalues,
    spectrum,
)
import qdeform.solvers as solvers
from qdeform.solvers import (
    _chandrupatla,
    _crossings,
    _seed_energies,
    _window,
)

DC = DiracConstants(m=1.0, c_spin=0.0)


class TestSolveQGe1:
    def test_known_single_level(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        lv = {lv.n_r: lv for lv in spectrum(DC, p)}[0]
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

    def test_attractive_wall_raises(self):
        # V2 sqrt(q) = 40 > V1 = 25: outside the solution class, not empty
        p = PotentialParams(25.0, 20.0, 1.0, 4.0)
        with pytest.raises(DiscriminantError):
            spectrum(DC, p)

    def test_shallow_well_binds_nothing(self):
        # this well's effective depth never reaches the first level
        p = PotentialParams(4.0, 1.0, 1.0, 2.0)
        assert spectrum(DC, p) == []


class TestSolveQLt1:
    def test_known_single_level(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        levels = spectrum(DC, p)
        assert len(levels) == 1
        assert levels[0].energy == pytest.approx(0.624387194, abs=1e-8)
        assert levels[0].method == METHOD_Q_LT_1

    def test_roots_are_2f1_zeros(self):
        p = PotentialParams(25.0, 18.0, 0.5, 0.3)
        levels = spectrum(DC, p)
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
        levels = spectrum(DC, p)
        assert [lv.n_r for lv in levels] == list(range(len(levels)))

    def test_scan_density_keeps_the_levels_near_integer_c_minus_a_minus_b(self):
        # z0 = 0.9997, and c - a - b passes within 3e-8 of -32 in the window
        p = PotentialParams(519.3001686780265, 330.1893523433154,
                            0.2576858226816229, 0.933114315474702)
        levels = spectrum(DC, p)
        assert [lv.n_r for lv in levels] == list(range(42))
        # the oracle's level n_r is where its phase Theta reaches (n_r + 1) pi
        grid = build_grid(DC, p)
        turns = lambda e: integrate_radial(e, DC, p, grid)[0] / math.pi  # noqa: E731
        assert int(turns(bound_window(DC)[1] - 1e-8)) == 42
        for lv in levels:
            assert turns(lv.energy - 1e-6) < lv.n_r + 1 <= turns(lv.energy + 1e-6)


class TestSolveMorse:
    P = PotentialParams(25.0, 10.0, 1.0, 0.0)

    def test_known_single_level(self):
        levels = spectrum(DC, self.P)
        assert len(levels) == 1
        assert levels[0].energy == pytest.approx(0.629900745, abs=1e-8)
        assert levels[0].method == METHOD_MORSE_EXACT

    def test_roots_are_1f1_zeros(self):
        p = PotentialParams(25.0, 18.0, 0.5, 0.0)
        levels = spectrum(DC, p)
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
        lv_exact = spectrum(DC, self.P)[0]
        lv_asym = closed_form_spectrum(DC, self.P)[0]
        assert lv_asym.method == METHOD_MORSE_ASYMPTOTIC
        assert lv_asym.energy == pytest.approx(lv_exact.energy, abs=1e-6)
        assert lv_asym.energy != lv_exact.energy


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
            SolverConfig(tol_e=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(max_levels=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, field", [
        (lambda x: PotentialParams(x, 10.0, 1.0, 2.0), "PotentialParams.v1"),
        (lambda x: PotentialParams(25.0, x, 1.0, 2.0), "PotentialParams.v2"),
        (lambda x: PotentialParams(25.0, 10.0, x, 2.0), "PotentialParams.alpha"),
        (lambda x: PotentialParams(25.0, 10.0, 1.0, x), "PotentialParams.q"),
        (lambda x: DiracConstants(m=x), "DiracConstants.m"),
        (lambda x: DiracConstants(m=1.0, c_spin=x), "DiracConstants.c_spin"),
        (lambda x: SolverConfig(tol_e=x), "SolverConfig.tol_e"),
        (lambda x: SolverConfig(max_levels=x), "SolverConfig.max_levels"),
    ])
    def test_non_finite_field_raises(self, make, field, bad):
        # NaN fails every ordered comparison, so range checks let it through
        with pytest.raises(ParameterError, match=rf"{field} must be finite"):
            make(bad)

    def test_deeper_well_binds_more(self):
        n_shallow = len(spectrum(DC, PotentialParams(25.0, 10.0, 1.0, 2.0)))
        n_deep = len(spectrum(DC, PotentialParams(250.0, 100.0, 1.0, 2.0)))
        assert n_deep > n_shallow


@pytest.mark.parametrize("m", [1.0, 2.5])
@pytest.mark.parametrize("c_spin", [0.0, 1.3])
@pytest.mark.parametrize("q", [2.0, 0.3])
def test_closed_form_and_oracle_seed_one_window(m, c_spin, q, monkeypatch):
    # the closed form and the oracle both start _crossings from the ends of
    # _window, the bound window with each end moved 1e-8 M inward, on both
    # sides of q = 1
    import qdeform.oracle as oracle

    real_crossings = solvers._crossings
    calls, seeds = [], []

    def crossings(phase, window, n_max, tol):
        lo, hi = window
        calls.append((lo, hi))

        def traced(e):
            if len(seeds) < len(calls):
                seeds.append(np.array(e))
            return phase(e)
        return real_crossings(traced, window, n_max, tol)

    monkeypatch.setattr(solvers, "_crossings", crossings)
    monkeypatch.setattr(oracle, "_crossings", crossings)
    dc = DiracConstants(m=m, c_spin=c_spin)
    p = PotentialParams(25.0 * m, 10.0 * m, 1.0, q)
    assert closed_form_spectrum(dc, p)
    assert oracle.shoot_eigenvalues(dc, p, n_max=1)
    monkeypatch.undo()

    lo, hi = bound_window(dc)
    eps = 1e-8 * m
    assert calls == [(lo + eps, hi - eps)] * 2
    want = np.array([lo + eps, hi - eps])
    for e in seeds:
        assert e.dtype == want.dtype and e.tobytes() == want.tobytes()
        assert lo < e[0] and e[-1] < hi


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


def _quantization(p):
    """H(E, 0) of the 0 < q < 1 or the Morse solver, on arrays of energies."""
    return lambda e: solvers._hypergeometric_factor(e, DC, p, 0.0)


def _with_good_brackets(f_bad, lo, hi, xtol):
    """One lockstep call: the bracket [lo, hi] of f_bad among three good
    brackets of x - 0.3, with f_bad's bracket third."""
    def f(x, bad):
        return np.where(bad, f_bad(x), x - 0.3)

    return _chandrupatla(f, [0.0, -2.0, lo, 0.25], [1.0, 0.5, hi, 3.0],
                         [1e-12, 1e-12, xtol, 1e-12], [False, False, True, False])


def _find_root(g, lo, hi, xtol):
    """scipy's ``elementwise.find_root`` on the scalar function g, with the
    tolerances of ``_chandrupatla``: its result and the points it evaluated."""
    seen = []

    def f(x):
        seen.extend(np.ravel(x).tolist())
        return np.reshape([g(x_k) for x_k in np.ravel(x).tolist()], np.shape(x))

    res = elementwise.find_root(f, (lo, hi), maxiter=100, tolerances=dict(
        xatol=xtol, xrtol=4.0 * np.finfo(float).eps, fatol=0.0, frtol=0.0))
    return res, seen


class TestBrent:
    def test_same_steps_and_root_as_scipy(self):
        # all 300 brackets in one lockstep call, each with its own xtol
        cases = _brent_cases()
        ours = [[] for _ in cases]

        def f(x, case):
            out = []
            for x_k, k in zip(x.tolist(), case.tolist()):
                ours[k].append(x_k)
                out.append(cases[k][0](x_k))
            return out

        roots = _chandrupatla(f, [c[1] for c in cases], [c[2] for c in cases],
                              [c[3] for c in cases], np.arange(len(cases)))
        for k, (g, lo, hi, xtol) in enumerate(cases):
            res, theirs = _find_root(g, lo, hi, xtol)
            assert res.status == 0
            assert roots[k] == res.x
            assert ours[k] == theirs

    @pytest.mark.parametrize("q", [0.0, 0.3])
    def test_lockstep_equals_one_bracket_calls(self, q, monkeypatch):
        # the brackets spectrum refines for the 35 (q = 0) and 36 (q = 0.3)
        # levels of a deep well: its last _chandrupatla call
        p = PotentialParams(400.0, 300.0, 0.3, q)
        brackets = []
        real = solvers._chandrupatla
        monkeypatch.setattr(solvers, "_chandrupatla", lambda f, xa, xb, *args, **kwargs:
                            brackets.append((xa, xb)) or real(f, xa, xb, *args, **kwargs))
        spectrum(DC, p)
        lo, hi = brackets[-1]
        assert len(lo) == (35 if q == 0.0 else 36)
        f = _quantization(p)
        lockstep = _chandrupatla(f, lo, hi, 1e-10)
        assert lockstep.tolist() == [_chandrupatla(f, a, b, 1e-10) for a, b in zip(lo, hi)]

    def test_no_sign_change_raises(self):
        with pytest.raises(NonConvergenceError, match=r"same sign.*\[-1\.0, 2\.0\]"):
            _with_good_brackets(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)

    def test_iteration_limit_raises(self):
        # a root at 0 with the smallest subnormal as xtol: 100 steps do not
        # narrow the bracket to the tolerance
        f = lambda x: math.copysign(abs(x) ** 0.1, x)  # noqa: E731
        res, seen = _find_root(f, -1.0, 2.0, 5e-324)
        assert res.status == -2 and res.nit == 100 and len(seen) == 102
        with pytest.raises(NonConvergenceError,
                           match=r"did not converge in 100 steps in \[-1\.0, 2\.0\]"):
            _with_good_brackets(lambda x: np.copysign(np.abs(x) ** 0.1, x), -1.0, 2.0, 5e-324)

    @pytest.mark.parametrize("bad, fragment", [
        (math.nan, "NaN"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_finite_value_raises(self, bad, fragment):
        with pytest.raises(NonConvergenceError,
                           match=rf"f is {fragment} at x = .* in the bracket \[-1\.0, 2\.0\]"):
            _with_good_brackets(lambda x: np.where(abs(x - 0.7) < 0.1, bad, x - 0.7),
                                -1.0, 2.0, 1e-12)

    def test_nan_raises(self):
        with pytest.raises(NonConvergenceError, match="NaN"):
            _chandrupatla(lambda x: np.where(x > 0.5, math.nan, x - 0.7), 0.0, 1.0, 1e-12)

    def test_exact_zero_at_an_end(self):
        assert _chandrupatla(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert _chandrupatla(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0
        assert (_chandrupatla(lambda x: x - 1.0, [1.0, 0.0], [3.0, 1.0], 1e-12).tolist()
                == [1.0, 1.0])

    def test_steps_raise_no_floating_point_warnings(self):
        # a step of +-1e308: the interpolation overflows (f1 - f2), divides
        # by zero (f3 = f1) and makes NaN, every element computes it, and
        # none of that may warn
        seen = []

        def f(x):
            seen.append(x)
            return np.where(x < 0.3, -1e308, 1e308)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            root = _chandrupatla(f, [0.0, 0.1], [1.0, 0.9], 1e-12)
        assert root == pytest.approx([0.3, 0.3], abs=1e-12)
        assert len(seen) > 3
        assert all(type(x) is np.ndarray and x.dtype == np.float64 for x in seen)


class TestLockstepBudget:
    ITEM_1_WELL = (519.3001686780265, 330.1893523433154, 0.2576858226816229,
                   0.933114315474702)

    @pytest.mark.parametrize("well, n_levels", [
        ((400.0, 300.0, 0.3, 0.0), 35), ((400.0, 300.0, 0.3, 0.3), 36), (ITEM_1_WELL, 42)])
    def test_kernel_calls_per_spectrum(self, well, n_levels, monkeypatch):
        # a count, not a timing: refining one bracket at a time made 256,
        # 233 and 464 kernel calls on these wells, and lockstep Brent 18, 7
        # and 19
        calls = []
        for name in ("gauss_2f1", "kummer_1f1"):
            real = getattr(solvers, name)
            monkeypatch.setattr(solvers, name,
                                lambda *args, real=real: calls.append(1) or real(*args))
        assert len(spectrum(DC, PotentialParams(*well))) == n_levels
        assert len(calls) <= 10

    def test_one_refinement_call_for_all_crossings(self, monkeypatch):
        calls = []
        real = solvers._chandrupatla
        monkeypatch.setattr(solvers, "_chandrupatla",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        assert len(spectrum(DC, PotentialParams(25.0, 18.0, 0.5, 1.0))) == 6
        assert len(calls) == 1

    @pytest.mark.parametrize("well, c_spin, max_levels", [
        ((400.0, 300.0, 0.3, 0.0), 0.0, 64), ((400.0, 300.0, 0.3, 0.3), 0.0, 64),
        ((400.0, 300.0, 0.3, 0.3), 0.0, 20), (ITEM_1_WELL, 0.0, 64),
        ((741.397, 527.365, 0.1474, 0.3143), 0.1688, 200), ((25.0, 10.0, 1.0, 0.3), 0.0, 64),
        ((25.0, 10.0, 1.0, 0.0), 0.0, 64), ((4.0, 1.0, 1.0, 0.3), 0.0, 64)])
    def test_kernel_energies_per_call(self, well, c_spin, max_levels, monkeypatch):
        # H is evaluated at the bracket ends and split points of the L
        # closed-form levels and inside the refinement, never on a scan
        dc = DiracConstants(m=1.0, c_spin=c_spin)
        p, cfg = PotentialParams(*well), SolverConfig(max_levels=max_levels)
        sizes = []
        for name in ("gauss_2f1", "kummer_1f1"):
            real = getattr(solvers, name)
            monkeypatch.setattr(solvers, name, lambda *args, real=real:
                                sizes.append(max(map(np.size, args))) or real(*args))
        spectrum(dc, p, cfg)
        n_closed = len(closed_form_spectrum(dc, p, cfg))
        assert max(sizes, default=0) <= 2 * n_closed + 2


def _draw_well():
    """``draw_well`` of demos/oracle_sweep.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "demos", "oracle_sweep.py")
    spec = importlib.util.spec_from_file_location("oracle_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.draw_well


def _assert_first_grid_crossings(dc, p, cfg):
    """Check closed_form_spectrum against a seed-free reference, 2000
    uniform energies over the window: it has a level for each n with
    min a <= -n on the grid, up to max_levels, and level n lies in the first
    grid cell where -a reaches n, its lower end lowered by the root
    tolerance.  Returns the levels."""
    levels = closed_form_spectrum(dc, p, cfg)
    grid = np.linspace(*_window(dc), 2000)
    minus_a = -_closed_form_a(grid, dc, p)
    n_cross = sum(1 for n in range(cfg.max_levels) if minus_a.max() >= n)
    assert len(levels) == n_cross
    assert [lv.n_r for lv in levels] == list(range(n_cross))
    for n, lv in enumerate(levels):
        k = np.argmax(minus_a >= n)
        d = cfg.tol_e * dc.m + 4.0 * np.finfo(float).eps * abs(lv.energy)
        assert k > 0 and grid[k - 1] - d <= lv.energy
        assert np.all(minus_a[grid < lv.energy] < n)
    return levels


class TestBracketedByClosedForm:
    @pytest.mark.parametrize("well, c_spin, n_levels", [
        ((741.397, 527.365, 0.1474, 0.3143), 0.1688, 91),
        ((715.564, 659.530, 0.2710, 0.9096), 0.0, 75)])
    def test_a_coarse_scan_keeps_every_level(self, well, c_spin, n_levels):
        # a scan of H(E, 0) with 100 points lost two levels of each well
        # and shifted every label above them; the closed-form search starts
        # from the two window ends and still finds every bracket
        dc = DiracConstants(m=1.0, c_spin=c_spin)
        p, cfg = PotentialParams(*well), SolverConfig(max_levels=200)
        _assert_first_grid_crossings(dc, p, cfg)
        levels = spectrum(dc, p, cfg)
        assert [lv.n_r for lv in levels] == list(range(n_levels))

    def test_the_seed_does_not_decide_the_levels(self):
        # halving, not the seed, separates the levels: the search from the
        # two window ends finds each level where a 2000-point grid puts it,
        # in every regime, on the benchmark wells that solve, the deep
        # Morse well, the 91-level well and random wells; below q = 1 the
        # exact levels sit between those closed-form levels
        wells = [(DC, PotentialParams(*w)) for w in [
            (25.0, 10.0, 1.0, 0.3), (25.0, 18.0, 0.5, 0.5), (25.0, 10.0, 1.0, 0.0),
            (400.0, 300.0, 0.3, 0.3), (25.0, 10.0, 1.0, 2.0), (25.0, 10.0, 1.0, 4.0),
            (25.0, 18.0, 0.5, 1.0), (25.0, 10.0, 1.0, 1.0), (400.0, 300.0, 0.3, 0.0)]]
        wells += [(DiracConstants(m=1.0, c_spin=0.1688),
                   PotentialParams(741.397, 527.365, 0.1474, 0.3143))]
        draw_well, rng = _draw_well(), random.Random(9)
        wells += [draw_well(rng, ("morse", "regular", "singular")[i % 3]) for i in range(30)]
        cfg = SolverConfig(max_levels=200)
        for dc, p in wells:
            closed = _assert_first_grid_crossings(dc, p, cfg)
            levels = spectrum(dc, p, cfg)
            if p.q >= 1.0:
                assert levels == closed
                continue
            method = METHOD_Q_LT_1 if p.q > 0.0 else METHOD_MORSE_EXACT
            assert [(lv.n_r, lv.method) for lv in levels] == [
                (n, method) for n in range(len(levels))]
            e_n = [lv.energy for lv in _assert_first_grid_crossings(
                dc, p, SolverConfig(max_levels=cfg.max_levels + 1))]
            e_n.append(bound_window(dc)[1])
            assert len(levels) in (len(e_n) - 2, len(e_n) - 1)
            for lv in levels:
                assert e_n[lv.n_r] - 1e-6 * dc.m <= lv.energy < e_n[lv.n_r + 1]

    def test_levels_below_a_kernel_overflow_solve(self):
        # a scan met H = -inf at E = 1.3913 and raised; the brackets of
        # the first 64 levels hold no overflow (the 200-level run still
        # raises, see test_cli)
        dc = DiracConstants(m=2.5, c_spin=1.3)
        p = PotentialParams(741.397, 527.365, 0.1474, 0.3143)
        levels = spectrum(dc, p)
        oracle = shoot_eigenvalues(dc, p, n_max=64, tol=1e-10 * dc.m)
        assert len(levels) == len(oracle) == 64
        assert max(abs(a.energy - b.energy) for a, b in zip(levels, oracle)) <= 1e-10 * dc.m

    def test_each_level_lies_between_two_closed_form_levels(self):
        # exact level n lies in (E_n, E_(n+1)) of a(E) = -n; E_n may be
        # rounded by up to 3e-10 M at tiny q, so 1e-6 M below E_n counts
        draw_well, rng = _draw_well(), random.Random(5)
        for i in range(240):
            dc, p = draw_well(rng, ("morse", "regular")[i % 2])
            cfg = SolverConfig()
            levels = spectrum(dc, p, cfg)
            e_n = [lv.energy for lv in closed_form_spectrum(
                dc, p, SolverConfig(max_levels=cfg.max_levels + 1))]
            e_n.append(bound_window(dc)[1])
            assert len(levels) in (len(e_n) - 2, len(e_n) - 1)
            for lv in levels:
                assert e_n[lv.n_r] - 1e-6 * dc.m <= lv.energy < e_n[lv.n_r + 1]


class TestCrossings:
    @staticmethod
    def _traced(phase):
        seen = []

        def traced(e):
            seen.extend(e.tolist())
            return phase(e)
        return traced, seen

    def test_crowded_levels_are_separated(self):
        # ten levels in the one cell [0, 1], at E = (n + 1/2)/10
        phase, seen = self._traced(lambda e: 10.0 * e - 0.5)
        roots = _crossings(phase, np.array([0.0, 1.0]), 64, 1e-12)
        assert roots == pytest.approx((np.arange(10) + 0.5) / 10.0, abs=1e-12)
        assert len(set(seen)) == len(seen)  # no energy is evaluated twice

    def test_phase_that_dips_before_it_rises(self):
        # like Theta/pi - 1 on (25, 10, 1, 2): just below 0 at the first
        # sample, lower still further on, then rising through levels 0 and 1
        def dip(e):
            return 4.0 * (e - 0.3) ** 2 - 0.37
        phase, seen = self._traced(dip)
        roots = _crossings(phase, np.array([0.0, 1.0]), 64, 1e-12)
        assert roots == pytest.approx(0.3 + np.sqrt((np.arange(2) + 0.37) / 4.0), abs=1e-12)
        assert dip(0.5) < dip(0.0) and 0.5 in seen  # the first halving lands in the dip
        assert len(set(seen)) == len(seen)

    def test_first_sample_at_level_0_raises(self):
        with pytest.raises(NonConvergenceError,
                           match=r"level 0 is reached at the first sample E = 0\.25"):
            _crossings(lambda e: e, np.array([0.25, 1.0]), 64, 1e-12)

    def test_non_finite_seed_raises(self):
        # np.fmax.accumulate skips a NaN: the NaN top seed would hide all ten levels
        def phase(e):
            return np.where(e < 1.0, 10.0 * e - 0.5, np.nan)
        with pytest.raises(NonConvergenceError, match=r"^phase is nan at the sample E = 1\.0$"):
            _crossings(phase, np.array([0.0, 1.0]), 64, 1e-12)

    def test_non_finite_midpoint_raises(self):
        # the first halving of the crowded cell [0, 1] samples E = 0.5
        def phase(e):
            return np.where(e == 0.5, np.inf, 10.0 * e - 0.5)
        with pytest.raises(NonConvergenceError, match=r"^phase is inf at the sample E = 0\.5$"):
            _crossings(phase, np.array([0.0, 1.0]), 64, 1e-12)


class TestSeeds:
    # ten levels of 10 E - 1/2 at E = (n + 1/2)/10 in [0, 1]; a seed is
    # only one more first sample, so each set gives the free search's
    # labels and roots
    @pytest.mark.parametrize("seeds", [
        [-0.5, -1e-300, 0.0, 1.0, 1.5, np.nan, np.inf, -np.inf],  # none inside the window
        [0.14, 0.16, 0.14, 0.16, 0.16, 0.54, 0.56, 0.54],  # duplicates, given unsorted
        [0.25],  # on the root of level 2: phase is 2.0 there to the bit
        [0.2, 0.25, 0.3, 0.65, 0.75],  # roots at seeds and between pairs
        [-0.02, 0.12, 0.08, 0.22, 0.18, 0.32],  # pairs E_n +- 0.07 that overlap
        [0.49, 0.51, 0.999, 0.9999],  # pairs that enclose no level
        np.linspace(0.0, 1.0, 101)[1:-1],  # a cell per level, and many empty ones
    ], ids=["outside", "duplicates", "on-a-root", "roots-at-seeds", "overlapping-pairs",
            "missing-pairs", "dense"])
    def test_adversarial_seeds_keep_the_free_labels(self, seeds):
        free = _crossings(lambda e: 10.0 * e - 0.5, np.array([0.0, 1.0]), 64, 1e-12)
        samples = _seed_energies(0.0, 1.0, seeds)
        inside = [x for x in seeds if 0.0 < x < 1.0]
        assert samples[0] == 0.0 and samples[-1] == 1.0 and np.all(np.diff(samples) > 0.0)
        assert sorted(set(inside)) == samples[1:-1].tolist()
        seen = []

        def phase(e):
            seen.extend(e.tolist())
            return 10.0 * e - 0.5
        roots = _crossings(phase, samples, 64, 1e-12)
        assert len(roots) == len(free) == 10
        assert roots == pytest.approx(free, abs=2e-12)
        assert len(set(seen)) == len(seen)  # no energy is evaluated twice
        if 0.25 in inside:
            assert roots[2] == 0.25

    def test_seeds_in_the_dip_keep_the_free_labels(self):
        # the phase of test_phase_that_dips_before_it_rises, seeded at its
        # minimum, on both sides of it and past its two levels
        def dip(e):
            return 4.0 * (e - 0.3) ** 2 - 0.37
        free = _crossings(dip, np.array([0.0, 1.0]), 64, 1e-12)
        roots = _crossings(dip, _seed_energies(0.0, 1.0, [0.1, 0.3, 0.5, 0.95]), 64, 1e-12)
        assert len(roots) == len(free) == 2
        assert roots == pytest.approx(free, abs=2e-12)


# the deep Morse and deep q = 0.3 wells, the z0 = 0.9997 well and the
# 91-level well
DEEP_WELLS = [
    (DC, PotentialParams(400.0, 300.0, 0.3, 0.0)),
    (DC, PotentialParams(400.0, 300.0, 0.3, 0.3)),
    (DC, PotentialParams(519.3001686780265, 330.1893523433154,
                         0.2576858226816229, 0.933114315474702)),
    (DiracConstants(m=1.0, c_spin=0.1688), PotentialParams(741.397, 527.365, 0.1474, 0.3143)),
]


class TestSeededOracle:
    """The oracle seeded as ``verify`` seeds it, at E_n +- 1e-6 M of each
    analytic level, against the oracle searching from the window ends."""

    @staticmethod
    def _both(wells, monkeypatch):
        """(free, seeded) level lists of each well, and the sweeps of each side."""
        import qdeform.oracle as oracle

        swept = []
        real = oracle.integrate_radial
        monkeypatch.setattr(oracle, "integrate_radial",
                            lambda *args: swept.append(1) or real(*args))
        runs, sweeps = [], [0, 0]
        for dc, p in wells:
            levels = spectrum(dc, p, SolverConfig(max_levels=200))
            e = np.array([lv.energy for lv in levels])
            pair = []
            for side, seeds in enumerate([(), np.concatenate([e - 1e-6 * dc.m,
                                                              e + 1e-6 * dc.m])]):
                swept.clear()
                pair.append(shoot_eigenvalues(dc, p, n_max=len(levels) + 1,
                                              tol=1e-10 * dc.m, seeds=seeds))
                sweeps[side] += len(swept)
            runs.append((dc, *pair))
        return runs, sweeps

    @staticmethod
    def _assert_agree(runs):
        for dc, free, seeded in runs:
            assert [lv.n_r for lv in seeded] == [lv.n_r for lv in free]
            for a, b in zip(free, seeded):
                assert abs(a.energy - b.energy) <= 1e-10 * dc.m

    @pytest.mark.parametrize("regime", ["morse", "regular", "singular"])
    def test_random_wells(self, regime, monkeypatch):
        draw_well, rng = _draw_well(), random.Random(7)
        wells = [draw_well(rng, regime) for _ in range(150)]
        runs, (free, seeded) = self._both(wells, monkeypatch)
        self._assert_agree(runs)
        assert sum(len(r[1]) for r in runs) > 150  # most wells bind a level
        assert seeded < 0.6 * free

    @pytest.mark.parametrize("well", range(len(DEEP_WELLS)),
                             ids=["deep-morse", "deep-q0.3", "z0-0.9997", "91-levels"])
    def test_deep_wells(self, well, monkeypatch):
        runs, (free, seeded) = self._both([DEEP_WELLS[well]], monkeypatch)
        self._assert_agree(runs)
        n_levels = len(runs[0][1])
        assert n_levels >= 35
        assert seeded <= 5 * n_levels < 0.6 * free


class TestDisputed:
    def test_disagrees_with_valid_solver(self):
        # the closed-form condition applied below q = 1 ignores the r = 0
        # boundary; its levels must not be trusted, only compared
        p = PotentialParams(25.0, 18.0, 0.5, 0.3)
        good = {lv.n_r: lv.energy for lv in spectrum(DC, p)}
        disp = {lv.n_r: lv.energy for lv in closed_form_spectrum(DC, p)}
        common = sorted(set(good) & set(disp))
        assert common
        gaps = [abs(good[n] - disp[n]) for n in common]
        assert max(gaps) > 1e-8

    def test_tag(self):
        p = PotentialParams(25.0, 10.0, 1.0, 0.3)
        levels = closed_form_spectrum(DC, p)
        assert levels
        assert METHOD_DISPUTED == "disputed-closed-form"
        assert all(lv.method == METHOD_DISPUTED for lv in levels)


class TestClosedForm:
    def test_is_the_spectrum_from_q_equal_one(self):
        for q in (1.0, 2.0):
            p = PotentialParams(25.0, 10.0, 1.0, q)
            levels = closed_form_spectrum(DC, p)
            assert levels and levels == spectrum(DC, p)
            assert all(lv.method == METHOD_Q_GE_1 for lv in levels)

    @pytest.mark.parametrize("well, c_spin", [((25.0, 10.0, 1.0), 0.0),
                                              ((400.0, 300.0, 0.3), 0.3)])
    def test_tends_to_the_morse_asymptotic_levels(self, well, c_spin):
        # a(E) is eta + 1/2 - s at q = 0 and moves by O(q), so the disputed
        # levels at a tiny q are the deep-well asymptotic Morse levels, to O(q)
        dc = DiracConstants(m=1.0, c_spin=c_spin)
        morse = closed_form_spectrum(dc, PotentialParams(*well, 0.0))
        tiny = closed_form_spectrum(dc, PotentialParams(*well, 1e-8))
        assert all(lv.method == METHOD_MORSE_ASYMPTOTIC for lv in morse)
        assert len(tiny) == len(morse) >= 1
        for a, b in zip(tiny, morse):
            assert a.n_r == b.n_r
            assert abs(a.energy - b.energy) <= 1e-8 * dc.m


# q = 10^-k, k = 2..30, and 1e-100: a(E) does not cancel as q -> 0+
SWEEP_Q = [10.0 ** -k for k in range(2, 31)] + [1e-100]


@pytest.mark.parametrize("solve", [spectrum, closed_form_spectrum])
@pytest.mark.parametrize("well", [(25.0, 10.0, 1.0), (25.0, 18.0, 0.5), (400.0, 300.0, 0.3)])
def test_q_to_zero_reaches_the_morse_levels(well, solve):
    # each q keeps the q = 0 count, and level n moves by at most
    # max(2 s_n q, 10 tol_e M), with the slope s_n fitted at q = 1e-2, 1e-3
    cfg = SolverConfig()
    morse = np.array([lv.energy for lv in solve(DC, PotentialParams(*well, 0.0), cfg)])
    assert len(morse) >= 1
    moved = {}
    for q in SWEEP_Q:
        levels = solve(DC, PotentialParams(*well, q), cfg)
        assert [lv.n_r for lv in levels] == list(range(len(morse))), q
        moved[q] = np.abs(np.array([lv.energy for lv in levels]) - morse)
    slope = np.maximum(moved[1e-2] / 1e-2, moved[1e-3] / 1e-3)
    for q in SWEEP_Q:
        bound = np.maximum(2.0 * slope * q, 10.0 * cfg.tol_e * DC.m)
        assert np.all(moved[q] <= bound), (q, moved[q].max())


def _closed_form_a(e, dc, p):
    """a(E) of closed_form_spectrum: the Kummer parameter at q = 0."""
    return abc_params(e, dc, p)[0]


class TestClosedFormBrackets:
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0, 2.5])
    @pytest.mark.parametrize("max_levels", [3, 64])
    def test_each_level_is_the_first_crossing_of_minus_n(self, q, max_levels):
        dc = DiracConstants(m=1.0, c_spin=0.4)
        p = PotentialParams(60.0, 25.0, 0.5, q)
        cfg = SolverConfig(max_levels=max_levels)
        levels = _assert_first_grid_crossings(dc, p, cfg)
        assert len(levels) >= 3
        for n, lv in enumerate(levels):
            # the root finder's bracket ends closer than tol_e M + 4 eps |E|
            # to the root
            d = cfg.tol_e * dc.m + 4.0 * np.finfo(float).eps * abs(lv.energy)
            lo, hi = _closed_form_a(np.array([lv.energy - d, lv.energy + d]), dc, p) + n
            assert lo > 0.0 >= hi

    def test_a_is_positive_at_the_first_scan_point(self):
        # the rule above needs a + n > 0 at the bottom of the window for every n
        rng = np.random.default_rng(15)
        for _ in range(400):
            v1 = rng.uniform(2.0, 5000.0)
            q = rng.choice([0.0, 10.0 ** rng.uniform(-9.0, -5.0), rng.uniform(0.0, 1.0),
                            1.0, rng.uniform(1.0, 6.0)])
            p = PotentialParams(v1, v1 * rng.uniform(0.05, 0.95) / max(1.0, math.sqrt(q)),
                                rng.uniform(0.05, 3.0), q)
            dc = DiracConstants(m=1.0, c_spin=rng.uniform(-3.0, 1.9))
            assert _closed_form_a(np.array(_window(dc)[:1]), dc, p)[0] > 0.0
