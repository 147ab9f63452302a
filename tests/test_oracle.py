"""Shooting-method oracle: grid construction and eigenvalue agreement."""

import numpy as np
import pytest

from qdeform import oracle
from qdeform import (
    METHOD_ORACLE,
    DiracConstants,
    GridError,
    PotentialParams,
    RadialGrid,
    build_grid,
    integrate_radial,
    ode_residual,
    shoot_eigenvalues,
    singularity_radius,
    spectrum,
)

DC = DiracConstants(m=1.0, c_spin=0.0)


# (25, 10, 1, q) across the Morse, regular and singular regimes
GRID_QS = [0.0, 0.3, 0.9, 0.99, 0.999, 1.0, 2.0, 4.0]


def _differences(r, h, width):
    """4th-order differences of the radii over s: dr/ds and its next two
    derivatives, at the points ``width`` steps inside both ends."""
    def at(k):
        return r[width + k:len(r) - width + k]

    d1 = (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * h)
    d2 = (-at(-2) + 16.0 * at(-1) - 30.0 * at(0) + 16.0 * at(1) - at(2)) / (12.0 * h * h)
    d3 = (-at(3) + 8.0 * at(2) - 13.0 * at(1) + 13.0 * at(-1) - 8.0 * at(-2)
          + at(-3)) / (8.0 * h ** 3)
    return d1, d2, d3


class TestRadialGrid:
    def test_validation(self):
        r = np.linspace(1.0, 10.0, 2000)
        one = np.ones_like(r)
        with pytest.raises(GridError):
            RadialGrid(r[::-1], one, one, 0.01)
        with pytest.raises(GridError):
            RadialGrid(r[:10], one[:10], one[:10], 0.01)
        with pytest.raises(GridError):
            RadialGrid(r, one[:-1], one, 0.01)
        with pytest.raises(GridError):
            RadialGrid(r, one, one, 0.0)

    def test_spacing_and_radii(self):
        g = build_grid(DC, PotentialParams(25.0, 10.0, 1.0, 0.3))
        # a numpy scalar step would make every Numerov step numpy arithmetic
        assert type(g.spacing) is float
        assert g.n_points == len(g.radii) == len(g.jac2) == len(g.liouville)
        assert g.r_start == g.radii[0] == 1e-8
        assert g.r_end == g.radii[-1]

    def test_build_grid_starts_past_the_wall(self):
        p = PotentialParams(25.0, 10.0, 1.0, 4.0)
        g = build_grid(DC, p)
        assert g.r_start > singularity_radius(p)

    def test_build_grid_reaches_the_tail(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        g = build_grid(DC, p)
        assert g.r_end > 20.0

    @pytest.mark.parametrize("q", GRID_QS)
    def test_radii_rise_from_start_to_end(self, q):
        p = PotentialParams(25.0, 10.0, 0.5, q)
        r = build_grid(DC, p, r_end=80.0).radii
        r0 = singularity_radius(p)
        assert r[0] == (1e-8 / 0.5 if r0 is None else r0 + 1e-9 / 0.5)
        assert r[-1] == 80.0
        assert np.all(np.diff(r) > 0.0)

    @pytest.mark.parametrize("q", GRID_QS)
    def test_step_follows_the_envelope(self, q):
        # dr/ds = Q_env^(-1/2) = sqrt(jac2), away from the first 1e-3/alpha,
        # where the radii next to a wall carry rounding errors of order 1e-17
        g = build_grid(DC, PotentialParams(25.0, 10.0, 1.0, q))
        d1, _, _ = _differences(g.radii, g.spacing, 3)
        inner = slice(3, g.n_points - 3)
        far = g.radii[inner] - g.r_start > 1e-3
        assert np.max(np.abs(d1 / np.sqrt(g.jac2[inner]) - 1.0)[far]) < 1e-8

    @pytest.mark.parametrize("q", GRID_QS)
    def test_liouville_term_is_the_schwarzian_of_the_radii(self, q):
        g = build_grid(DC, PotentialParams(25.0, 10.0, 1.0, q))
        d1, d2, d3 = _differences(g.radii, g.spacing, 3)
        inner = slice(3, g.n_points - 3)
        far = g.radii[inner] - g.r_start > 1e-3
        schwarzian = d3 / d1 - 1.5 * (d2 / d1) ** 2
        miss = np.abs(-0.5 * schwarzian - g.liouville[inner])[far]
        assert np.max(miss) <= 1e-5 * np.max(np.abs(g.liouville))

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    def test_geometric_next_to_the_wall(self, q):
        p = PotentialParams(25.0, 10.0, 1.0, q)
        d = build_grid(DC, p).radii[:5] - singularity_radius(p)
        assert d[0] == pytest.approx(1e-9, rel=1e-6)
        growth = d[1:] / d[:-1] - 1.0
        assert growth[0] > 1e-3
        assert growth == pytest.approx(growth[0], rel=1e-3)

    @pytest.mark.parametrize("q", GRID_QS)
    def test_few_points_in_every_regime(self, q):
        assert build_grid(DC, PotentialParams(25.0, 10.0, 1.0, q)).n_points < 20_000

    def test_build_grid_refuses_instead_of_coarsening(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        with pytest.raises(GridError, match="grid points"):
            build_grid(DC, p, points_per_wavelength=1e5)


class TestShooting:
    def test_node_count_increases_with_energy(self):
        p = PotentialParams(25.0, 18.0, 0.5, 1.0)
        g = build_grid(DC, p)
        levels = shoot_eigenvalues(DC, p, g)
        assert len(levels) >= 3
        for lv in levels:
            assert lv.method == METHOD_ORACLE
        # just above each eigenvalue the sweep gains the next node
        for lv in levels[:-1]:
            _, nodes = integrate_radial(lv.energy + 1e-6, DC, p, g)
            assert nodes == lv.n_r + 1

    @pytest.mark.parametrize("q", [2.0, 1.0, 0.3, 0.0])
    def test_agrees_with_analytic_spectrum(self, q):
        p = PotentialParams(25.0, 10.0, 1.0, q)
        analytic = spectrum(DC, p)
        oracle = shoot_eigenvalues(DC, p)
        assert len(oracle) == len(analytic) == 1
        assert oracle[0].energy == pytest.approx(analytic[0].energy,
                                                 abs=1e-6)

    def test_multi_level_agreement(self):
        p = PotentialParams(25.0, 18.0, 0.5, 1.0)
        analytic = spectrum(DC, p)
        oracle = shoot_eigenvalues(DC, p)
        assert [lv.n_r for lv in oracle] == [lv.n_r for lv in analytic]
        for a, o in zip(analytic, oracle):
            assert o.energy == pytest.approx(a.energy, abs=1e-7)

    @pytest.mark.parametrize("well", [(25.0, 17.6, 1.0, 2.0), (25.0, 24.9, 1.0, 1.0)])
    def test_weak_wall_agrees_level_by_level(self, well):
        # V2 sqrt(q) close to V1: the wall barely repels, and a step sized
        # away from it or a left edge far from r0 shows as a miss of ~1e-5
        p = PotentialParams(*well)
        analytic = spectrum(DC, p)
        oracle_levels = shoot_eigenvalues(DC, p, tol=1e-10 * DC.m)
        assert len(analytic) >= 3
        assert [lv.n_r for lv in oracle_levels] == [lv.n_r for lv in analytic]
        for a, o in zip(analytic, oracle_levels):
            assert abs(o.energy - a.energy) <= 1e-8 * DC.m

    def test_near_unit_q_agrees(self):
        # q -> 1-: V(0) ~ 1/(1 - q)^2 is a near-wall the map resolves
        p = PotentialParams(25.0, 10.0, 1.0, 0.999)
        analytic = spectrum(DC, p)
        oracle_levels = shoot_eigenvalues(DC, p, tol=1e-10 * DC.m)
        assert len(analytic) >= 1
        assert [lv.n_r for lv in oracle_levels] == [lv.n_r for lv in analytic]
        for a, o in zip(analytic, oracle_levels):
            assert abs(o.energy - a.energy) <= 1e-8 * DC.m

    def test_deep_well_near_unit_z0(self):
        # 42 levels with z0 = 0.99970, where a denser scan once reported a
        # spurious pair of roots; the oracle counts and places every level
        p = PotentialParams(519.3001686780265, 330.1893523433154,
                            0.2576858226816229, 0.933114315474702)
        analytic = spectrum(DC, p)
        oracle_levels = shoot_eigenvalues(DC, p)
        assert len(oracle_levels) == 42
        assert [lv.n_r for lv in oracle_levels] == [lv.n_r for lv in analytic]
        for a, o in zip(analytic, oracle_levels):
            assert abs(o.energy - a.energy) <= 1e-8 * DC.m

    def test_sweep_budget(self, monkeypatch):
        sweeps, kernel_runs = [], []
        real_sweep, real_kernel = oracle.integrate_radial, oracle._numerov

        def count_sweep(*args, **kwargs):
            sweeps.append(args[0])
            return real_sweep(*args, **kwargs)

        def count_kernel(*args):
            kernel_runs.append(1)
            return real_kernel(*args)

        monkeypatch.setattr(oracle, "integrate_radial", count_sweep)
        monkeypatch.setattr(oracle, "_numerov", count_kernel)
        p = PotentialParams(25.0, 18.0, 0.5, 1.0)
        levels = shoot_eigenvalues(DC, p)
        assert len(levels) == 6
        assert len(sweeps) <= 12 * len(levels)
        assert len(set(sweeps)) == len(sweeps)  # no energy is swept twice
        # every sweep runs through integrate_radial: one outward, one inward half
        assert len(kernel_runs) == 2 * len(sweeps)

    def test_empty_for_shallow_well(self):
        p = PotentialParams(4.0, 1.0, 1.0, 2.0)
        assert shoot_eigenvalues(DC, p) == []


class TestOdeResidual:
    def test_zero_function(self):
        r = np.linspace(1.0, 5.0, 100)
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        assert ode_residual(r, np.zeros_like(r), 0.5, DC, p) == 0.0

    def test_rejects_nonuniform_grid(self):
        r = np.array([0.0, 1.0, 3.0, 4.0])
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        with pytest.raises(GridError):
            ode_residual(r, np.ones_like(r), 0.5, DC, p)

    def test_detects_wrong_function(self):
        # a gaussian bump is no eigenfunction of this well
        p = PotentialParams(25.0, 10.0, 1.0, 0.0)
        r = np.linspace(0.5, 8.0, 4001)
        fake = np.exp(-((r - 2.0) ** 2))
        assert ode_residual(r, fake, 0.6299, DC, p) > 1.0
