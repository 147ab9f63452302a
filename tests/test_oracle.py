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


class TestRadialGrid:
    def test_validation(self):
        with pytest.raises(GridError):
            RadialGrid(2.0, 1.0, 5000)
        with pytest.raises(GridError):
            RadialGrid(0.0, 10.0, 10)

    def test_spacing_and_radii(self):
        g = RadialGrid(0.0, 10.0, 1001)
        assert g.spacing == pytest.approx(0.01)
        r = g.radii
        assert len(r) == 1001
        assert r[0] == 0.0 and r[-1] == 10.0

    def test_build_grid_starts_past_the_wall(self):
        p = PotentialParams(25.0, 10.0, 1.0, 4.0)
        g = build_grid(DC, p)
        assert g.r_start > singularity_radius(p)

    def test_build_grid_reaches_the_tail(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        g = build_grid(DC, p)
        assert g.r_end > 20.0

    def test_wall_map_is_logarithmic_near_the_wall(self):
        p = PotentialParams(25.0, 10.0, 1.0, 2.0)
        g = build_grid(DC, p)
        r0 = singularity_radius(p)
        r = g.radii
        assert r[0] - r0 == pytest.approx(1e-9, rel=1e-6)
        assert r[-1] == pytest.approx(g.r_end, rel=1e-12)
        assert np.all(np.diff(r) > 0.0)
        # equal steps in t: ratios in r - r0 near the wall, differences far out
        d = r[:3] - r0
        assert d[1] / d[0] == pytest.approx(d[2] / d[1], rel=1e-6)
        assert r[-1] - r[-2] == pytest.approx(g.spacing / p.alpha, rel=1e-9)

    def test_wall_must_sit_left_of_the_grid(self):
        with pytest.raises(GridError):
            RadialGrid(1.0, 10.0, 1000, wall=1.0)

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
