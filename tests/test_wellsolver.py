"""Finite-difference Hamiltonian, parity-folded ground states, well calibration."""

import math

import numpy as np
import pytest

from multicat import states, wellsolver as ws


def harmonic_problem(points=2001, half=10.0, omega=2.0):
    cfg = ws.SolverConfig(domain=(-half, half), points=points)
    xs = cfg.xs()
    h = ws.build_hamiltonian(0.5 * omega * omega * xs**2, float(xs[1] - xs[0]))
    return cfg, xs, h


class TestPotential:
    def test_single_well_centre_value(self):
        spec = ws.WellPotentialSpec(centers=(0.0,), v0=3.0, gamma=2.0, sigma=1.0,
                                    include_center_offset=False)
        assert ws.potential(spec, 0.0) == pytest.approx(-3.0, rel=1e-14)

    def test_offset_cancels_depth_at_isolated_centre(self):
        spec = ws.WellPotentialSpec(centers=(-7.0, -4.0, 4.0, 7.0), v0=3.0, gamma=2.0)
        # well separated: V(center) is -V0 plus the +V0 offset plus tiny tails
        assert ws.potential(spec, 7.0) == pytest.approx(0.0, abs=5e-3)

    def test_barrier_between_first_case_wells(self):
        spec = ws.WellPotentialSpec(centers=(-7.0, -4.0, 4.0, 7.0), v0=3.0, gamma=2.0)
        assert ws.potential(spec, 5.5) > ws.potential(spec, 4.0)

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_symmetry(self, name):
        spec = ws.calibrate_wells(states.preset(name), balance=False)
        xs = np.linspace(-13.0, 13.0, 2001)
        # summation order differs between x and -x, so allow rounding noise
        assert np.max(np.abs(ws.potential(spec, xs) - ws.potential(spec, -xs))) < 1e-14

    def test_depth_scales_validation(self):
        with pytest.raises(ValueError):
            ws.WellPotentialSpec(centers=(1.0, -1.0), v0=1.0, gamma=1.0,
                                 depth_scales=(1.0,))

    @pytest.mark.parametrize("field", ["v0", "gamma", "sigma", "depth_scales"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_parameters_rejected(self, field, bad):
        kwargs = dict(centers=(1.0, -1.0), v0=1.0, gamma=1.0, sigma=1.0)
        kwargs[field] = (1.0, bad) if field == "depth_scales" else bad
        with pytest.raises(ValueError, match="positive and finite"):
            ws.WellPotentialSpec(**kwargs)


class TestHamiltonian:
    def test_free_particle_stencil(self):
        h = ws.build_hamiltonian(np.zeros(3), 0.5)
        assert np.allclose(h.diag, [4.0, 4.0, 4.0])
        assert np.allclose(h.off, [-2.0, -2.0])

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        d = rng.normal(size=9)
        e = rng.normal(size=8)
        h = ws.TridiagonalOperator(diag=d, off=e)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        v = rng.normal(size=9)
        assert np.allclose(h.matvec(v.copy()), dense @ v)

    def test_harmonic_ground_energy(self):
        cfg, xs, h = harmonic_problem(points=2001)
        psi = ws.ground_state(h, cfg)
        assert psi.energy == pytest.approx(1.0, abs=2e-4)

    def test_second_order_convergence(self):
        errs = {}
        for n in (1001, 2001, 4001):
            cfg, xs, h = harmonic_problem(points=n)
            errs[n] = abs(ws.ground_state(h, cfg).energy - 1.0)
        assert errs[1001] / errs[2001] == pytest.approx(4.0, abs=0.3)
        assert errs[2001] / errs[4001] == pytest.approx(4.0, abs=0.3)


class TestGroundState:
    def test_harmonic_gaussian_width(self):
        cfg, xs, h = harmonic_problem(points=4001)
        psi = ws.ground_state(h, cfg)
        var = float((psi.values**2 @ xs**2) * psi.dx)
        assert var == pytest.approx(0.25, abs=1e-5)
        assert psi.residual < 1e-8
        assert abs(psi.values[0]) < 1e-8 and abs(psi.values[-1]) < 1e-8

    def test_matches_dense_eigensolver(self):
        # independent oracle: dense symmetric eigendecomposition on a small grid
        cfg = ws.SolverConfig(domain=(-8.0, 8.0), points=301)
        xs = cfg.xs()
        v = 0.4 * xs**2 + 0.3 * np.cos(1.7 * xs)
        h = ws.build_hamiltonian(v, float(xs[1] - xs[0]))
        dense = np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)
        evals, evecs = np.linalg.eigh(dense)
        psi = ws.ground_state(h, cfg)
        assert psi.energy == pytest.approx(float(evals[0]), abs=1e-10)
        ref = evecs[:, 0] / math.sqrt(float(evecs[:, 0] @ evecs[:, 0]) * psi.dx)
        overlap = abs(float((psi.values @ ref) * psi.dx))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_potential_supported(self):
        cfg = ws.SolverConfig(domain=(-9.0, 9.0), points=1501)
        xs = cfg.xs()
        v = 2.0 * (xs - 0.8) ** 2
        h = ws.build_hamiltonian(v, float(xs[1] - xs[0]))
        psi = ws.ground_state(h, cfg)
        centroid = float((psi.values**2 @ xs) * psi.dx)
        assert centroid == pytest.approx(0.8, abs=1e-6)

    def test_variational_bound(self):
        cfg, xs, h = harmonic_problem(points=1001)
        psi = ws.ground_state(h, cfg)
        assert psi.energy >= float(np.min(0.5 * 4.0 * xs**2)) - 1e-12
        trial = np.exp(-0.4 * xs**2)
        trial /= math.sqrt(float(trial @ trial) * psi.dx)
        rayleigh = float((trial @ h.matvec(trial)) * psi.dx)
        assert psi.energy <= rayleigh + 1e-12

    def test_double_well_two_even_humps(self):
        spec, psi, fid = ws.solve_well(states.preset("even-cat(2)"))
        peaks = psi.density_peaks()
        assert len(peaks) == 2
        assert np.max(np.abs(np.sort(peaks) - [-2.0, 2.0])) < 0.1
        assert np.max(np.abs(psi.values - psi.values[::-1])) <= 1e-8
        assert fid > 0.9

    @pytest.mark.parametrize("odd", [False, True])
    def test_parity_sector_matches_dense_eigensolver(self, odd):
        # double well with a near-degenerate lowest doublet: the folded
        # half-grid solve must return dense eigenpair 0 (even) or 1 (odd)
        cfg = ws.SolverConfig(domain=(-8.0, 8.0), points=301)
        xs = cfg.xs()
        h = ws.build_hamiltonian(0.05 * (xs**2 - 9.0) ** 2, float(xs[1] - xs[0]))
        dense = np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)
        evals, evecs = np.linalg.eigh(dense)
        k = int(odd)
        assert evals[1] - evals[0] < 1e-2
        psi = ws.ground_state(h, cfg, odd=odd)
        assert psi.energy == pytest.approx(float(evals[k]), abs=1e-10)
        ref = evecs[:, k] / math.sqrt(float(evecs[:, k] @ evecs[:, k]) * psi.dx)
        overlap = abs(float((psi.values @ ref) * psi.dx))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        sign = -1.0 if odd else 1.0
        assert np.array_equal(psi.values, sign * psi.values[::-1])
        resid = float(
            np.sqrt(np.sum((h.matvec(psi.values) - psi.energy * psi.values) ** 2) * psi.dx)
        )
        assert psi.residual == pytest.approx(resid) and resid < 1e-9

    def test_asymmetric_potential_uses_full_grid(self):
        cfg = ws.SolverConfig(domain=(-6.0, 6.0), points=201)
        xs = cfg.xs()
        h = ws.build_hamiltonian(2.0 * xs**2 + 0.5 * xs**3 / 6.0, float(xs[1] - xs[0]))
        dense = np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)
        evals = np.linalg.eigvalsh(dense)
        assert ws.ground_state(h, cfg).energy == pytest.approx(float(evals[0]), abs=1e-10)
        with pytest.raises(ValueError, match="odd sector"):
            ws.ground_state(h, cfg, odd=True)

    @pytest.mark.parametrize("odd", [False, True])
    def test_truncated_domain_rejected(self, odd):
        # omega = 2 ground state exp(-x^2) is still 1e-4 of its peak at |x| = 3
        cfg, xs, h = harmonic_problem(points=301, half=3.0)
        with pytest.raises(ValueError, match="domain too small"):
            ws.ground_state(h, cfg, odd=odd)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            ws.SolverConfig(domain=(-5.0, 5.0), points=400)


class TestCalibration:
    def test_first_case_geometry(self):
        spec = ws.calibrate_wells(states.preset("Y1"), balance=False)
        assert spec.centers == (-7.0, -4.0, 4.0, 7.0)
        assert spec.v0 * spec.gamma / spec.sigma**2 == pytest.approx(ws.CURVATURE)

    def test_narrow_gap_rejected(self):
        target = states.SuperpositionSpec(terms=((0.25, 1.0), (-0.25, 1.0)))
        with pytest.raises(ValueError, match="wells merge"):
            ws.calibrate_wells(target)

    def test_asymmetric_target_rejected(self):
        target = states.SuperpositionSpec(terms=((1.0, 1.0), (3.0, 1.0)))
        with pytest.raises(ValueError, match="symmetric"):
            ws.calibrate_wells(target)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ws.calibrate_wells(states.preset("Y1"), gamma=gamma)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf"), 1e200])
    def test_bad_gamma_rejected_by_default_domain(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ws.default_solver_config(states.preset("Y1"), gamma=gamma)

    def test_default_domain_margin(self):
        # fixed at gamma <= 2, then growing with the decay length of shallower wells
        target = states.preset("Y1")
        for gamma in (0.5, 1.0, 2.0):
            assert ws.default_solver_config(target, gamma=gamma).domain == (-22.0, 22.0)
        ends = [ws.default_solver_config(target, gamma=g).domain[1] for g in (2, 3, 4, 6, 8)]
        assert all(a < b for a, b in zip(ends, ends[1:]))

    @pytest.mark.parametrize("gamma", [3.0, 4.0, 5.0, 6.0, 8.0])
    @pytest.mark.parametrize("target", [
        states.preset("Y1"),
        states.preset("odd-cat(2)"),
        states.SuperpositionSpec(terms=((4.0, 1.0), (-4.0, -1.0), (7.0, 1.0), (-7.0, -1.0))),
    ], ids=["Y1", "odd-cat(2)", "odd-4-7"])
    def test_shallow_wells_fit_the_default_domain(self, target, gamma):
        # the half-depth calibration probe of the inner pair has the longest tail
        _, psi, _ = ws.solve_well(target, gamma=gamma)
        v = np.abs(psi.values)
        assert max(v[0], v[-1]) <= ws.BOUNDARY_DECAY * v.max()

    def test_vacuum_single_well(self):
        spec = ws.calibrate_wells(states.preset("vacuum"))
        assert spec.centers == (0.0,)
        _, psi, fid = ws.solve_well(states.preset("vacuum"))
        assert fid > 0.99

    @pytest.mark.parametrize("target", [
        states.preset("odd-cat(2)"),
        states.preset("odd-cat(3)"),
        states.SuperpositionSpec(terms=((1.0, 1.0), (-1.0, -1.0), (6.0, 1.0), (-6.0, -1.0))),
    ], ids=["odd-cat(2)", "odd-cat(3)", "odd-1-6"])
    def test_odd_target_solved_in_odd_sector(self, target):
        _, psi, fid = ws.solve_well(target)
        assert np.array_equal(psi.values, -psi.values[::-1])
        assert fid >= 0.99

    def test_middle_case_rebalances_inner_depths(self):
        spec = ws.calibrate_wells(states.preset("Y2"))
        scales = dict(zip(spec.centers, spec.scales))
        assert scales[6.0] == 1.0
        assert scales[1.0] == scales[-1.0] < 0.95


class TestFidelity:
    def test_self_fidelity(self):
        spec = states.preset("Y3")
        xs = np.linspace(-14.0, 14.0, 3001)
        vals = np.asarray(states.position_wavefunction(spec, xs))
        vals /= math.sqrt(float(vals @ vals) * (xs[1] - xs[0]))
        psi = ws.DiscretizedWavefunction(xs=xs, values=vals, energy=0.0)
        assert ws.fidelity(psi, spec) == pytest.approx(1.0, abs=1e-10)

    def test_harmonic_ground_state_is_vacuum(self):
        cfg, xs, h = harmonic_problem(points=4001)
        psi = ws.ground_state(h, cfg)
        assert ws.fidelity(psi, states.preset("vacuum")) >= 0.999
