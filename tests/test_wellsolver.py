"""Finite-difference ground states, parity folding, well calibration."""

import math

import numpy as np
import pytest

from multicat import states, wellsolver as ws


def harmonic_problem(points=2001, half=10.0, omega=2.0):
    cfg = ws.SolverConfig(domain=(-half, half), points=points)
    xs = cfg.xs()
    return cfg, xs, 0.5 * omega * omega * xs**2


def dense_hamiltonian(v, cfg):
    """-1/2 d^2/dx^2 + V as a dense matrix: second difference on cfg's grid, Dirichlet ends."""
    xs = cfg.xs()
    dx = float(xs[1] - xs[0])
    lap = (np.diag(np.ones(xs.size - 1), 1) + np.diag(np.ones(xs.size - 1), -1)
           - 2.0 * np.eye(xs.size)) / dx**2
    return -0.5 * lap + np.diag(v)


class TestPotential:
    def test_single_well_centre_value(self):
        # the +V0 offset cancels a lone unit well's depth at its centre
        spec = ws.WellPotentialSpec(centers=(0.0,), v0=3.0, gamma=2.0, sigma=1.0)
        assert ws.potential(spec, 0.0) == 0.0
        assert ws.potential(spec, 10.0) == pytest.approx(3.0, rel=1e-14)

    def test_offset_cancels_depth_at_isolated_centre(self):
        spec = ws.WellPotentialSpec(centers=(-7.0, -4.0, 4.0, 7.0), v0=3.0, gamma=2.0)
        # well separated: V(center) is -V0 plus the +V0 offset plus tiny tails
        assert ws.potential(spec, 7.0) == pytest.approx(0.0, abs=5e-3)

    def test_barrier_between_first_case_wells(self):
        spec = ws.WellPotentialSpec(centers=(-7.0, -4.0, 4.0, 7.0), v0=3.0, gamma=2.0)
        assert ws.potential(spec, 5.5) > ws.potential(spec, 4.0)

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_symmetry(self, name):
        spec = ws.solve_well(states.preset(name))[0]
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
    def test_harmonic_ground_energy(self):
        cfg, xs, v = harmonic_problem(points=2001)
        psi = ws.ground_state(v, cfg)
        assert psi.energy == pytest.approx(1.0, abs=2e-4)

    def test_second_order_convergence(self):
        errs = {}
        for n in (1001, 2001, 4001):
            cfg, xs, v = harmonic_problem(points=n)
            errs[n] = abs(ws.ground_state(v, cfg).energy - 1.0)
        assert errs[1001] / errs[2001] == pytest.approx(4.0, abs=0.3)
        assert errs[2001] / errs[4001] == pytest.approx(4.0, abs=0.3)

    @pytest.mark.parametrize("shape", [(300,), (302,), (301, 1)])
    def test_potential_grid_mismatch_rejected(self, shape):
        cfg = ws.SolverConfig(domain=(-8.0, 8.0), points=301)
        with pytest.raises(ValueError, match="301-point solver grid"):
            ws.ground_state(np.zeros(shape), cfg)


class TestGroundState:
    def test_harmonic_gaussian_width(self):
        cfg, xs, v = harmonic_problem(points=4001)
        psi = ws.ground_state(v, cfg)
        var = float((psi.values**2 @ xs**2) * psi.dx)
        assert var == pytest.approx(0.25, abs=1e-5)
        assert psi.residual < 1e-8
        assert abs(psi.values[0]) < 1e-8 and abs(psi.values[-1]) < 1e-8

    def test_matches_dense_eigensolver(self):
        # independent oracle: dense symmetric eigendecomposition on a small grid
        cfg = ws.SolverConfig(domain=(-8.0, 8.0), points=301)
        xs = cfg.xs()
        v = 0.4 * xs**2 + 0.3 * np.cos(1.7 * xs)
        evals, evecs = np.linalg.eigh(dense_hamiltonian(v, cfg))
        psi = ws.ground_state(v, cfg)
        assert psi.energy == pytest.approx(float(evals[0]), abs=1e-10)
        ref = evecs[:, 0] / math.sqrt(float(evecs[:, 0] @ evecs[:, 0]) * psi.dx)
        overlap = abs(float((psi.values @ ref) * psi.dx))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_potential_supported(self):
        cfg = ws.SolverConfig(domain=(-9.0, 9.0), points=1501)
        xs = cfg.xs()
        psi = ws.ground_state(2.0 * (xs - 0.8) ** 2, cfg)
        centroid = float((psi.values**2 @ xs) * psi.dx)
        assert centroid == pytest.approx(0.8, abs=1e-6)

    def test_variational_bound(self):
        cfg, xs, v = harmonic_problem(points=1001)
        psi = ws.ground_state(v, cfg)
        assert psi.energy >= float(np.min(v)) - 1e-12
        trial = np.exp(-0.4 * xs**2)
        trial /= math.sqrt(float(trial @ trial) * psi.dx)
        rayleigh = float((trial @ dense_hamiltonian(v, cfg) @ trial) * psi.dx)
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
        v = 0.05 * (xs**2 - 9.0) ** 2
        dense = dense_hamiltonian(v, cfg)
        evals, evecs = np.linalg.eigh(dense)
        k = int(odd)
        assert evals[1] - evals[0] < 1e-2
        psi = ws.ground_state(v, cfg, odd=odd)
        assert psi.energy == pytest.approx(float(evals[k]), abs=1e-10)
        ref = evecs[:, k] / math.sqrt(float(evecs[:, k] @ evecs[:, k]) * psi.dx)
        overlap = abs(float((psi.values @ ref) * psi.dx))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        sign = -1.0 if odd else 1.0
        assert np.array_equal(psi.values, sign * psi.values[::-1])
        resid = float(
            np.sqrt(np.sum((dense @ psi.values - psi.energy * psi.values) ** 2) * psi.dx)
        )
        assert psi.residual == pytest.approx(resid) and resid < 1e-9

    def test_asymmetric_potential_uses_full_grid(self):
        cfg = ws.SolverConfig(domain=(-6.0, 6.0), points=201)
        xs = cfg.xs()
        v = 2.0 * xs**2 + 0.5 * xs**3 / 6.0
        evals = np.linalg.eigvalsh(dense_hamiltonian(v, cfg))
        assert ws.ground_state(v, cfg).energy == pytest.approx(float(evals[0]), abs=1e-10)
        with pytest.raises(ValueError, match="odd sector"):
            ws.ground_state(v, cfg, odd=True)

    @pytest.mark.parametrize("odd", [False, True])
    def test_truncated_domain_rejected(self, odd):
        # omega = 2 ground state exp(-x^2) is still 1e-4 of its peak at |x| = 3
        cfg, xs, v = harmonic_problem(points=301, half=3.0)
        with pytest.raises(ValueError, match="domain too small"):
            ws.ground_state(v, cfg, odd=odd)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            ws.SolverConfig(domain=(-5.0, 5.0), points=400)

    @pytest.mark.parametrize("domain", [
        (-math.inf, 5.0), (-5.0, math.inf), (-math.inf, math.inf), (math.nan, 5.0), (-5.0, math.nan),
    ])
    def test_non_finite_domain_rejected(self, domain):
        # refused here, not later inside LAPACK
        with pytest.raises(ValueError, match="finite"):
            ws.SolverConfig(domain=domain)


class TestCalibration:
    def test_first_case_geometry(self):
        spec = ws.solve_well(states.preset("Y1"))[0]
        assert spec.centers == (-7.0, -4.0, 4.0, 7.0)
        assert spec.v0 * spec.gamma / spec.sigma**2 == pytest.approx(ws.CURVATURE)

    def test_narrow_gap_rejected(self):
        target = states.SuperpositionSpec(terms=((0.25, 1.0), (-0.25, 1.0)))
        with pytest.raises(ValueError, match="wells merge"):
            ws.solve_well(target)[0]

    def test_asymmetric_target_rejected(self):
        target = states.SuperpositionSpec(terms=((1.0, 1.0), (3.0, 1.0)))
        with pytest.raises(ValueError, match="symmetric"):
            ws.solve_well(target)[0]

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ws.solve_well(states.preset("Y1"), gamma=gamma)[0]

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_gamma_rejected_with_explicit_grid(self, gamma):
        # checked before V0 = CURVATURE / gamma when the caller brings the grid
        cfg = ws.SolverConfig(domain=(-22.0, 22.0))
        with pytest.raises(ValueError, match="gamma must be positive"):
            ws.solve_well(states.preset("Y1"), gamma=gamma, cfg=cfg)

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

    @pytest.mark.parametrize("gamma", [20.0, 50.0])
    def test_grid_too_coarse_for_the_wells_refused(self, gamma, monkeypatch):
        # default grid: step 0.146 at gamma 20 and 0.566 at gamma 50, against
        # half the well width 0.112 and 0.0707; refused before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("solved on a grid that was to be refused")

        monkeypatch.setattr(ws, "ground_state", no_solve)
        with pytest.raises(ValueError, match="--points"):
            ws.solve_well(states.preset("Y1"), gamma=gamma)[0]

    def test_single_well_grid_too_coarse_refused(self):
        cfg = ws.SolverConfig(domain=(-20.0, 20.0), points=41)
        with pytest.raises(ValueError, match="grid too coarse"):
            ws.solve_well(states.preset("vacuum"), cfg=cfg)

    @pytest.mark.parametrize("name,gamma,points", [
        ("Y1", 50.0, 40001), ("Y1", 15.0, 4001), ("Y2", 15.0, 4001), ("Y3", 2.0, 401),
    ])
    def test_grid_fine_enough_for_the_wells_accepted(self, name, gamma, points):
        target = states.preset(name)
        cfg = ws.default_solver_config(target, points=points, gamma=gamma)
        assert float(cfg.xs()[1] - cfg.xs()[0]) <= 0.5 * min(1.0 / math.sqrt(gamma), 0.5)
        _, psi, fid = ws.solve_well(target, gamma=gamma, cfg=cfg)
        assert 0.0 < fid <= 1.0 and psi.residual < 1e-8

    def test_vacuum_single_well(self):
        spec = ws.solve_well(states.preset("vacuum"))[0]
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
        spec = ws.solve_well(states.preset("Y2"))[0]
        scales = dict(zip(spec.centers, spec.scales))
        assert scales[6.0] == 1.0
        assert scales[1.0] == scales[-1.0] < 0.95


class TestSolveOnce:
    @pytest.mark.parametrize("name,solves", [
        ("Y1", 21), ("Y2", 32), ("Y3", 33), ("odd-cat(2)", 1),
    ])
    def test_each_well_system_solved_once(self, name, solves, monkeypatch):
        # Y1 and odd-cat(2) skip the polish; the bracket ends are solved once,
        # and the polished well system is not solved again
        calls = []
        real = ws.ground_state

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ws, "ground_state", counted)
        ws.solve_well(states.preset(name))
        assert len(calls) == solves

    @pytest.mark.parametrize("target", [
        states.preset("Y1"),
        states.preset("Y2"),
        states.SuperpositionSpec(terms=((1.0, 1.0), (-1.0, -1.0), (6.0, 1.0), (-6.0, -1.0))),
    ], ids=["Y1", "Y2", "odd-1-6"])
    def test_returned_state_is_the_ground_state_of_the_returned_wells(self, target):
        cfg = ws.default_solver_config(target)
        spec, psi, fid = ws.solve_well(target, cfg=cfg)
        again = ws.ground_state(ws.potential(spec, cfg.xs()), cfg, target.is_antisymmetric())
        assert np.array_equal(psi.values, again.values)
        assert psi.energy == again.energy
        assert fid == ws.fidelity(again, target)

    def test_check_order(self):
        # symmetric target, then wells merge, then gamma
        lopsided = states.SuperpositionSpec(terms=((0.25, 1.0), (3.0, 1.0)))
        with pytest.raises(ValueError, match="symmetric"):
            ws.solve_well(lopsided, gamma=0.0)
        narrow = states.SuperpositionSpec(terms=((0.25, 1.0), (-0.25, 1.0)))
        with pytest.raises(ValueError, match="wells merge"):
            ws.solve_well(narrow, gamma=0.0)


class TestFidelity:
    def test_self_fidelity(self):
        spec = states.preset("Y3")
        xs = np.linspace(-14.0, 14.0, 3001)
        vals = np.asarray(states.position_wavefunction(spec, xs))
        vals /= math.sqrt(float(vals @ vals) * (xs[1] - xs[0]))
        psi = ws.DiscretizedWavefunction(xs=xs, values=vals, energy=0.0)
        assert ws.fidelity(psi, spec) == pytest.approx(1.0, abs=1e-10)

    def test_harmonic_ground_state_is_vacuum(self):
        cfg, xs, v = harmonic_problem(points=4001)
        psi = ws.ground_state(v, cfg)
        assert ws.fidelity(psi, states.preset("vacuum")) >= 0.999
