"""Finite-difference ground states, parity folding, well calibration."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.optimize import brentq, minimize_scalar

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
        spec = ws.WellPotentialSpec(centers=(0.0,), v0=3.0, gamma=2.0)
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

    @pytest.mark.parametrize("field", ["v0", "gamma", "depth_scales"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_parameters_rejected(self, field, bad):
        kwargs = dict(centers=(1.0, -1.0), v0=1.0, gamma=1.0)
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

    @staticmethod
    def tilted_against_dense(centre, tilt):
        """1 - overlap^2 and the relative energy error of ``ground_state`` on a double well
        tilted by ``tilt`` tanh(x), against ``eigh_tridiagonal`` of the same H."""
        cfg = ws.SolverConfig(domain=(-25.0, 25.0), points=4001)
        xs = cfg.xs()
        v = ws.potential(ws.WellPotentialSpec((-centre, centre), 3.0, 2.0), xs) + tilt * np.tanh(xs)
        psi = ws.ground_state(v, cfg)
        inv = 1.0 / psi.dx**2
        (e0,), ref = eigh_tridiagonal(inv + v, np.full(xs.size - 1, -0.5 * inv),
                                      select="i", select_range=(0, 0))
        overlap = float(psi.values @ ref[:, 0]) * math.sqrt(psi.dx)
        return 1.0 - overlap**2, abs(psi.energy - e0) / e0

    @pytest.mark.parametrize("tilt", [1e-8, 1e-7, 1e-6, 3e-6])
    def test_tilted_doublet_is_not_folded(self, tilt):
        # wells at +-5 split by 8.2e-8: a fold that ignores the tilt keeps overlap^2 0.99 to 0.51
        loss, energy_err = self.tilted_against_dense(5.0, tilt)
        assert loss <= 1e-10 and energy_err <= 1e-11

    @given(tilt=st.floats(0.0, 1e-5))
    @example(tilt=3e-11)  # within round-off of max |H_ii| = 6400: folded
    @settings(max_examples=8, deadline=None)
    def test_tilted_potential_matches_dense_solve(self, tilt):
        # wells at +-3 split by 2.3e-4: the at most 1e-14 max |H_ii| / 2 = 3.2e-11 of skew that
        # a fold ignores turns the state by at most 1.4e-7 (Davis-Kahan), 2e-14 of overlap^2
        loss, energy_err = self.tilted_against_dense(3.0, tilt)
        assert loss <= 1e-10 and energy_err <= 1e-11

    @pytest.mark.parametrize("odd", [False, True])
    def test_truncated_domain_rejected(self, odd):
        # omega = 2 ground state exp(-x^2) is still 1e-4 of its peak at |x| = 3
        cfg, xs, v = harmonic_problem(points=301, half=3.0)
        with pytest.raises(ValueError, match="domain too small"):
            ws.ground_state(v, cfg, odd=odd)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_samples_rejected(self, odd, bad):
        # one non-finite sample or its symmetric pair: refused before LAPACK
        cfg, xs, v = harmonic_problem(points=301)
        for idx in ([7], [7, -8]):
            w = v.copy()
            w[idx] = bad
            with pytest.raises(ValueError, match="finite"):
                ws.ground_state(w, cfg, odd=odd)

    def test_lapack_failure_raises(self, monkeypatch):
        # pttrf refusing the first shift, min V, or pttrs failing at all
        real = scipy.linalg.get_lapack_funcs  # ground_state imports it on each call
        cfg, xs, v = harmonic_problem(points=301)
        for which in ("pttrf", "pttrs"):
            def failing(names, arrays, which=which):
                funcs = dict(zip(names, real(names, arrays)))
                fail = funcs[which]
                funcs[which] = lambda *args: (*fail(*args)[:-1], 1)
                return tuple(funcs.values())

            monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
            with pytest.raises(LinAlgError, match="info=1"):
                ws.ground_state(v, cfg)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ws, "NODA_MAX_STEPS", 2)
        cfg, xs, v = harmonic_problem(points=301)
        with pytest.raises(LinAlgError, match="2 steps"):
            ws.ground_state(v, cfg)

    @pytest.mark.parametrize("refused", [5, 6])
    def test_refused_shift_keeps_the_last_iterate(self, refused, monkeypatch):
        # this problem takes 6 steps; pttrf refusing the 6th shift keeps the
        # 5-step iterate, already at round-off, while refusing the 5th keeps a
        # 4-step iterate whose residual (2e-9) the check refuses
        cfg, xs, v = harmonic_problem(points=301)
        full = ws.ground_state(v, cfg)
        assert full.iterations == 6
        real, calls = scipy.linalg.get_lapack_funcs, []

        def refusing(names, arrays):
            pttrf, pttrs = real(names, arrays)

            def factor(*args):
                calls.append(1)
                out = pttrf(*args)
                return (*out[:-1], 1) if len(calls) >= refused else out

            return factor, pttrs

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", refusing)
        if refused == 5:
            with pytest.raises(LinAlgError, match="residual"):
                ws.ground_state(v, cfg)
        else:
            psi = ws.ground_state(v, cfg)
            assert psi.iterations == 5 and psi.residual < 1e-12
            assert psi.energy == pytest.approx(full.energy, abs=1e-12)

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            ws.SolverConfig(domain=(-5.0, 5.0), points=400)

    def test_non_integer_point_count_rejected(self):
        # refused here, not later inside xs()
        with pytest.raises(ValueError, match="integer"):
            ws.SolverConfig(domain=(-5.0, 5.0), points=101.0)
        assert ws.SolverConfig(domain=(-5.0, 5.0), points=np.int64(101)).xs().size == 101

    @pytest.mark.parametrize("domain", [
        (-math.inf, 5.0), (-5.0, math.inf), (-math.inf, math.inf), (math.nan, 5.0), (-5.0, math.nan),
    ])
    def test_non_finite_domain_rejected(self, domain):
        # refused here, not later inside LAPACK
        with pytest.raises(ValueError, match="finite"):
            ws.SolverConfig(domain=domain)


def random_wells(rng, kind):
    """A seeded random multi-well potential of ``kind`` (even, odd or asymmetric
    centres) on a grid wide enough for its ground state to decay."""
    gamma = float(np.exp(rng.uniform(math.log(0.5), math.log(17.0))))
    points = 2 * int(rng.integers(200, 4001)) + 1
    wells = int(rng.integers(1, 9))
    if kind == "asymmetric":
        centers = np.cumsum(rng.uniform(1.0, 5.0, wells))
        centers -= rng.uniform(centers[0], centers[-1] + 1e-9)
        scales = rng.uniform(0.5, 1.5, wells)
    else:
        pos = np.cumsum(rng.uniform(1.0, 5.0, (wells + 1) // 2)) - 0.5
        centers = np.concatenate((-pos[::-1], pos))
        scales = rng.uniform(0.5, 1.5, pos.size)
        scales = np.concatenate((scales[::-1], scales))
    depth = ws.CURVATURE / gamma * rng.uniform(1.0, 3.0)
    spec = ws.WellPotentialSpec(centers=tuple(centers), v0=depth, gamma=gamma,
                                depth_scales=tuple(scales))
    stretch = ws._probe_decay_rate(2.0) / ws._probe_decay_rate(gamma)
    margin = 2.0 * ws.DOMAIN_MARGIN * max(1.0, stretch)
    half = float(np.max(np.abs(centers))) + margin
    cfg = ws.SolverConfig(domain=(-half, half), points=points)
    return ws.potential(spec, cfg.xs()), cfg


class TestNodaSweep:
    @pytest.mark.parametrize("kind", ["even", "odd", "asymmetric"])
    def test_random_wells_match_lapack_bisection(self, kind):
        # 30 seeded potentials per kind, gamma 0.5-17, 401-8001 points, 1-8
        # wells: the energy matches eigh_tridiagonal's bisection on the same
        # (folded) matrix, and the solved half is strictly positive
        rng = np.random.default_rng(["even", "odd", "asymmetric"].index(kind))
        for _ in range(30):
            v, cfg = random_wells(rng, kind)
            psi = ws.ground_state(v, cfg, odd=kind == "odd")
            n, inv = v.size, 1.0 / psi.dx**2
            start = {"even": n // 2, "odd": n // 2 + 1, "asymmetric": 0}[kind]
            e = np.full(n - 1 - start, -0.5 * inv)
            if kind == "even":
                e[0] *= math.sqrt(2.0)
            want = eigh_tridiagonal(inv + v[start:], e, eigvals_only=True,
                                    select="i", select_range=(0, 0))[0]
            assert abs(psi.energy - want) <= 1e-11 * max(1.0, abs(want))
            assert np.all(psi.values[start:] > 0.0)
            assert 1 <= psi.iterations <= ws.NODA_MAX_STEPS


class TestCalibration:
    def test_first_case_geometry(self):
        spec = ws.solve_well(states.preset("Y1"))[0]
        assert spec.centers == (-7.0, -4.0, 4.0, 7.0)
        assert spec.v0 * spec.gamma == pytest.approx(ws.CURVATURE)

    @pytest.mark.parametrize("delta", [0.0, 1e-13, 5e-13, 8e-13])
    def test_off_mirror_amplitudes_get_mirrored_centres(self, delta):
        # {4, -4 - delta, 7, -7} is even within PARITY_TOLERANCE.  Its centres must be mirror
        # images, both inner wells rescaled alike: one rescaled inner well localises it at 0.508
        target = states.SuperpositionSpec(((4.0, 1.0), (-4.0 - delta, 1.0), (7.0, 1.0), (-7.0, 1.0)))
        spec, _, fid = ws.solve_well(target)
        assert spec.centers == tuple(-c for c in reversed(spec.centers))
        assert spec.scales == tuple(reversed(spec.scales))
        assert fid == pytest.approx(ws.solve_well(states.preset("Y1"))[2], abs=1e-10)

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


def pairs(*amps, sign=1.0):
    """{+-a, ...} with unit coefficients, times ``sign`` at negative amplitudes."""
    return states.SuperpositionSpec(terms=tuple((m, c) for a in amps
                                                for m, c in ((a, 1.0), (-a, sign))))


THREE_GROUPS = {"even-1-4-7": pairs(1.0, 4.0, 7.0), "odd-1-4-7": pairs(1.0, 4.0, 7.0, sign=-1.0)}


def calibration(target):
    """The full wells at inner depth scale s on the default grid at gamma 2, as
    ``solved(s) -> (wells, ground state)``, and brentq's s* at xtol 1e-11, or
    None when the bracket ends do not differ in sign."""
    cfg = ws.default_solver_config(target)
    xs, odd = cfg.xs(), target.parity == "odd"
    centers = tuple(sorted({float(m) for m in target.amplitudes}))
    inner = tuple(c for c in centers if abs(c) == min(map(abs, centers)))

    def solved(cs, s):
        well = ws.WellPotentialSpec(centers=cs, v0=ws.CURVATURE / 2.0, gamma=2.0,
                                    depth_scales=tuple(s if c in inner else 1.0 for c in cs))
        return well, ws.ground_state(ws.potential(well, xs), cfg, odd)

    e_outer = solved(tuple(c for c in centers if c not in inner), 1.0)[1].energy
    detuning = lambda s: solved(inner, s)[1].energy - e_outer  # noqa: E731
    lo, hi = ws.SCALE_BRACKET
    s_star = brentq(detuning, lo, hi, xtol=1e-11) if detuning(lo) * detuning(hi) <= 0.0 else None
    return functools.partial(solved, centers), s_star


def inner_scale(well):
    """The depth scale of ``well``'s innermost centre."""
    return min(zip(well.centers, well.scales), key=lambda cs: abs(cs[0]))[1]


class TestSolveOnce:
    @pytest.mark.parametrize("name,solves,gamma", [
        ("Y1", 11, 2.0), ("Y2", 11, 2.0), ("Y3", 12, 2.0), ("Y3", 12, 4.0),
        ("odd-cat(2)", 1, 2.0), ("even-1-4-7", 18, 2.0), ("odd-1-4-7", 18, 2.0),
    ])
    def test_each_well_system_solved_once(self, name, solves, gamma, monkeypatch):
        # odd-cat(2) has one group: one solve.  The others solve the outer
        # wells, the bracket ends and brentq's steps to xtol 1e-11, then the
        # Brent polish: s* - POLISH_STEP, s* and s* + 1.618 POLISH_STEP, where
        # Y1, Y2 and Y3 stop because s* scores best, while the three-group
        # targets go on down to a peak about 2e-2 below s* (10 polish solves);
        # no system or bracket end is solved twice.  Y3 at gamma 4 guards
        # against brentq bisecting the energies' noise (61 solves at xtol 1e-14)
        target = THREE_GROUPS[name] if name in THREE_GROUPS else states.preset(name)
        calls = []
        real = ws.ground_state

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ws, "ground_state", counted)
        ws.solve_well(target, gamma=gamma)
        assert len(calls) == solves

    @pytest.mark.parametrize("name,inner_scale,fid", [
        ("even-1-4-7", 0.8383918076201031, 0.9606667393010985),
        ("odd-1-4-7", 1.046667045388761, 0.9421004780743294),
    ])
    def test_three_groups_rescale_only_the_inner_pair(self, name, inner_scale, fid):
        # frozen: computed at gamma 2 on the default grid, from sums that no BLAS kernel reorders
        spec, _, got = ws.solve_well(THREE_GROUPS[name])
        scales = dict(zip(spec.centers, spec.scales))
        assert all(scales[c] == 1.0 for c in (-7.0, -4.0, 4.0, 7.0))
        assert scales[1.0] == scales[-1.0] == pytest.approx(inner_scale, abs=1e-12)
        assert got == pytest.approx(fid, abs=1e-12)

    @pytest.mark.parametrize("target", [
        states.preset("Y1"),
        states.preset("Y2"),
        states.SuperpositionSpec(terms=((1.0, 1.0), (-1.0, -1.0), (6.0, 1.0), (-6.0, -1.0))),
    ], ids=["Y1", "Y2", "odd-1-6"])
    def test_returned_state_is_the_ground_state_of_the_returned_wells(self, target):
        cfg = ws.default_solver_config(target)
        spec, psi, fid = ws.solve_well(target, cfg=cfg)
        again = ws.ground_state(ws.potential(spec, cfg.xs()), cfg, target.parity == "odd")
        assert np.array_equal(psi.values, again.values)
        assert psi.energy == again.energy
        assert fid == ws.fidelity(again, target)

    @pytest.mark.parametrize("target,floor", [
        (states.preset("Y1"), 0.0),
        (pairs(4.1, 6.9), 0.0),
        (states.preset("Y3"), 0.0),
        (pairs(2.0, 3.0, 4.0), 0.0),
        (pairs(1.0, 4.0, sign=-1.0), 0.0),
        (THREE_GROUPS["even-1-4-7"], 0.0),
        (pairs(1.13189, 5.87753), 0.0),
        (pairs(2.3, 9.3), 0.99),
        (pairs(3.0, 9.0), 0.99),
    ], ids=["Y1", "Y1-4.1-6.9", "Y3", "no-root-2-3-4", "odd-1-4", "even-1-4-7", "Y2-1.13-5.88",
            "2.3-9.3", "3-9"])
    def test_root_then_polish_rule(self, target, floor):
        # brentq's root over SCALE_BRACKET at xtol 1e-11 when the bracket ends
        # differ in sign, then Brent's search for the best fidelity bracketed
        # from s* - POLISH_STEP and s*, scoring 0 outside SCALE_BRACKET; else
        # s = 1 alone.  {+-2.3, +-9.3} and {+-3, +-9} have roots within 1e-3
        # of 1 that score above 0.99, where s = 1 alone scores 0.505 and 0.942
        solved, s_star = calibration(target)
        lo, hi = ws.SCALE_BRACKET
        fid = functools.cache(
            lambda s: ws.fidelity(solved(s)[1], target) if lo <= s <= hi else 0.0)
        s = 1.0
        if s_star is not None:
            s = minimize_scalar(lambda s: -fid(s), bracket=(s_star - ws.POLISH_STEP, s_star),
                                tol=ws.POLISH_STEP / s_star).x
        want = (*solved(s), fid(s))
        got = ws.solve_well(target)
        assert got[0] == want[0] and got[2] == want[2]
        for name in ("xs", "values"):
            assert getattr(got[1], name).tobytes() == getattr(want[1], name).tobytes()
        assert (got[1].energy, got[1].residual) == (want[1].energy, want[1].residual)
        assert got[2] >= floor

    @pytest.mark.parametrize("target,floor", [
        (pairs(2.3, 9.3), 0.99),
        (pairs(3.0, 9.0), 0.99),
        (pairs(1.0, 4.0, sign=-1.0), 0.98),
        (THREE_GROUPS["even-1-4-7"], 0.96),
        (THREE_GROUPS["odd-1-4-7"], 0.94),
        (pairs(0.6, 6.1, sign=-1.0), 0.99),
    ], ids=["2.3-9.3", "3-9", "odd-1-4", "even-1-4-7", "odd-1-4-7", "odd-0.6-6.1"])
    def test_polish_never_loses_to_s_star(self, target, floor):
        # the full problem solved at the target's own s* bounds the returned
        # fidelity from below; the floors lie above what a fixed 8e-3 window
        # around s* returned for {+-1, +-4, +-7} and odd {+-0.6, +-6.1}
        solved, s_star = calibration(target)
        got = ws.solve_well(target)[2]
        assert got >= ws.fidelity(solved(s_star)[1], target)
        assert got >= floor

    @pytest.mark.parametrize("name,peak", [
        ("Y2", None), ("odd-1-4-7", None), ("Y2", 0.0), ("Y2", -0.04), ("Y2", 0.03),
        ("Y2", 2.0), ("Y2", -2.0),
    ], ids=["Y2", "odd-1-4-7", "Y2-at-s*", "Y2-left", "Y2-right", "Y2-past-high", "Y2-past-low"])
    def test_polish_solves_each_scale_once(self, name, peak, monkeypatch):
        # Each full-system solve is tagged with its inner scale.  With ``peak``
        # the fidelity is scripted: a Lorentzian 1e-2 wide centred ``peak``
        # from s*, which is POLISH_STEP above the first scale solved.  No scale
        # may be solved twice or outside SCALE_BRACKET, the returned scale must
        # be a solved one and, when scripted, lie within 3 POLISH_STEP of the
        # peak clipped to SCALE_BRACKET
        target = THREE_GROUPS[name] if name in THREE_GROUPS else states.preset(name)
        full = len(set(target.amplitudes))
        pending, scales, scale_of = [], [], {}
        real_sum, real_solve = ws._well_sum, ws.ground_state

        def well_sum(well, xa, shapes):
            pending.append(inner_scale(well) if len(well.centers) == full else None)
            return real_sum(well, xa, shapes)

        def solve(*args, **kwargs):
            psi, scale = real_solve(*args, **kwargs), pending.pop()
            if scale is not None:
                scales.append(scale)
                scale_of[id(psi)] = scale
            return psi

        def script(s):
            return 1.0 / (1.0 + ((s - scales[0] - ws.POLISH_STEP - peak) / 1e-2) ** 2)

        monkeypatch.setattr(ws, "_well_sum", well_sum)
        monkeypatch.setattr(ws, "ground_state", solve)
        if peak is not None:
            monkeypatch.setattr(ws, "_fidelity_on",
                                lambda target, xs: lambda psi: script(scale_of[id(psi)]))
        well, psi, fid = ws.solve_well(target)
        lo, hi = ws.SCALE_BRACKET
        assert len(scales) == len(set(scales)) and all(lo <= s <= hi for s in scales)
        assert inner_scale(well) in scales and scale_of[id(psi)] == inner_scale(well)
        if peak is not None:
            want = min(max(scales[0] + ws.POLISH_STEP + peak, lo), hi)
            assert inner_scale(well) == pytest.approx(want, abs=3 * ws.POLISH_STEP)
            assert fid == script(inner_scale(well))

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
