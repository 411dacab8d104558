"""Wigner fields: kernels, closed form vs direct transform, integrals, bounds."""

import functools
import math
import timeit
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from multicat import marginals, states, wellsolver, wigner


def sampled_wavefunction(spec, margin=6.0, n=6501):
    m = spec.max_amplitude + margin
    xs = np.linspace(-m, m, n)
    return xs, np.asarray(states.position_wavefunction(spec, xs))


@functools.cache
def solver_samples(name):
    """The ``solve_well`` ground state of a preset, sampled on its solver grid."""
    return wellsolver.solve_well(states.preset(name))[1]


def vacuum_transform_oracle(q, p):
    """Direct quadrature of the Wigner transform of the vacuum wavefunction."""
    x = np.linspace(-16.0, 16.0, 16001)
    amp = (2.0 / math.pi) ** 0.25
    integrand = np.exp(1j * p * x) * amp * np.exp(-((q + x / 2) ** 2)) * amp * np.exp(
        -((q - x / 2) ** 2)
    )
    return float(np.real(np.trapezoid(integrand, x)) / (2.0 * math.pi))


def lattice_step(xs, grid, x_step=0.02):
    """wigner_numeric's x step 2 b dq / a: r = 2 dq / x_step, a <= 3 ceil(r), b = floor(a / r).

    The longest step wins that is not within 0.2 of a whole number (>= 1) of
    mean sample spacings; if none qualifies, the longest step.
    """
    r = 2.0 * grid.dq / x_step
    spacing = (xs[-1] - xs[0]) / (len(xs) - 1)
    best = None
    for a in range(1, 3 * math.ceil(r) + 1):
        b = int(a / r + 1e-9)
        t = 2 * b * grid.dq / (a * spacing)
        key = (round(t) == 0 or abs(t - round(t)) >= 0.2, b / a)
        if b >= 1 and (best is None or key > best[0]):
            best = (key, a, b)
    _, a, b = best
    return 2 * b * (grid.dq / a)


def per_row_reference(xs, psi, grid):
    """The quadrature one q row at a time over the whole sampled span.

    Nodes are k hx for |k| <= ceil((xs[-1] - xs[0]) / hx), hx = lattice_step;
    the trapezoid weights are those of the whole line, not folded onto x >= 0.
    """
    hx = lattice_step(xs, grid)
    k = math.ceil((xs[-1] - xs[0]) / hx)
    xg = hx * np.arange(-k, k + 1)
    interp = CubicSpline(xs, psi, extrapolate=False)

    def sample(points):
        return np.nan_to_num(interp(points), nan=0.0)

    cosm = np.cos(np.outer(grid.ps(), xg))
    panels = np.diff(xg)
    trap_w = 0.5 * (np.append(panels, 0.0) + np.append(0.0, panels))
    w = np.empty((grid.nq, grid.np))
    for i, q in enumerate(grid.qs()):
        w[i, :] = cosm @ (sample(q + 0.5 * xg) * sample(q - 0.5 * xg) * trap_w)
    return w / (2.0 * math.pi)


class TestCrossKernel:
    def test_vacuum_origin_value(self):
        # frozen from vacuum_transform_oracle(0, 0) = 0.3183098861837907 = 1/pi
        got = wigner.cross_kernel(0.0, 0.0, 0.0, 0.0)
        assert got.real == pytest.approx(1.0 / math.pi, rel=1e-12)
        assert got.imag == 0.0
        assert got.real == pytest.approx(vacuum_transform_oracle(0.0, 0.0), rel=1e-10)

    def test_matches_vacuum_transform_off_origin(self):
        for q, p in [(0.3, -1.2), (1.0, 2.0), (-0.7, 0.5)]:
            got = wigner.cross_kernel(q, p, 0.0, 0.0)
            assert got.real == pytest.approx(vacuum_transform_oracle(q, p), abs=1e-10)

    def test_integrates_to_overlap(self):
        grid = wigner.PhaseSpaceGrid(-12.0, 12.0, -8.0, 8.0, 1201, 801)
        qs, ps = grid.qs(), grid.ps()
        centre = 5.5
        vals = (
            (1.0 / math.pi)
            * np.exp(-2.0 * (qs[:, None] - centre) ** 2)
            * np.exp(-0.5 * ps[None, :] ** 2)
            * np.cos(ps[None, :] * 3.0)
        )
        total = np.trapezoid(np.trapezoid(vals, dx=grid.dp, axis=1), dx=grid.dq)
        assert total == pytest.approx(states.overlap(4.0, 7.0), abs=1e-9)

    def test_conjugate_symmetry_under_index_swap(self):
        for q, p in [(0.2, 1.1), (2.5, -3.0)]:
            a = wigner.cross_kernel(q, p, 4.0, 7.0)
            b = wigner.cross_kernel(q, p, 7.0, 4.0)
            assert a == pytest.approx(b.conjugate(), rel=1e-14)


class TestClosedForm:
    def test_vacuum_formula(self):
        spec = states.preset("vacuum")
        grid = wigner.PhaseSpaceGrid(-5.0, 5.0, -8.0, 8.0, 201, 201)
        fld = wigner.wigner_closed_form(spec, grid)
        qs, ps = grid.qs(), grid.ps()
        expected = (1.0 / math.pi) * np.exp(-2.0 * qs[:, None] ** 2 - 0.5 * ps[None, :] ** 2)
        assert np.max(np.abs(fld.values - expected)) < 1e-15
        assert fld.mass == pytest.approx(1.0, abs=1e-6)

    def test_even_cat_central_interference(self):
        spec = states.preset("even-cat(2)")
        grid = wigner.PhaseSpaceGrid(-6.0, 6.0, -8.0, 8.0, 241, 321)
        fld = wigner.wigner_closed_form(spec, grid)
        i0 = 120  # q = 0 column
        ps = grid.ps()
        n = states.normalization(spec)
        expected = (2.0 / (math.pi * n)) * np.exp(-0.5 * ps**2) * np.cos(4.0 * ps) + (
            2.0 / (math.pi * n)
        ) * np.exp(-0.5 * ps**2) * math.exp(-8.0)
        assert np.max(np.abs(fld.values[i0, :] - expected)) < 1e-14

    def test_rank_one_expansion_linearity(self):
        spec = states.preset("Y3")
        grid = wigner.PhaseSpaceGrid(-9.0, 9.0, -4.0, 4.0, 61, 41)
        fld = wigner.wigner_closed_form(spec, grid)
        n = states.normalization(spec)
        qs, ps = grid.qs(), grid.ps()
        manual = np.zeros((grid.nq, grid.np))
        for i, q in enumerate(qs):
            for j, p in enumerate(ps):
                total = 0.0 + 0.0j
                for mj, cj in spec.terms:
                    for mk, ck in spec.terms:
                        total += cj * ck * wigner.cross_kernel(q, p, mj, mk)
                manual[i, j] = total.real / n
        assert np.max(np.abs(fld.values - manual)) < 1e-12

    def test_mass_deficit_warning(self):
        spec = states.preset("Y1")
        small = wigner.PhaseSpaceGrid(-2.0, 2.0, -2.0, 2.0, 41, 41)
        with pytest.warns(UserWarning, match="mass deficit"):
            fld = wigner.wigner_closed_form(spec, small)
        assert fld.mass_deficit
        assert fld.mass < 0.9

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3", "even-cat(2)"])
    def test_bounds_and_symmetry(self, name):
        spec = states.preset(name)
        fld = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        assert fld.values.min() >= -1.0 / math.pi - 1e-9
        assert fld.values.max() <= 1.0 / math.pi + 1e-9
        # even spec: W(q, p) = W(-q, -p) = W(q, -p) on the symmetric grid
        assert np.max(np.abs(fld.values - fld.values[::-1, ::-1])) < 1e-12
        assert np.max(np.abs(fld.values - fld.values[:, ::-1])) < 1e-12


def comb(k, spacing=3.0):
    """k unit-weight teeth at (j - (k - 1)/2) * spacing."""
    return states.SuperpositionSpec(
        terms=tuple(((j - 0.5 * (k - 1)) * spacing, 1.0) for j in range(k)))


def pairwise_loop(spec, grid):
    """The closed form summed pair by pair, one outer product per (j, k)."""
    qs, ps = grid.qs(), grid.ps()
    w = np.zeros((grid.nq, grid.np))
    for mj, cj in spec.terms:
        for mk, ck in spec.terms:
            gauss = np.exp(-2.0 * (qs - 0.5 * (mj + mk)) ** 2)
            w += cj * ck * np.outer(gauss, np.exp(-0.5 * ps * ps) * np.cos(ps * (mj - mk)))
    return w / (math.pi * states.normalization(spec))


class TestPairTable:
    CASES = {name: (states.preset(name), wigner.default_grid(states.preset(name)))
             for name in ("Y1", "Y2", "Y3", "odd-cat(3)")}
    # comb fringes need dp < pi / d_max, so the combs take a narrow p window
    CASES.update({f"comb({k},3)": (comb(k), wigner.PhaseSpaceGrid(
        -1.5 * k - 5.0, 1.5 * k + 5.0, -1.0, 1.0, 301, 161)) for k in (4, 8, 16, 32, 64)})

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_pairwise_loop(self, name):
        spec, grid = self.CASES[name]
        nq, npts = grid.nq, grid.np
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the narrow p window loses mass
            got = wigner.wigner_closed_form(spec, grid).values
        loop = pairwise_loop(spec, grid)
        assert np.max(np.abs(got - loop)) <= 1e-14
        # cross_kernel is the scalar oracle of the loop
        n = states.normalization(spec)
        for i, j in ((nq // 2, npts // 2), (nq // 3, npts // 5), (2 * nq // 3, 3 * npts // 4)):
            q, p = grid.qs()[i], grid.ps()[j]
            total = sum(cj * ck * wigner.cross_kernel(q, p, mj, mk)
                        for mj, cj in spec.terms for mk, ck in spec.terms)
            assert loop[i, j] == pytest.approx(total.real / n, abs=1e-14)

    def test_wide_comb_is_fast(self):
        spec = comb(64)
        grid = wigner.default_grid(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # its default grid undersamples the fringes
            best = min(timeit.repeat(lambda: wigner.wigner_closed_form(spec, grid),
                                     number=1, repeat=3))
        assert best < 0.1

    def test_undersampled_fringes_warn(self):
        # the widest pair of comb(32, 3) gets 1.7 samples per fringe period on its default grid
        spec = comb(32)
        with pytest.warns(UserWarning, match="fringes undersampled"):
            wigner.wigner_closed_form(spec, wigner.default_grid(spec))

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3", "odd-cat(3)"])
    @pytest.mark.parametrize("counts", [(601, 401), (61, 161)])
    def test_sampled_fringes_do_not_warn(self, name, counts):
        spec = states.preset(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wigner.wigner_closed_form(spec, wigner.default_grid(spec, *counts))

    def test_field_is_not_copied(self):
        spec = states.preset("Y1")
        grid = wigner.default_grid(spec)
        tracemalloc.start()
        try:
            wigner.wigner_closed_form(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * grid.nq * grid.np


def pair_sum_oracle(spec, grid):
    """W(q, p) = sum_jk c_j c_k K(q, p; mu_j, mu_k) / N in 50-digit arithmetic.

    Every input float enters exactly; N is the same pair sum of the overlaps.
    """
    with mpmath.workdps(50):
        terms = [(mpmath.mpf(float(m)), mpmath.mpf(float(c))) for m, c in spec.terms]
        pairs = [(cj * ck, (mj + mk) / 2, mj - mk) for mj, cj in terms for mk, ck in terms]
        norm = mpmath.fsum(w * mpmath.exp(-d * d / 2) for w, _, d in pairs)
        w = np.empty((grid.nq, grid.np))
        for i, q in enumerate(grid.qs()):
            for j, p in enumerate(grid.ps()):
                q, p = mpmath.mpf(float(q)), mpmath.mpf(float(p))
                total = mpmath.fsum(wt * mpmath.exp(-2 * (q - m) ** 2) * mpmath.cos(p * d)
                                    for wt, m, d in pairs)
                w[i, j] = float(total * mpmath.exp(-p * p / 2) / (mpmath.pi * norm))
    return w


def cat_pair(d):
    return ((0.0, 1.0), (d, -1.0))


class TestConditioning:
    # the pair sum loses about eps kappa / pi, kappa = (sum_j |c_j|)^2 / N: the closed form
    # either keeps 1e-13 of W or refuses the spec by name of kappa
    SEED_2 = ((0.0, -0.5), (0.0, 1.0), (0.0, 1.0), (0.015625, -1.5))  # 1.5 |0> - 1.5 |1/64>

    @pytest.mark.filterwarnings("ignore:mass deficit", "ignore:fringes undersampled")
    @pytest.mark.parametrize("terms, refused", [
        *((name, False) for name in ["Y1", "Y2", "Y3", "vacuum", "even-cat(2)", "odd-cat(3)"]),
        (cat_pair(1e-1), False),
        *((cat_pair(d), True) for d in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)),
        (SEED_2, True),
        (((-1e-4, 1.0), (0.0, -2.0), (1e-4, 1.0)), True),
        (((-3.1, 1.0), (-3.0, -1.0), (3.0, -1.0), (3.1, 1.0)), False),  # kappa = 8e2
        (((-3.05, 1.0), (-3.0, -1.0), (3.0, -1.0), (3.05, 1.0)), True),  # kappa = 3.2e3
    ])
    def test_matches_pair_sum_oracle_or_refuses(self, terms, refused):
        spec = states.preset(terms) if isinstance(terms, str) else states.SuperpositionSpec(terms)
        half = spec.max_amplitude + 2.0
        grid = wigner.PhaseSpaceGrid(-half, half, -4.0, 4.0, 9, 9)
        if refused:
            with pytest.raises(ValueError, match=r"terms cancel: kappa = \S+ costs W .* pnd"):
                wigner.wigner_closed_form(spec, grid)
        else:
            got = wigner.wigner_closed_form(spec, grid).values
            assert np.max(np.abs(got - pair_sum_oracle(spec, grid))) <= 1e-13

    @pytest.mark.filterwarnings("ignore:mass deficit")
    @pytest.mark.parametrize("d, refused", [(0.054, False), (0.052, True)])  # kappa 1.37e3, 1.48e3
    def test_refusal_starts_at_the_budget(self, d, refused):
        # eps kappa / pi = ROUNDING_BUDGET at kappa = 1.41e3; unit-weight {+-a, +-b} has
        # N >= 4, so kappa <= 4, far inside
        spec = states.SuperpositionSpec(cat_pair(d))
        limit = math.pi * wigner.ROUNDING_BUDGET / np.finfo(float).eps
        assert (4.0 / states.normalization(spec) > limit) == refused
        grid = wigner.PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 3, 3)
        if refused:
            with pytest.raises(ValueError, match="terms cancel"):
                wigner.wigner_closed_form(spec, grid)
        else:
            wigner.wigner_closed_form(spec, grid)


class TestNumericTransform:
    def test_vacuum_matches_closed_form(self):
        spec = states.preset("vacuum")
        grid = wigner.PhaseSpaceGrid(-5.0, 5.0, -8.0, 8.0, 201, 201)
        xs, psi = sampled_wavefunction(spec, margin=8.0, n=4001)
        fnum = wigner.wigner_numeric(xs, psi, grid)
        fcf = wigner.wigner_closed_form(spec, grid)
        assert np.max(np.abs(fnum.values - fcf.values)) < 1e-8

    def test_comb_case_matches_closed_form(self):
        spec = states.preset("Y3")
        grid = wigner.PhaseSpaceGrid(-11.0, 11.0, -8.0, 8.0, 221, 161)
        xs, psi = sampled_wavefunction(spec)
        fnum = wigner.wigner_numeric(xs, psi, grid)
        fcf = wigner.wigner_closed_form(spec, grid)
        assert np.max(np.abs(fnum.values - fcf.values)) < 1e-6

    @pytest.mark.parametrize("terms", [
        "Y1", "Y2", "Y3",
        ((3.757, 1.0), (-3.757, 1.0), (7.169, 1.0), (-7.169, 1.0)),
        # the plain lattice step here, 2 dq / 5, is 4.0 sample spacings: its nodes would
        # meet the spline's error at one phase, 2.26e-12 from the closed form
        ((4.0, 1.0), (-4.0, 1.0), (7.05, 1.0), (-7.05, 1.0)),
    ], ids=["Y1", "Y2", "Y3", "Y1-jittered", "Y1-resonant"])
    def test_matches_closed_form_to_spline_accuracy(self, terms):
        # the oracle's accuracy on the default grid from 6501 samples; 1.44e-12 at worst
        spec = states.preset(terms) if isinstance(terms, str) else states.SuperpositionSpec(terms)
        grid = wigner.default_grid(spec)
        xs, psi = sampled_wavefunction(spec)
        fnum = wigner.wigner_numeric(xs, psi, grid)
        fcf = wigner.wigner_closed_form(spec, grid)
        assert np.max(np.abs(fnum.values - fcf.values)) <= 2e-12

    def test_default_step_holds_on_solver_samples(self):
        # the well state's spline error grows like hx^2 (1.4e-11 here); a step sized only to
        # the aliasing bound, 2 pi / (max|p| + 10 sigma_p), put it at 5.3e-9
        psi = solver_samples("Y1")
        half = states.preset("Y1").max_amplitude + 4.0
        grid = wigner.PhaseSpaceGrid(-half, half, -8.0, 8.0, 221, 161)
        got = wigner.wigner_numeric(psi.xs, psi.values, grid)
        fine = wigner.wigner_numeric(psi.xs, psi.values, grid, x_step=0.005)
        assert np.max(np.abs(got.values - fine.values)) <= 1e-10

    @pytest.mark.filterwarnings("ignore:mass deficit")  # 41 p points alias the fringes
    @pytest.mark.parametrize("name", ["Y1", "odd-cat(3)"])
    def test_solver_sample_tails_are_integrated(self, name):
        # solver samples reach 15 past the outer well, beyond the grid's q-extent: |psi| there
        # is still 1.5e-4 of its peak, and a cut at the q-extent missed it by >= 5.7e-10
        psi = solver_samples(name)
        grid = wigner.default_grid(states.preset(name), 61, 41)
        got = wigner.wigner_numeric(psi.xs, psi.values, grid)
        ref = per_row_reference(psi.xs, psi.values, grid)
        assert np.max(np.abs(got.values - ref)) <= 1e-14

    def test_non_uniform_samples(self):
        # xs need only increase: 6501 sinh-mapped samples, 3.8x denser at the centre
        spec = states.preset("Y3")
        grid = wigner.PhaseSpaceGrid(-11.0, 11.0, -8.0, 8.0, 221, 161)
        xs = 12.0 * np.sinh(2.0 * np.linspace(-1.0, 1.0, 6501)) / math.sinh(2.0)
        psi = np.asarray(states.position_wavefunction(spec, xs))
        fnum = wigner.wigner_numeric(xs, psi, grid)
        fcf = wigner.wigner_closed_form(spec, grid)
        assert np.max(np.abs(fnum.values - fcf.values)) <= 2e-12

    @pytest.mark.parametrize("order", ["reversed", "repeated"])
    def test_non_increasing_samples_rejected(self, order):
        xs, psi = sampled_wavefunction(states.preset("Y3"), n=2001)
        if order == "reversed":
            xs, psi = xs[::-1], psi[::-1]
        else:
            xs = xs.copy()
            xs[1000] = xs[999]
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 21, 21)
        with pytest.raises(ValueError, match="strictly increasing"):
            wigner.wigner_numeric(xs, psi, grid)

    def test_undecayed_boundary_rejected(self):
        spec = states.preset("Y1")
        xs = np.linspace(-7.0, 7.0, 2001)  # cuts through the outer humps
        psi = np.asarray(states.position_wavefunction(spec, xs))
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 41, 41)
        with pytest.raises(ValueError, match="domain too small"):
            wigner.wigner_numeric(xs, psi, grid)

    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_boundary_rule_is_relative(self, scale):
        # Y3 on +-10.3 ends at 9.3e-9 of its peak, whatever the scale of psi
        xs = np.linspace(-10.3, 10.3, 2001)
        psi = scale * np.asarray(states.position_wavefunction(states.preset("Y3"), xs))
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 21, 21)
        with pytest.raises(ValueError, match="domain too small"):
            wigner.wigner_numeric(xs, psi, grid)

    def test_step_is_keyword_only(self):
        xs, psi = sampled_wavefunction(states.preset("Y3"), n=2001)
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 21, 21)
        with pytest.raises(TypeError):
            wigner.wigner_numeric(xs, psi, grid, 0.01)

    @pytest.mark.parametrize("kwargs", [{"x_step": v} for v in (0.0, -0.02, math.inf, math.nan)])
    def test_bad_quadrature_inputs_rejected(self, kwargs):
        xs, psi = sampled_wavefunction(states.preset("Y3"), n=2001)
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 21, 21)
        with pytest.raises(ValueError, match="positive and finite"):
            wigner.wigner_numeric(xs, psi, grid, **kwargs)

    @pytest.mark.parametrize("phase", [1j, 1.0 + 0j])
    def test_complex_psi_rejected(self, phase):
        # casting to float kept only the real part: 1j * psi gave an all-zero field
        xs, psi = sampled_wavefunction(states.preset("Y3"), n=2001)
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 21, 21)
        with pytest.raises(ValueError, match="psi must be real"):
            wigner.wigner_numeric(xs, phase * psi, grid)

    def test_lost_mass_is_flagged(self):
        # a q window of +-3 holds about half of Y3's mass
        spec = states.preset("Y3")
        xs, psi = sampled_wavefunction(spec, n=2001)
        grid = wigner.PhaseSpaceGrid(-3.0, 3.0, -8.0, 8.0, 61, 41)
        with pytest.warns(UserWarning, match="mass deficit"):
            fld = wigner.wigner_numeric(xs, psi, grid)
        assert fld.mass_deficit
        assert fld.mass == pytest.approx(0.489, abs=1e-3)


class TestBlockedTransform:
    # the fold to x >= 0 needs P(q, x) even in x, not a parity-symmetric state
    SKEW = states.SuperpositionSpec(((0.0, 1.0), (3.0, 0.7), (-5.0, -0.4)))

    @pytest.mark.filterwarnings("ignore:mass deficit")  # nq = 2 cannot integrate the field
    @pytest.mark.parametrize("name", ["Y3", "odd-cat(3)", "skew"])
    @pytest.mark.parametrize("nq", [2, 63, 64, 65, 601])
    def test_matches_per_row_reference(self, name, nq):
        # 64 q rows per block: single-row, partial, exact and overflowing blocks
        spec = self.SKEW if name == "skew" else states.preset(name)
        xs, psi = sampled_wavefunction(spec, n=2001)
        grid = wigner.default_grid(spec, nq, 41)
        got = wigner.wigner_numeric(xs, psi, grid)
        assert np.max(np.abs(got.values - per_row_reference(xs, psi, grid))) <= 1e-14
        # samples cut to zero at their ends keep weight in the x columns at the trim
        # bound, and q rows 11 past the cut leave the outer blocks no column at all
        xs, psi = sampled_wavefunction(spec, margin=1.0, n=2001)
        psi[[0, -1]] = 0.0
        half = spec.max_amplitude + 12.0
        wide = wigner.PhaseSpaceGrid(-half, half, -8.0, 8.0, nq, 41)
        got = wigner.wigner_numeric(xs, psi, wide)
        assert np.max(np.abs(got.values - per_row_reference(xs, psi, wide))) <= 1e-14

    @pytest.mark.filterwarnings("ignore:mass deficit")  # 41 p points alias Y1's fringes
    @pytest.mark.parametrize("terms, n, window, a_over_b", [
        (((3.757, 1.0), (-3.757, 1.0), (7.169, 1.0), (-7.169, 1.0)), 2001, None, 13 / 3),
        ("Y1", 2001, (-2.0, 2.0, 801), 0.5),  # dq = x_step / 4: a = 1, b = 2
        ("Y1", 2601, None, 4.5),  # hx = 0.02 would be 2.0 sample spacings
    ], ids=["jittered", "narrow", "resonant"])
    def test_node_regimes_match_per_row_reference(self, terms, n, window, a_over_b):
        spec = states.preset(terms) if isinstance(terms, str) else states.SuperpositionSpec(terms)
        grid = wigner.default_grid(spec, 601, 41)
        if window is not None:
            grid = wigner.PhaseSpaceGrid(window[0], window[1], -8.0, 8.0, window[2], 41)
        xs, psi = sampled_wavefunction(spec, n=n)
        assert 2 * grid.dq / lattice_step(xs, grid) == pytest.approx(a_over_b)  # 2 dq / hx = a / b
        got = wigner.wigner_numeric(xs, psi, grid)
        assert np.max(np.abs(got.values - per_row_reference(xs, psi, grid))) <= 1e-14

    @pytest.mark.filterwarnings("ignore:mass deficit")  # 2 to 41 p points alias the fringes
    @pytest.mark.parametrize("name", ["Y3", "odd-cat(3)", "skew"])
    @pytest.mark.parametrize("window", [
        (-8.0, 8.0, 41), (-8.0, 8.0, 40), (-2.0, 8.0, 41), (-8.0, 2.0, 41),
        (1.0, 8.0, 41), (-8.0, -1.0, 41), (-8.0, 8.0, 2),
    ], ids=["p0-on-grid", "p0-off-grid", "longer-above", "longer-below", "positive",
            "negative", "two-points"])
    def test_p_mirror_matches_per_row_reference(self, name, window):
        # W(q, -p) = W(q, p): only the columns without a mirror on the longer side are computed
        spec = self.SKEW if name == "skew" else states.preset(name)
        xs, psi = sampled_wavefunction(spec, n=2001)
        half = spec.max_amplitude + 5.0
        grid = wigner.PhaseSpaceGrid(-half, half, window[0], window[1], 65, window[2])
        got = wigner.wigner_numeric(xs, psi, grid).values
        assert np.max(np.abs(got - per_row_reference(xs, psi, grid))) <= 1e-14
        ps = grid.ps()
        twin = np.abs(ps[:, None] + ps[None, :]) < 1e-9  # twin[j, k]: p_k = -p_j
        for j, k in zip(*np.nonzero(twin)):
            assert np.array_equal(got[:, j], got[:, k])  # a copy, not a second quadrature

    @pytest.mark.filterwarnings("ignore:mass deficit")  # 41 p points alias Y3's fringes
    @pytest.mark.parametrize("name", ["Y3", "odd-cat(3)", "well-Y1"])
    @pytest.mark.parametrize("nq", [64, 65, 601])
    def test_q_mirror_matches_per_row_reference(self, name, nq):
        # W(-q, p) = W(q, p) for an even or odd psi on mirrored xs and a mirrored q axis
        spec = states.preset(name.removeprefix("well-"))
        if name.startswith("well-"):
            sample = solver_samples(name.removeprefix("well-"))
            xs, psi = sample.xs, sample.values
        else:
            xs, psi = sampled_wavefunction(spec, n=2001)
        grid = wigner.default_grid(spec, nq, 41)
        got = wigner.wigner_numeric(xs, psi, grid).values
        assert np.max(np.abs(got - per_row_reference(xs, psi, grid))) <= 1e-14
        for i in range(nq // 2):
            assert np.array_equal(got[i], got[nq - 1 - i])  # a copy, not a second quadrature

    @pytest.mark.filterwarnings("ignore:mass deficit")
    @pytest.mark.parametrize("case", ["skew", "off-centre", "nudged", "xs-unmirrored"])
    def test_q_mirror_needs_every_symmetry(self, case, monkeypatch):
        # each input lacks one symmetry, so it takes the full loop: bit-equal to the loop
        # that never mirrors, and no row a copy of its twin
        spec = self.SKEW if case == "skew" else states.preset("Y3")
        xs, psi = sampled_wavefunction(spec, n=2001)
        half = spec.max_amplitude + 5.0
        lo, hi, dq = -half, half, wigner.default_grid(spec, 65, 41).dq
        if case == "off-centre":
            lo, hi = lo + 0.5 * dq, hi + 0.5 * dq
        elif case == "nudged":  # off centre by 1e-9 dq, far past round-off
            hi += 1e-9 * dq
        elif case == "xs-unmirrored":
            xs = np.linspace(-half - 1.0, half + 1.5, 2001)
            psi = states.position_wavefunction(spec, xs)
        grid = wigner.PhaseSpaceGrid(lo, hi, -8.0, 8.0, 65, 41)
        got = wigner.wigner_numeric(xs, psi, grid).values
        # only the q mirror off: the one array of 41 values tested is the p axis
        monkeypatch.setattr(wigner, "mirrored", lambda arr, sign: arr.size == 41
                            and states.mirrored(arr, sign))
        assert np.array_equal(got, wigner.wigner_numeric(xs, psi, grid).values)
        assert not any(np.array_equal(got[i], got[64 - i]) for i in range(32))
        assert np.max(np.abs(got - per_row_reference(xs, psi, grid))) <= 1e-14

    @pytest.mark.filterwarnings("ignore:mass deficit")  # 41 p points alias Y1's fringes
    @given(offset=st.floats(0.0, 1e-5), end=st.sampled_from([0, 1]), sign=st.sampled_from([-1, 1]))
    @example(offset=2e-9, end=1, sign=1)
    @example(offset=2e-7, end=1, sign=1)
    @example(offset=1e-6, end=1, sign=1)
    @example(offset=1e-13, end=1, sign=1)  # inside round-off: the columns are copied
    @settings(max_examples=8, deadline=None)
    def test_off_mirror_p_axis_matches_per_row_reference(self, offset, end, sign):
        # one end of the p axis moved by offset * dp: past round-off no column may be copied
        # from its twin.  Within it a copy stands at most states._MIRROR_TOL max |p| from its
        # column, where |dW/dp| <= (1/2 pi) Int |x psi psi| dx <= span(xs) / pi
        spec = states.preset("Y1")
        xs, psi = sampled_wavefunction(spec, n=2001)
        bounds = [-8.0, 8.0]
        bounds[end] += sign * offset * 0.4  # dp = 0.4 on 41 points
        grid = wigner.PhaseSpaceGrid(-12.0, 12.0, *bounds, 65, 41)
        got = wigner.wigner_numeric(xs, psi, grid).values
        slack = (xs[-1] - xs[0]) / math.pi * states._MIRROR_TOL * 8.0
        assert np.max(np.abs(got - per_row_reference(xs, psi, grid))) <= 1e-14 + slack

    def test_peak_memory_is_kernel_plus_field(self):
        # materialising the (nq, m + 1) product matrix (5.8 MB) would exceed the headroom;
        # the kernel spans the 201 columns p >= 0 of 401, the rest are their mirrors
        spec = states.preset("Y1")
        xs, psi = sampled_wavefunction(spec)
        grid = wigner.default_grid(spec)
        m = int(math.ceil((grid.q_max - grid.q_min) / 0.02))
        kernel_and_field = 8 * ((m + 1) * 201 + grid.nq * grid.np)
        tracemalloc.start()
        try:
            wigner.wigner_numeric(xs, psi, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * kernel_and_field


class TestIntegrals:
    def test_closed_form_unit_mass(self):
        spec = states.preset("Y1")
        fld = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        assert wigner.integrate(fld) == pytest.approx(1.0, abs=1e-4)

    def test_scaling_linearity(self):
        spec = states.preset("even-cat(2)")
        fld = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doubled = wigner.WignerField(grid=fld.grid, values=2.0 * fld.values)
        assert wigner.integrate(doubled) == pytest.approx(2.0, abs=2e-4)

    def test_mass_is_worked_out_from_values(self):
        spec = states.preset("Y1")
        fld = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        with pytest.warns(UserWarning, match="mass-deficit"):
            half = wigner.WignerField(grid=fld.grid, values=0.5 * fld.values)
            curve = marginals.marginal_from_field(half, "position")
        assert half.mass == pytest.approx(0.5 * fld.mass, rel=1e-12)
        assert half.mass_deficit and not fld.mass_deficit
        assert curve.integral() == pytest.approx(0.5, abs=1e-4)
        with pytest.raises(TypeError):
            wigner.WignerField(grid=fld.grid, values=fld.values, mass=1.0)

    def test_first_case_explicit_grid(self):
        spec = states.preset("Y1")
        grid = wigner.PhaseSpaceGrid(-12.0, 12.0, -8.0, 8.0, 601, 401)
        fld = wigner.wigner_closed_form(spec, grid)
        assert wigner.integrate(fld) == pytest.approx(1.0, abs=1e-4)

    def test_negativity_orders(self):
        vac = wigner.wigner_closed_form(
            states.preset("vacuum"), wigner.default_grid(states.preset("vacuum"))
        )
        cat = wigner.wigner_closed_form(
            states.preset("even-cat(2)"), wigner.default_grid(states.preset("even-cat(2)"))
        )
        grid = wigner.default_grid(states.preset("Y1"))
        first = wigner.wigner_closed_form(states.preset("Y1"), grid)
        cat_on_same = wigner.wigner_closed_form(states.preset("even-cat(2)"), grid)
        assert wigner.negativity_volume(vac) == pytest.approx(0.0, abs=1e-12)
        assert wigner.negativity_volume(cat) > 0.0
        assert wigner.negativity_volume(first) > wigner.negativity_volume(cat_on_same)

    @pytest.mark.parametrize("name", ["Y1", "Y3", "odd-cat(3)"])
    def test_negativity_has_one_temporary_and_the_old_bits(self, name):
        spec = states.preset(name)
        fld = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        tracemalloc.start()
        try:
            value = wigner.negativity_volume(fld)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * fld.values.nbytes
        old = wigner._trapz2d(np.maximum(-fld.values, 0.0), fld.grid.dq, fld.grid.dp)
        assert value.hex() == old.hex()

    def test_negativity_of_a_nonnegative_field_is_plus_zero(self):
        vac = wigner.wigner_closed_form(
            states.preset("vacuum"), wigner.default_grid(states.preset("vacuum"))
        )
        assert np.all(vac.values >= 0.0)
        value = wigner.negativity_volume(vac)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestGridValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            wigner.PhaseSpaceGrid(1.0, -1.0, -1.0, 1.0, 10, 10)

    @pytest.mark.parametrize("bounds", [
        (-math.inf, 1.0, -1.0, 1.0), (-1.0, math.inf, -1.0, 1.0),
        (-1.0, 1.0, -math.inf, 1.0), (-1.0, 1.0, -1.0, math.inf),
        (math.nan, 1.0, -1.0, 1.0), (-1.0, 1.0, -1.0, math.nan),
    ])
    def test_non_finite_bounds_rejected(self, bounds):
        # an infinite bound would give an all-NaN field with no mass warning
        with pytest.raises(ValueError, match="finite"):
            wigner.PhaseSpaceGrid(*bounds, 5, 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            wigner.PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, 1, 10)

    @pytest.mark.parametrize("counts", [(10.5, 10), (10, 10.0)])
    def test_non_integer_counts_rejected(self, counts):
        # refused here, not later inside qs() or ps()
        with pytest.raises(ValueError, match="integers"):
            wigner.PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, *counts)

    def test_numpy_integer_counts_accepted(self):
        grid = wigner.PhaseSpaceGrid(-1.0, 1.0, -1.0, 1.0, np.int64(11), np.int32(5))
        assert grid.qs().size == 11 and grid.ps().size == 5
