"""Wigner fields: kernels, closed form vs direct transform, integrals, bounds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from multicat import states, wigner


def sampled_wavefunction(spec, margin=6.0, n=6501):
    m = spec.max_amplitude + margin
    xs = np.linspace(-m, m, n)
    return xs, np.asarray(states.position_wavefunction(spec, xs))


def vacuum_transform_oracle(q, p):
    """Direct quadrature of the Wigner transform of the vacuum wavefunction."""
    x = np.linspace(-16.0, 16.0, 16001)
    amp = (2.0 / math.pi) ** 0.25
    integrand = np.exp(1j * p * x) * amp * np.exp(-((q + x / 2) ** 2)) * amp * np.exp(
        -((q - x / 2) ** 2)
    )
    return float(np.real(np.trapezoid(integrand, x)) / (2.0 * math.pi))


def per_row_reference(xs, psi, grid, half_width=None):
    """The quadrature one q row at a time over [-L, L], x step 0.02; L defaults to the q-extent."""
    if half_width is None:
        half_width = grid.q_max - grid.q_min
    nx = 2 * int(math.ceil(half_width / 0.02)) + 1
    xg = np.linspace(-half_width, half_width, nx)
    hx = xg[1] - xg[0]
    interp = CubicSpline(xs, psi, extrapolate=False)

    def sample(points):
        return np.nan_to_num(interp(points), nan=0.0)

    cosm = np.cos(np.outer(grid.ps(), xg))
    trap_w = np.full(nx, hx)
    trap_w[0] = trap_w[-1] = 0.5 * hx
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

    def test_undecayed_boundary_rejected(self):
        spec = states.preset("Y1")
        xs = np.linspace(-7.0, 7.0, 2001)  # cuts through the outer humps
        psi = np.asarray(states.position_wavefunction(spec, xs))
        grid = wigner.PhaseSpaceGrid(-8.0, 8.0, -4.0, 4.0, 41, 41)
        with pytest.raises(ValueError, match="domain too small"):
            wigner.wigner_numeric(xs, psi, grid)

    @pytest.mark.parametrize(
        "kwargs",
        [{"x_step": v} for v in (0.0, -0.02, math.inf, math.nan)]
        + [{"x_half_width": v} for v in (0.0, -1.0, math.inf, math.nan)],
    )
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
        spec = states.preset("Y3")
        xs, psi = sampled_wavefunction(spec, n=2001)
        grid = wigner.default_grid(spec, 61, 41)
        with pytest.warns(UserWarning, match="mass deficit"):
            fld = wigner.wigner_numeric(xs, psi, grid, x_half_width=0.001)
        assert fld.mass_deficit
        assert fld.mass < 0.01


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
        # L = 3 is inside every inner block's reach: no trim below the m + 1 columns
        got = wigner.wigner_numeric(xs, psi, grid, x_half_width=3.0)
        ref = per_row_reference(xs, psi, grid, half_width=3.0)
        assert np.max(np.abs(got.values - ref)) <= 1e-14
        # samples cut to zero at their ends keep weight in the x columns at the trim
        # bound, and q rows 11 past the cut leave the outer blocks no column at all
        xs, psi = sampled_wavefunction(spec, margin=1.0, n=2001)
        psi[[0, -1]] = 0.0
        half = spec.max_amplitude + 12.0
        wide = wigner.PhaseSpaceGrid(-half, half, -8.0, 8.0, nq, 41)
        got = wigner.wigner_numeric(xs, psi, wide)
        assert np.max(np.abs(got.values - per_row_reference(xs, psi, wide))) <= 1e-14

    def test_peak_memory_is_kernel_plus_field(self):
        # materialising the (nq, m + 1) product matrix (5.8 MB) would exceed the headroom
        spec = states.preset("Y1")
        xs, psi = sampled_wavefunction(spec)
        grid = wigner.default_grid(spec)
        m = int(math.ceil((grid.q_max - grid.q_min) / 0.02))
        kernel_and_field = 8 * ((m + 1) * grid.np + grid.nq * grid.np)
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
