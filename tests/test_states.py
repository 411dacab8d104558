"""Superposition construction, overlaps, normalization and Fock expansions.

Expected values tagged as frozen were computed with independent
quadrature oracles (trapezoidal integrals of the explicit Gaussian
wavefunctions on fine grids); the oracles are kept here so the numbers
can be regenerated.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multicat import marginals, photon, states, wellsolver, wigner

AMP = (2.0 / math.pi) ** 0.25


def overlap_oracle(m1, m2):
    """Quadrature of the two coherent wavefunctions, independent of the closed form."""
    lo, hi = min(m1, m2) - 12.0, max(m1, m2) + 12.0
    q = np.linspace(lo, hi, 40001)
    return float(np.trapezoid(AMP * np.exp(-((q - m1) ** 2)) * AMP * np.exp(-((q - m2) ** 2)), q))


def gram_sum_mp(terms):
    """50-digit Gram sum N and the size of its terms, (sum c)^2 + sum |c_j c_k expm1(...)|."""
    with mpmath.workdps(50):
        cs = [mpmath.mpf(c) for _, c in terms]
        pairs = [
            cj * ck * mpmath.expm1(-(mpmath.mpf(mj) - mpmath.mpf(mk)) ** 2 / 2)
            for (mj, _), cj in zip(terms, cs)
            for (mk, _), ck in zip(terms, cs)
        ]
        head = mpmath.fsum(cs) ** 2
        return float(head + mpmath.fsum(pairs)), float(head + mpmath.fsum(abs(p) for p in pairs))


def normalization_oracle(spec):
    """Quadrature of the unnormalized superposition's squared wavefunction."""
    m = spec.max_amplitude + 12.0
    q = np.linspace(-m, m, 100001)
    s = np.zeros_like(q)
    for mu, c in spec.terms:
        s += c * AMP * np.exp(-((q - mu) ** 2))
    return float(np.trapezoid(s * s, q))


class TestOverlap:
    def test_identical_states(self):
        assert states.overlap(3.7, 3.7) == 1.0

    def test_four_seven(self):
        # frozen from overlap_oracle(4, 7) = 0.011108996538242304
        assert states.overlap(4.0, 7.0) == pytest.approx(1.1108996538242306e-2, rel=1e-12)
        assert states.overlap(4.0, 7.0) == pytest.approx(overlap_oracle(4.0, 7.0), rel=1e-9)

    def test_two_minus_two(self):
        # frozen from overlap_oracle(2, -2) = 3.3546262790251185e-4
        assert states.overlap(2.0, -2.0) == pytest.approx(3.3546262790251185e-4, rel=1e-12)
        assert states.overlap(2.0, -2.0) == pytest.approx(overlap_oracle(2.0, -2.0), rel=1e-9)

    @given(
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_symmetric_and_bounded(self, a, b):
        o = states.overlap(a, b)
        assert o == states.overlap(b, a)
        assert 0.0 <= o <= 1.0
        # positive unless exp(-(a-b)^2/2) underflows float64 (separation ~38.6)
        if abs(a - b) < 37.0:
            assert o > 0.0
        # strictly below one once the separation is resolvable in float64
        if abs(a - b) > 1e-6:
            assert o < 1.0


class TestNormalization:
    def test_even_cat_two(self):
        spec = states.preset("even-cat(2)")
        expected = 2.0 * (1.0 + math.exp(-8.0))  # 2.000670925255805
        assert states.normalization(spec) == pytest.approx(expected, rel=1e-14)
        assert states.normalization(spec) == pytest.approx(normalization_oracle(spec), rel=1e-10)

    def test_first_case_gram_sum(self):
        spec = states.preset("Y1")
        expected = (
            4.0
            + 2.0 * math.exp(-32.0)
            + 2.0 * math.exp(-98.0)
            + 4.0 * math.exp(-4.5)
            + 4.0 * math.exp(-60.5)
        )  # 4.044435986152995
        assert states.normalization(spec) == pytest.approx(expected, rel=1e-14)
        assert states.normalization(spec) == pytest.approx(4.044435986152995, rel=1e-12)
        assert states.normalization(spec) == pytest.approx(normalization_oracle(spec), rel=1e-10)

    def test_vacuum(self):
        assert states.normalization(states.preset("vacuum")) == 1.0

    def test_degenerate_spec_rejected(self):
        spec = states.SuperpositionSpec(terms=((0.0, 1.0), (0.0, -1.0)))
        with pytest.raises(ValueError, match="unnormalizable"):
            states.normalization(spec)

    @given(
        st.lists(
            st.tuples(st.floats(-8, 8), st.floats(0.25, 2.0)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60)
    def test_negation_and_permutation_invariance(self, terms):
        spec = states.SuperpositionSpec(terms=tuple(terms))
        n = states.normalization(spec)
        flipped = states.SuperpositionSpec(terms=tuple((-m, c) for m, c in terms))
        shuffled = states.SuperpositionSpec(terms=tuple(reversed(terms)))
        assert states.normalization(flipped) == pytest.approx(n, rel=1e-12)
        assert states.normalization(shuffled) == pytest.approx(n, rel=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-5.0, 5.0), st.floats(-1e-4, 1e-4)),
                st.one_of(st.just(0.0), st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200)
    def test_gram_sum_against_mpmath(self, terms):
        assume(any(c != 0.0 for _, c in terms))
        spec = states.SuperpositionSpec(terms=tuple(terms))
        exact, size = gram_sum_mp(spec.terms)
        try:
            n = states.normalization(spec)
        except ValueError:
            assert exact <= 1e-14 * size
            return
        assert abs(n - exact) <= 1e-14 * size

    @given(st.floats(-6.0, 0.0), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=60)
    def test_near_cancelling_cats_keep_their_digits(self, log_a, sign):
        a = 10.0**log_a
        spec = states.SuperpositionSpec(terms=((a, 1.0), (-a, sign)))
        exact, _ = gram_sum_mp(spec.terms)
        assert states.normalization(spec) == pytest.approx(exact, rel=1e-14)
        mass = states.fock_amplitudes(spec, 64).captured_mass
        assert abs(mass - 1.0) <= 1e-12


class TestPositionWavefunction:
    def test_vacuum_at_origin(self):
        got = states.position_wavefunction(states.preset("vacuum"), 0.0)
        assert got == pytest.approx((2.0 / math.pi) ** 0.25, rel=1e-14)  # 0.8932438417380023

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3", "even-cat(2)"])
    def test_even_symmetry(self, name):
        spec = states.preset(name)
        q = np.linspace(0.0, 10.0, 501)
        left = states.position_wavefunction(spec, -q)
        right = states.position_wavefunction(spec, q)
        assert np.max(np.abs(left - right)) < 1e-14

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3", "even-cat(2)", "odd-cat(2)", "vacuum"])
    def test_square_normalized(self, name):
        spec = states.preset(name)
        m = spec.max_amplitude + 10.0
        q = np.linspace(-m, m, 80001)
        psi = states.position_wavefunction(spec, q)
        assert np.trapezoid(psi**2, q) == pytest.approx(1.0, abs=1e-8)

    def test_first_case_density_peaks(self):
        spec = states.preset("Y1")
        q = np.linspace(-13.0, 13.0, 260001)
        d = np.asarray(states.position_wavefunction(spec, q)) ** 2
        peaks = q[1:-1][(d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])]
        assert len(peaks) == 4
        for target in (-7.0, -4.0, 4.0, 7.0):
            assert np.min(np.abs(peaks - target)) < 0.05


class TestFockAmplitudes:
    def test_vacuum(self):
        exp = states.fock_amplitudes(states.preset("vacuum"), 64)
        assert exp.amplitudes[0] == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(exp.amplitudes[1:])) == 0.0

    def test_even_state_kills_odd_numbers(self):
        exp = states.fock_amplitudes(states.preset("Y1"), 150)
        assert np.max(np.abs(exp.amplitudes[1::2])) <= 1e-12

    def test_odd_cat_kills_even_numbers(self):
        exp = states.fock_amplitudes(states.preset("odd-cat(2)"), 64)
        assert np.max(np.abs(exp.amplitudes[0::2])) <= 1e-12

    def test_even_cat_distribution_shape(self):
        exp = states.fock_amplitudes(states.preset("even-cat(2)"), 64)
        probs = exp.amplitudes**2
        assert int(np.argmax(probs)) == 4
        assert np.max(np.abs(probs[1::2])) == 0.0

    def test_captured_mass_monotone_in_truncation(self):
        spec = states.preset("even-cat(2)")
        masses = [states.fock_amplitudes(spec, n).captured_mass for n in (64, 80, 100)]
        assert masses[0] <= masses[1] <= masses[2] <= 1.0 + 1e-15
        assert masses[-1] == pytest.approx(1.0, abs=1e-12)

    def test_truncation_rule_enforced(self):
        spec = states.preset("Y1")
        assert states.min_fock_truncation(spec) == 135
        with pytest.raises(ValueError, match="truncation too small"):
            states.fock_amplitudes(spec, 130)

    @pytest.mark.parametrize("a", [1.4e154, 1e200, -1.7e308])
    def test_amplitude_too_large_for_the_rule_rejected(self, a):
        # mu^2 overflows past |mu| ~ 1.3e154: refused by name, not an OverflowError
        spec = states.SuperpositionSpec(terms=((a, 1.0), (-a, 1.0)))
        with pytest.raises(ValueError, match=re.escape(f"amplitude {abs(a)!r} too large")):
            states.min_fock_truncation(spec)
        assert states.min_fock_truncation(states.preset("even-cat(1.3e154)")) > 1.6e308

    @pytest.mark.parametrize("nmax", [140.5, 141.0, math.nan, "141"])
    def test_non_integer_nmax_rejected(self, nmax):
        # refused with the bound, not failed inside NumPy
        with pytest.raises(ValueError, match="nmax must be an integer of at least 135"):
            states.fock_amplitudes(states.preset("Y1"), nmax)

    def test_numpy_integer_nmax_accepted(self):
        spec = states.preset("Y1")
        got = states.fock_amplitudes(spec, np.int64(141))
        assert got.nmax == 141 and isinstance(got.nmax, int)
        assert np.array_equal(got.amplitudes, states.fock_amplitudes(spec, 141).amplitudes)

    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_cancelling_second_difference_refused(self, h):
        # |-h> - 2|0> + |h> has N ~ 3 h^4 from O(h^2) terms
        spec = states.SuperpositionSpec(terms=((-h, 1.0), (0.0, -2.0), (h, 1.0)))
        with pytest.raises(ValueError, match="captured mass"):
            states.fock_amplitudes(spec, 64)

    @pytest.mark.parametrize("name", ["odd-cat(1e-8)", "Y1", "Y2", "Y3", "odd-cat(3)"])
    def test_captured_mass_contract_accepted(self, name):
        spec = states.preset(name)
        exp = states.fock_amplitudes(spec, states.min_fock_truncation(spec))
        assert abs(exp.captured_mass - 1.0) <= states.TRUNCATION_TOLERANCE

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_tail_mass_below_tolerance(self, name):
        spec = states.preset(name)
        exp = states.fock_amplitudes(spec, states.min_fock_truncation(spec))
        assert 1.0 - exp.captured_mass < states.TRUNCATION_TOLERANCE

    @given(
        st.lists(
            st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 2.0)),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_parity_selection_for_mirror_specs(self, halves, antisymmetric):
        sign = -1.0 if antisymmetric else 1.0
        terms = []
        for m, c in halves:
            terms.append((m, c))
            terms.append((-m, sign * c))
        spec = states.SuperpositionSpec(terms=tuple(terms))
        exp = states.fock_amplitudes(spec, 96)
        killed = exp.amplitudes[0::2] if antisymmetric else exp.amplitudes[1::2]
        assert np.max(np.abs(killed)) <= 1e-12


class TestPresets:
    def test_first_case_amplitudes(self):
        spec = states.preset("Y1")
        assert sorted(m for m, _ in spec.terms) == [-7.0, -4.0, 4.0, 7.0]
        assert all(c == 1.0 for _, c in spec.terms)

    def test_comb_case_amplitudes(self):
        spec = states.preset("Y3")
        assert sorted(m for m, _ in spec.terms) == [-6.0, -2.0, 2.0, 6.0]

    def test_middle_case_amplitudes(self):
        spec = states.preset("Y2")
        assert sorted(m for m, _ in spec.terms) == [-6.0, -1.0, 1.0, 6.0]

    def test_vacuum_single_term(self):
        assert states.preset("vacuum").terms == ((0.0, 1.0),)

    def test_odd_cat_signs(self):
        spec = states.preset("odd-cat(1.5)")
        assert sorted(spec.terms) == [(-1.5, -1.0), (1.5, 1.0)]
        assert spec.parity == "odd"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            states.preset("Y9")


class TestSpecValidation:
    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            states.SuperpositionSpec(terms=())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            states.SuperpositionSpec(terms=((math.inf, 1.0),))

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            states.SuperpositionSpec(terms=((1.0, 0.0), (2.0, 0.0)))


class TestParity:
    @pytest.mark.parametrize("terms,parity", [
        (((2.0, 1.0), (-2.0, 1.0)), "even"),
        (((2.0, 1.0), (-2.0, -1.0)), "odd"),
        (((-2.0, -1.0), (2.0, 1.0 + 1e-13)), "odd"),
        (((2.0, 1.0), (-2.0, 0.5)), "none"),
        (((1.0, 1.0), (3.0, 1.0)), "none"),
        (((0.0, 1.0),), "even"),
        # coefficients within PARITY_TOLERANCE of zero fit both; even is checked first
        (((1.0, 1e-13), (-1.0, 1e-13)), "even"),
        (((2.0, 1.0), (-2.0, -1.0), (0.0, 1.0)), "none"),
    ])
    def test_parity_of_the_term_list(self, terms, parity):
        assert states.SuperpositionSpec(terms=terms).parity == parity


class TestImmutableResults:
    @pytest.mark.parametrize(
        "make, fields",
        [
            (lambda a: states.FockExpansion(amplitudes=a, nmax=24), ("amplitudes",)),
            (lambda a: photon.PhotonDistribution(probs=a), ("probs",)),
            (lambda a: wigner.WignerField(grid=wigner.PhaseSpaceGrid(0.0, 1.0, 0.0, 1.0, 5, 5),
                                          values=a.reshape(5, 5)), ("values",)),
            (lambda a: marginals.MarginalCurve(axis="position", coordinates=a, densities=a),
             ("coordinates", "densities")),
            (lambda a: wellsolver.DiscretizedWavefunction(xs=a, values=a, energy=0.0),
             ("xs", "values")),
        ],
        ids=["FockExpansion", "PhotonDistribution", "WignerField", "MarginalCurve",
             "DiscretizedWavefunction"],
    )
    def test_arrays_are_read_only_copies(self, make, fields):
        source = np.linspace(0.0, 1.0, 25)
        result = make(source)
        for name in fields:
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name).flat[0] = 7.0
        source[0] = 7.0  # the caller's array stays the caller's
        for name in fields:
            assert getattr(result, name).flat[0] == 0.0
