"""Photon statistics: Poisson limits, parity masks, interference, digamma."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from multicat import photon, states

mpmath.mp.dps = 40

CASES = {"Y1": (4.0, 7.0), "Y2": (1.0, 6.0), "Y3": (2.0, 6.0)}


class TestPoisson:
    def test_zero_amplitude(self):
        assert photon.poisson_pnd(0.0, 0) == 1.0
        assert photon.poisson_pnd(0.0, 3) == 0.0

    def test_unit_amplitude_vacuum_weight(self):
        assert photon.poisson_pnd(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0, 6.0, 7.0])
    def test_mean_and_variance(self, alpha):
        spec = states.SuperpositionSpec(terms=((alpha, 1.0),))
        ns = np.arange(states.min_fock_truncation(spec) + 1)
        p = photon.poisson_pnd(alpha, ns)
        mean = float(ns @ p)
        var = float(((ns - mean) ** 2) @ p)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert mean == pytest.approx(alpha * alpha, abs=1e-10)
        assert var == pytest.approx(alpha * alpha, abs=1e-10)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            photon.poisson_pnd(1.0, -1)


class TestDistribution:
    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_parity_and_normalization(self, name):
        spec = states.preset(name)
        dist = photon.qts_pnd(spec, states.min_fock_truncation(spec))
        assert dist.parity == "even"
        assert np.max(np.abs(dist.probs[1::2])) <= 1e-12
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_odd_cat_parity(self):
        dist = photon.qts_pnd(states.preset("odd-cat(2)"), 64)
        assert dist.parity == "odd"
        assert np.max(np.abs(dist.probs[0::2])) <= 1e-12

    @pytest.mark.parametrize(
        "name,humps", [("Y1", (16, 49)), ("Y2", (1, 36)), ("Y3", (4, 36))]
    )
    def test_hump_locations(self, name, humps):
        a, b = CASES[name]
        spec = states.preset(name)
        dist = photon.qts_pnd(spec, states.min_fock_truncation(spec))
        split = 0.5 * (a * a + b * b)
        evens = np.arange(0, dist.nmax + 1, 2)
        probs = dist.probs[evens]
        low = evens[np.argmax(np.where(evens <= split, probs, -1.0))]
        high = evens[np.argmax(np.where(evens > split, probs, -1.0))]
        assert abs(low - humps[0]) <= 2
        assert abs(high - humps[1]) <= 2

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_closed_form_agrees_with_fock_route(self, name):
        a, b = CASES[name]
        spec = states.preset(name)
        nmax = states.min_fock_truncation(spec)
        via_fock = photon.qts_pnd(spec, nmax).probs
        closed = photon.qts_pnd_closed_form(a, b, nmax, "even")
        assert np.max(np.abs(via_fock - closed)) < 1e-10

    def test_mean_of_coherent_state(self):
        spec = states.SuperpositionSpec(terms=((2.0, 1.0),))
        dist = photon.qts_pnd(spec, 64)
        assert dist.mean() == pytest.approx(4.0, abs=1e-10)


class TestZeroAmplitude:
    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("b", [0.5, 2.0, 5.0])
    def test_closed_forms_reach_the_limit(self, b, parity):
        # a = 0 puts the inner pair on the origin: |0> +- |0> + |b> +- |-b>
        sign = 1.0 if parity == "even" else -1.0
        spec = states.SuperpositionSpec(terms=((0.0, 1.0), (0.0, sign), (b, 1.0), (-b, sign)))
        nmax = states.min_fock_truncation(spec)
        dist = photon.qts_pnd(spec, nmax).probs
        closed = photon.qts_pnd_closed_form(0.0, b, nmax, parity)
        assert np.max(np.abs(dist - closed)) < 1e-14
        n_norm = states.normalization(spec)
        for n in range(nmax + 1):
            plain = photon._parity_factor(n, parity) * (2.0 / n_norm) * (
                photon.poisson_pnd(0.0, n) + photon.poisson_pnd(b, n)
            )
            cross = photon.inter_poissonian(0.0, b, n, parity)
            assert dist[n] - plain == pytest.approx(cross, abs=1e-14)

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_positive_amplitudes_keep_their_bits(self, name):
        # the pair form with math.log in place of the log-space xlogy: pairs (a, a), (a, b), (b, b)
        a, b = CASES[name]
        ns = np.arange(161)
        lg = special.gammaln(ns + 1.0)
        x, y, w = np.array([a, a, b]), np.array([a, b, b]), np.array([1.0, 2.0, 1.0])
        logs = np.array([math.log(v) for v in x * y])
        t = np.exp(-0.5 * (x * x + y * y) + ns[:, None] * logs - lg[:, None])
        for parity in ("even", "odd"):
            twin = 1.0 + np.exp(-2.0 * x * y) if parity == "even" else -np.expm1(-2.0 * x * y)
            norm = 2.0 * math.fsum(w * np.exp(-0.5 * (x - y) ** 2) * twin)
            direct = photon._parity_factor(ns, parity) * ((2.0 / norm) * (t @ w))
            assert np.array_equal(photon.qts_pnd_closed_form(a, b, 160, parity), direct)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            photon.qts_pnd_closed_form(-1.0, 2.0, 10)
        with pytest.raises(ValueError, match="nonnegative"):
            photon.inter_poissonian(1.0, -2.0, 4)

    @pytest.mark.parametrize("nmax", [-1, 3.5, math.nan])
    def test_bad_nmax_rejected(self, nmax):
        # refused here, not failed inside NumPy or returned over the wrong n range
        with pytest.raises(ValueError, match="nmax must be a nonnegative integer"):
            photon.qts_pnd_closed_form(2.0, 5.0, nmax)


    @pytest.mark.parametrize("nmax", [140.5, math.nan])
    def test_non_integer_pnd_truncation_rejected(self, nmax):
        with pytest.raises(ValueError, match="nmax must be an integer of at least 135"):
            photon.qts_pnd(states.preset("Y1"), nmax)


class TestInterPoissonian:
    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            photon.inter_poissonian(4.0, 7.0, 2, "bogus")

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            photon.inter_poissonian(4.0, 7.0, 2.5)

    def test_excluded_parity_vanishes(self):
        assert photon.inter_poissonian(4.0, 7.0, 3, "even") == 0.0
        assert photon.inter_poissonian(4.0, 7.0, 8, "odd") == 0.0

    def test_peaks_near_product_of_amplitudes(self):
        ns = np.arange(0, 120, 2)
        vals = [photon.inter_poissonian(4.0, 7.0, int(n), "even") for n in ns]
        assert ns[int(np.argmax(vals))] == 28  # alpha * beta

    def test_decomposition_identity(self):
        a, b = 4.0, 7.0
        spec = states.preset("Y1")
        nmax = states.min_fock_truncation(spec)
        dist = photon.qts_pnd(spec, nmax).probs
        n_norm = states.normalization(spec)
        for n in range(0, 121):
            pf = 2.0 if n % 2 == 0 else 0.0
            plain = pf * (4.0 / n_norm) * 0.5 * (
                photon.poisson_pnd(a, n) + photon.poisson_pnd(b, n)
            )
            cross = photon.inter_poissonian(a, b, n, "even")
            assert dist[n] - plain == pytest.approx(cross, abs=1e-12)

    def test_parts_sum_to_one(self):
        a, b = 4.0, 7.0
        n_norm = states.normalization(states.preset("Y1"))
        ns = np.arange(0, 161)
        pf = np.where(ns % 2 == 0, 2.0, 0.0)
        plain = pf * (4.0 / n_norm) * 0.5 * (photon.poisson_pnd(a, ns) + photon.poisson_pnd(b, ns))
        cross = np.array([photon.inter_poissonian(a, b, int(n), "even") for n in ns])
        assert float((plain + cross).sum()) == pytest.approx(1.0, abs=1e-10)

    def test_odd_pattern_decomposition(self):
        # alternating signs |a> - |-a> + |b> - |-b| keep only odd n
        a, b = 2.0, 6.0
        spec = states.SuperpositionSpec(
            terms=((a, 1.0), (-a, -1.0), (b, 1.0), (-b, -1.0))
        )
        nmax = states.min_fock_truncation(spec)
        dist = photon.qts_pnd(spec, nmax)
        assert dist.parity == "odd"
        n_norm = 2.0 / photon._PairSum((a, b), parity="odd").scale  # the pair N
        assert n_norm == pytest.approx(states.normalization(spec), rel=1e-13)
        for n in range(0, nmax + 1):
            pf = 0.0 if n % 2 == 0 else 2.0
            plain = pf * (4.0 / n_norm) * 0.5 * (
                photon.poisson_pnd(a, n) + photon.poisson_pnd(b, n)
            )
            cross = photon.inter_poissonian(a, b, n, "odd")
            assert dist.probs[n] - plain == pytest.approx(cross, abs=1e-12)


class TestEnvelope:
    def test_equal_amplitudes_reduce_to_poisson_shape(self):
        ratios = [
            photon.envelope(2.0, 2.0, float(n)) / photon.poisson_pnd(2.0, n)
            for n in (0, 2, 4, 8)
        ]
        assert np.max(np.abs(np.diff(ratios))) < 1e-12

    def test_valley_between_humps(self):
        assert photon.envelope(4.0, 7.0, 16.0) > photon.envelope(4.0, 7.0, 30.0)

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_integer_consistency_with_distribution(self, name):
        a, b = CASES[name]
        spec = states.preset(name)
        nmax = states.min_fock_truncation(spec)
        dist = photon.qts_pnd(spec, nmax).probs
        for n in range(0, min(nmax, 120) + 1):
            pf = 2.0 if n % 2 == 0 else 0.0
            assert pf * photon.envelope(a, b, float(n)) == pytest.approx(dist[n], abs=1e-10)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            photon.envelope(4.0, 7.0, -0.5)

    def test_non_finite_n_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            photon.envelope(4.0, 7.0, math.nan)

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    @pytest.mark.parametrize("include", [True, False])
    def test_array_calls_match_scalar_calls(self, name, include):
        a, b = CASES[name]
        ns = np.arange(0.0, states.min_fock_truncation(states.preset(name)) + 0.25, 0.25)
        for fn in (photon.envelope, photon.envelope_derivative):
            scalars = [fn(a, b, float(n), include) for n in ns]
            assert all(type(v) is float for v in scalars)
            np.testing.assert_allclose(fn(a, b, ns, include), scalars, rtol=1e-14, atol=0.0)


class TestEnvelopeDerivative:
    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    @pytest.mark.parametrize("include", [True, False])
    def test_matches_central_differences(self, name, include):
        a, b = CASES[name]
        h = 1e-5
        for n in np.concatenate([[0.5], np.arange(1.0, 121.0)]):
            an = photon.envelope_derivative(a, b, float(n), include)
            fd = (
                photon.envelope(a, b, float(n) + h, include)
                - photon.envelope(a, b, float(n) - h, include)
            ) / (2.0 * h)
            denom = max(abs(an), abs(fd))
            assert abs(an - fd) <= 1e-6 * denom

    def test_equal_amplitude_tail_decreasing(self):
        for n in np.arange(6.5, 40.0, 0.5):
            assert photon.envelope_derivative(2.0, 2.0, float(n)) < 0.0

    def test_first_case_sign_pattern_without_interference(self):
        d = lambda n: photon.envelope_derivative(4.0, 7.0, n, include_interference=False)
        assert d(10.0) > 0.0  # rising into the first hump
        assert d(20.0) < 0.0  # falling past it
        assert d(40.0) > 0.0  # rising into the second hump
        assert d(60.0) < 0.0  # tail

    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_interference_toggle_barely_moves_extrema(self, name):
        a, b = CASES[name]
        with_term = photon.envelope_extrema(a, b, 0.5, 120.0, True)
        without = photon.envelope_extrema(a, b, 0.5, 120.0, False)
        assert len(with_term) == len(without)
        assert np.max(np.abs(with_term - without)) < 0.5

    # frozen from the unit-step scan with bisection to 1e-10 that Brent's method replaced
    BISECTION_ROOTS = {
        ("Y1", True): [15.504564581002342, 30.044917809806066, 48.497837056725984],
        ("Y1", False): [15.49739982173196, 29.73101134461467, 48.49914966835058],
        ("Y2", True): [10.136827338807052, 35.49884269302129],
        ("Y2", False): [9.945614765834762, 35.49884269302129],
        ("Y3", True): [3.4897000296914484, 14.995674112724373, 35.498842684872216],
        ("Y3", False): [3.489654179866193, 14.76675979924039, 35.49884269302129],
    }

    @pytest.mark.parametrize("name,include", sorted(BISECTION_ROOTS))
    def test_extrema_match_bisection_roots(self, name, include):
        a, b = CASES[name]
        got = photon.envelope_extrema(a, b, 0.5, 120.0, include)
        want = self.BISECTION_ROOTS[(name, include)]
        assert got.shape == (len(want),)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n_min,n_max", [
        (0.0, math.nan), (0.0, math.inf), (50.0, 10.0), (math.nan, 10.0), (-1.0, 10.0),
    ], ids=["nan", "inf", "reversed", "nan-min", "negative"])
    def test_bad_extrema_bounds_rejected(self, n_min, n_max):
        # refused here, not inside NumPy's arange or as an empty result
        with pytest.raises(ValueError, match="n_min <= n_max"):
            photon.envelope_extrema(2.0, 5.0, n_min, n_max)


def pair_spec(mags, coeffs, parity):
    """sum_i c_i (|a_i> +- |-a_i>) as a spec."""
    sign = 1.0 if parity == "even" else -1.0
    return states.SuperpositionSpec(
        terms=tuple(t for a, c in zip(mags, coeffs) for t in ((a, c), (-a, sign * c))))


def three_term_form(a, b, ns, parity):
    """The hand-expanded two-pair distribution: (2/N) [T_a + T_b + 2 T_x] per n, and 2/N."""
    s = 1.0 if parity == "even" else -1.0
    n_norm = (2.0 * (1.0 + s * math.exp(-2.0 * a * a)) + 2.0 * (1.0 + s * math.exp(-2.0 * b * b))
              + 4.0 * (math.exp(-0.5 * (a - b) ** 2) + s * math.exp(-0.5 * (a + b) ** 2)))
    lg = special.gammaln(ns + 1.0)
    t_a = np.exp(-a * a + 2.0 * ns * math.log(a) - lg)
    t_b = np.exp(-b * b + 2.0 * ns * math.log(b) - lg)
    t_x = np.exp(-0.5 * (a * a + b * b) + ns * math.log(a * b) - lg)
    psi = special.digamma(ns + 1.0)
    slopes = (t_a * (2.0 * math.log(a) - psi), t_b * (2.0 * math.log(b) - psi),
              2.0 * t_x * (math.log(a * b) - psi))
    return 2.0 / n_norm, (t_a, t_b, 2.0 * t_x), slopes


class TestPairSum:
    PAIRS = {
        2: ((1.5, 4.0), (1.0, -0.7)),
        3: ((0.8, 2.5, 5.0), (2.0, 1.0, -0.5)),
        4: ((1.0, 3.0, 4.5, 6.0), (0.5, -1.0, 1.5, 1.0)),
        8: (tuple(0.75 * (j + 1) for j in range(8)),
            tuple(math.exp(-(((j - 3.5) / 2.5) ** 2)) for j in range(8))),
    }

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("count", sorted(PAIRS))
    def test_matches_fock_route(self, count, parity):
        spec = pair_spec(*self.PAIRS[count], parity)
        nmax = states.min_fock_truncation(spec)
        ns = np.arange(nmax + 1)
        value, _ = photon.pair_envelope(spec, ns)
        dist = photon.qts_pnd(spec, nmax).probs
        assert np.max(np.abs(photon._parity_factor(ns, parity) * value - dist)) <= 1e-14

    @pytest.mark.parametrize("include", [True, False])
    def test_slope_matches_central_differences(self, include):
        spec = pair_spec(*self.PAIRS[3], "odd")
        ns, h = np.arange(0.5, 60.0, 0.75), 1e-5
        _, slope = photon.pair_envelope(spec, ns, include)
        fd = (photon.pair_envelope(spec, ns + h, include)[0]
              - photon.pair_envelope(spec, ns - h, include)[0]) / (2.0 * h)
        assert np.max(np.abs(slope - fd)) <= 1e-8 * np.max(np.abs(slope))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_two_pair_functions_match_three_term_form(self, name, parity):
        a, b = CASES[name]
        ns = np.arange(161)
        scale, terms, _ = three_term_form(a, b, ns, parity)
        pf = photon._parity_factor(ns, parity)
        np.testing.assert_allclose(photon.qts_pnd_closed_form(a, b, 160, parity),
                                   pf * scale * sum(terms), rtol=1e-14, atol=0.0)
        cross = [photon.inter_poissonian(a, b, int(n), parity) for n in ns]
        np.testing.assert_allclose(cross, pf * scale * terms[2], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("include", [True, False])
    @pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
    def test_two_pair_envelope_matches_three_term_form(self, name, include):
        a, b = CASES[name]
        ns = np.arange(0.0, 160.25, 0.25)
        scale, terms, slopes = three_term_form(a, b, ns, "even")
        keep = slice(None) if include else slice(2)
        want = scale * sum(terms[keep])
        np.testing.assert_allclose(photon.envelope(a, b, ns, include), want, rtol=1e-14, atol=0.0)
        want = scale * sum(slopes[keep])
        got = photon.envelope_derivative(a, b, ns, include)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 0.1])
    def test_small_odd_amplitudes_do_not_cancel(self, a):
        closed = photon.qts_pnd_closed_form(a, a, 64, "odd")
        assert abs(closed.sum() - 1.0) <= 1e-14
        fock = photon.qts_pnd(states.preset(f"odd-cat({a})"), 64).probs
        assert np.max(np.abs(closed - fock)) <= 1e-14

    def test_spec_without_parity_rejected(self):
        spec = states.SuperpositionSpec(terms=((4.0, 1.0), (7.0, 1.0)))
        with pytest.raises(ValueError, match="even or odd"):
            photon.pair_envelope(spec, 3.0)

    def test_zero_amplitude_rejected(self):
        # a term at mu = 0 is half a pair, even with a zero weight in an odd spec
        specs = [
            states.SuperpositionSpec(terms=((0.0, 1.0), (2.0, 1.0), (-2.0, 1.0))),
            states.SuperpositionSpec(terms=((0.0, 1.0), (0.0, 1.0), (2.0, 1.0), (-2.0, 1.0))),
            states.preset("vacuum"),
            states.SuperpositionSpec(terms=((0.0, 0.0), (2.0, 1.0), (-2.0, -1.0))),
        ]
        assert [spec.parity for spec in specs] == ["even", "even", "even", "odd"]
        for spec in specs:
            with pytest.raises(ValueError, match="strictly positive"):
                photon.pair_envelope(spec, 3.0)


class TestDigamma:
    def test_euler_mascheroni(self):
        # frozen from 40-digit evaluation: psi(1) = -0.5772156649015329
        assert photon.digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-13)

    def test_recurrence_step(self):
        assert photon.digamma(2.0) - photon.digamma(1.0) == pytest.approx(1.0, abs=1e-13)

    def test_against_high_precision_oracle(self):
        # frozen from mpmath.digamma(10.5) = 2.3030010342976865
        assert photon.digamma(10.5) == pytest.approx(2.3030010342976865, abs=1e-13)
        for x in [0.07, 0.5, 1.461632, 3.25, 9.99, 10.01, 55.5, 199.5]:
            assert photon.digamma(x) == pytest.approx(
                float(mpmath.digamma(x)), abs=1e-12 * max(1.0, abs(float(mpmath.digamma(x))))
            )

    def test_recurrence_across_domain(self):
        for x in np.linspace(0.05, 199.0, 997):
            lhs = photon.digamma(float(x) + 1.0) - photon.digamma(float(x))
            assert lhs == pytest.approx(1.0 / float(x), abs=1e-12 * max(1.0, 1.0 / x))

    def test_reflection(self):
        for x in np.linspace(0.05, 0.95, 181):
            lhs = photon.digamma(1.0 - float(x)) - photon.digamma(float(x))
            rhs = math.pi / math.tan(math.pi * float(x))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_domain_guard(self):
        with pytest.raises(ValueError, match="outside supported domain"):
            photon.digamma(0.0)
        with pytest.raises(ValueError, match="outside supported domain"):
            photon.digamma(-3.5)
        with pytest.raises(ValueError, match="outside supported domain"):
            photon.digamma(math.nan)
