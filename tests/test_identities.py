"""Identities that tie the Wigner function, the marginals and the photon numbers together.

- Royer: pi W(0, 0) = sum_n (-1)^n P(n), the mean parity (A. Royer, Phys. Rev.
  A 15, 449 (1977)).
- Mean photon number: with q = (a + a^dagger)/2 and p = i(a^dagger - a),
  <n> = <q^2> + <p^2>/4 - 1/2.
- A parity eigenstate has pi W(0, 0) = +-1 exactly, so the sampled ground
  state of a symmetric well pins its numeric Wigner field at the origin.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multicat import marginals, photon, states, wellsolver, wigner

PRESETS = ["Y1", "Y2", "Y3", "even-cat(2)", "odd-cat(3)", "vacuum"]

#: The 1- to 5-term specs of test_states' invariance tests, with signed weights.
SPEC_TERMS = st.lists(
    st.tuples(st.floats(-8, 8), st.one_of(st.floats(-2.0, -0.25), st.floats(0.25, 2.0))),
    min_size=1,
    max_size=5,
)

#: A 3 x 3 grid whose centre is the origin; it misses most of the mass on purpose.
ORIGIN = wigner.PhaseSpaceGrid(-0.1, 0.1, -0.1, 0.1, 3, 3)

pytestmark = pytest.mark.filterwarnings("ignore:mass deficit", "ignore:fringes undersampled")


def fock_route(terms):
    """The spec and its photon-number distribution, or None where the Fock route refuses it."""
    spec = states.SuperpositionSpec(terms=tuple(terms))
    try:
        return spec, photon.qts_pnd(spec, states.min_fock_truncation(spec))
    except ValueError:
        return None


def check_royer(spec, dist):
    w00 = wigner.wigner_closed_form(spec, ORIGIN).values[1, 1]
    signs = np.where(np.arange(dist.probs.size) % 2 == 0, 1.0, -1.0)
    assert abs(math.pi * w00 - math.fsum(signs * dist.probs)) <= 1e-13


def check_mean_photon_number(spec, dist):
    half = spec.max_amplitude + 8.0
    qs = marginals.position_marginal(spec, np.linspace(-half, half, 8001))
    ps = marginals.momentum_marginal(spec, np.linspace(-14.0, 14.0, 8001))
    q2 = np.trapezoid(qs.coordinates**2 * qs.densities, qs.coordinates)
    p2 = np.trapezoid(ps.coordinates**2 * ps.densities, ps.coordinates)
    n_mean = dist.mean()
    assert abs(q2 + p2 / 4.0 - 0.5 - n_mean) <= 1e-12 * max(1.0, n_mean)


class TestRoyer:
    @pytest.mark.parametrize("name", PRESETS)
    def test_presets(self, name):
        check_royer(*fock_route(states.preset(name).terms))

    @given(SPEC_TERMS)
    @settings(max_examples=120)
    # a vacuum scaled by -0.0221 from three terms at one amplitude
    @example([(0.0, -1.5220914483567578), (0.0, -0.5), (0.0, 2.0)])
    # 1.5 |0> - 1.5 |1/64>: kappa = 1.6e4, so the closed form refuses it
    @example([(0.0, -0.5), (0.0, 1.0), (0.0, 1.0), (0.015625, -1.5)])
    def test_random_specs(self, terms):
        route = fock_route(terms)
        assume(route is not None)
        try:
            check_royer(*route)
        except ValueError as exc:  # a cancelling pair sum, refused as the Fock route refuses
            assert "kappa" in str(exc)
            assume(False)


class TestMeanPhotonNumber:
    @pytest.mark.parametrize("name", PRESETS)
    def test_presets(self, name):
        check_mean_photon_number(*fock_route(states.preset(name).terms))

    @given(SPEC_TERMS)
    @settings(max_examples=120)
    def test_random_specs(self, terms):
        route = fock_route(terms)
        assume(route is not None)
        check_mean_photon_number(*route)


class TestWellParity:
    @pytest.mark.parametrize("name,sign", [
        ("Y1", 1.0), ("Y2", 1.0), ("Y3", 1.0), ("odd-cat(3)", -1.0), ("even-cat(2)", 1.0),
    ])
    def test_numeric_wigner_at_the_origin(self, name, sign):
        _, psi, _ = wellsolver.solve_well(states.preset(name), gamma=2.0)
        fld = wigner.wigner_numeric(psi.xs, psi.values, ORIGIN)
        assert abs(math.pi * fld.values[1, 1] - sign) <= 1e-9
