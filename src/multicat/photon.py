"""Photon-number statistics of line-coherent-state superpositions.

The primary route to the distribution is squaring the Fock amplitudes of
the state (log-space throughout).  An even or odd state is a sum of +-
pairs c_i (|a_i> +- |-a_i>), and its distribution is a parity mask times
a smooth envelope, one sum over pairs of one kernel T:

    P(n) = [1 +- (-1)^n] (2/N) sum_ik c_i c_k e^(-(a_i^2 + a_k^2)/2) (a_i a_k)^n / n!.

Its off-diagonal terms are the interference between the Poissonian humps
i = k; the (alpha, beta) functions are the case of two unit-weight pairs.
With n! = Gamma(n+1) the envelope and its slope (via digamma) extend to
continuous n, which locates the envelope extrema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import SuperpositionSpec, fock_amplitudes, photon_grid, readonly

__all__ = [
    "PhotonDistribution",
    "poisson_pnd",
    "qts_pnd",
    "qts_pnd_closed_form",
    "inter_poissonian",
    "envelope",
    "envelope_derivative",
    "envelope_extrema",
    "pair_envelope",
    "digamma",
]


@dataclass(frozen=True)
class PhotonDistribution:
    """Probabilities over n = 0..nmax with an optional exact parity."""

    probs: np.ndarray
    parity: str = "none"

    def __post_init__(self):
        object.__setattr__(self, "probs", readonly(self.probs))
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"parity must be even/odd/none, got {self.parity!r}")

    @property
    def nmax(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)


def _photon_numbers(n) -> np.ndarray:
    """``n`` as a float array; negative or non-finite photon numbers raise ValueError."""
    ns = np.asarray(n, dtype=float)
    if not np.isfinite(ns).all():
        raise ValueError("photon number must be finite")
    if (ns < 0).any():
        raise ValueError("photon number must be nonnegative")
    return ns


def _like(ns: np.ndarray, out: np.ndarray) -> np.ndarray | float:
    """A float for a scalar photon number, the array otherwise."""
    return float(out) if ns.ndim == 0 else out


def _parity_sign(parity: str) -> float:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 1.0 if parity == "even" else -1.0


def _parity_factor(n, parity: str):
    """1 +- (-1)^n: 2 on the kept parity, 0 on the other."""
    return 1.0 + _parity_sign(parity) * np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)


class _PairSum:
    """Pair sum sum_ik c_i c_k T_ik(n) of the state sum_i c_i (|a_i> + s|-a_i>), and 2/N.

    c_i = 1 unless given; one row per pair i <= k (weight 2 c_i c_k off the
    diagonal).  T is in log space with 0 log 0 = 0 (a zero amplitude gives the
    vacuum), N = 2 sum_ik c_i c_k e^(-(a_i - a_k)^2/2) (1 + s e^(-2 a_i a_k)).
    """

    def __init__(self, mags, coeffs=None, parity: str = "even"):
        a = np.asarray(mags, dtype=float)
        c = np.ones(a.size) if coeffs is None else np.asarray(coeffs, dtype=float)
        if (a < 0.0).any():
            raise ValueError("photon terms need nonnegative amplitudes")
        i, k = np.nonzero(np.tri(a.size, dtype=bool).T)  # i <= k, row by row
        self.weights = np.where(i == k, 1.0, 2.0) * c[i] * c[k]
        self.plain = np.where(i == k, self.weights, 0.0)  # the Poissonian humps alone
        self.log_scale = -0.5 * (a[i] * a[i] + a[k] * a[k])
        self.product = a[i] * a[k]
        twin = (1.0 + np.exp(-2.0 * self.product) if _parity_sign(parity) > 0.0
                else -np.expm1(-2.0 * self.product))  # no cancellation at small odd amplitudes
        norm = 2.0 * math.fsum(self.weights * np.exp(-0.5 * (a[i] - a[k]) ** 2) * twin)
        if not norm > 0.0:
            raise ValueError("unnormalizable state: the pair sum N is not positive")
        self.scale = 2.0 / norm

    def terms(self, ns) -> np.ndarray:
        """T at photon numbers ``ns``, one row per pair on the last axis."""
        import scipy.special as special  # on use: import multicat loads NumPy alone

        ns = np.asarray(ns, dtype=float)[..., None]
        return np.exp(self.log_scale + special.xlogy(ns, self.product) - special.gammaln(ns + 1.0))

    def value(self, ns, weights) -> np.ndarray:
        """(2/N) sum_r w_r T_r(n) for the row weights ``weights``."""
        return self.scale * (self.terms(ns) @ weights)

    def slope(self, ns, weights) -> np.ndarray:
        """d/dn of ``value``: d(x^n)/dn = x^n ln x and dGamma(n+1)/dn via digamma."""
        import scipy.special as special  # on use: import multicat loads NumPy alone

        psi = special.digamma(np.asarray(ns, dtype=float) + 1.0)[..., None]
        return self.scale * ((self.terms(ns) * (np.log(self.product) - psi)) @ weights)

    def slope_and_curvature(self, ns, weights) -> tuple:
        """``slope`` and its d/dn, (2/N) sum_r w_r T_r ((ln x_r - psi)^2 - psi'), from one T."""
        import scipy.special as special  # on use: import multicat loads NumPy alone

        t, d = self.terms(ns), np.log(self.product) - special.digamma(ns + 1.0)[..., None]
        psi1 = special.zeta(2.0, ns + 1.0)[..., None]  # psi'(n+1); polygamma(1, .) is 6x slower
        return self.scale * ((t * d) @ weights), self.scale * ((t * (d * d - psi1)) @ weights)

    def envelope_weights(self, include_interference: bool) -> np.ndarray:
        if not (self.product > 0.0).all():
            raise ValueError("envelope requires strictly positive amplitudes")
        return self.weights if include_interference else self.plain


def poisson_pnd(alpha: float, n) -> np.ndarray | float:
    """Poisson photon-number distribution e^(-a^2) a^(2n) / n! of a coherent state.

    Mean and variance are both alpha^2.  Evaluated in log space; ``n`` may
    be a scalar or an integer array.
    """
    ns = _photon_numbers(n)
    return _like(ns, _PairSum((abs(float(alpha)),)).terms(ns)[..., 0])


def qts_pnd(spec: SuperpositionSpec, nmax: int) -> PhotonDistribution:
    """Photon-number distribution P(n) = |<n|state>|^2 via Fock amplitudes.

    This is the ground-truth route; the pair sums (:func:`qts_pnd_closed_form`,
    :func:`pair_envelope`) are the independent cross-check.
    """
    expansion = fock_amplitudes(spec, nmax)
    probs = expansion.amplitudes**2
    return PhotonDistribution(probs=probs, parity=spec.parity)


def qts_pnd_closed_form(alpha: float, beta: float, nmax: int, parity: str = "even") -> np.ndarray:
    """Closed-form distribution of |a> +- |-a> + |b> +- |-b>, as a cross-check.

    P(n) = [1 +- (-1)^n] (2/N) [T_aa + T_bb + 2 T_ab](n).  A zero amplitude
    gives the limit in which that pair sits on the vacuum.  An ``nmax``
    that is not a nonnegative integer, or past ``photon_grid``'s cap, raises
    ValueError.
    """
    if not isinstance(nmax, (int, np.integer)) or nmax < 0:
        raise ValueError(f"nmax must be a nonnegative integer, got {nmax!r}")
    pairs = _PairSum((alpha, beta), parity=parity)
    ns = photon_grid(max(alpha, beta), nmax)
    return _parity_factor(ns, parity) * pairs.value(ns, pairs.weights)


def inter_poissonian(alpha: float, beta: float, n: int, parity: str = "even") -> float:
    """Cross term of the distribution between the two Poissonian humps.

    [1 +- (-1)^n] (4/N) e^(-(a^2+b^2)/2) (a b)^n / n!: the full distribution
    minus the plain sum of Poissonians.  A non-integer ``n`` raises ValueError.
    """
    ns = _photon_numbers(n)
    if (ns != np.floor(ns)).any():
        raise ValueError("photon number must be an integer")
    pairs = _PairSum((alpha, beta), parity=parity)
    return _like(ns, _parity_factor(ns, parity) * pairs.value(ns, pairs.weights - pairs.plain))


def pair_envelope(spec: SuperpositionSpec, n, include_interference: bool = True):
    """Envelope (2/N) sum_ik c_i c_k T_ik(n) of an even or odd spec, and its slope in n.

    The pairs are the terms at mu > 0 with their coefficients.  Returns
    (value, slope), floats for a scalar ``n``; at integer n the value times
    1 +- (-1)^n is the distribution, and without the interference only the
    humps c_i^2 T_ii are kept.  A spec without parity or with a term at zero
    (half a pair) raises ValueError.
    """
    ns = _photon_numbers(n)
    parity = spec.parity
    if parity == "none":
        raise ValueError("pair envelope needs an even or odd spec (terms mirrored under mu -> -mu)")
    mags, coeffs = zip(*((m, c) for m, c in spec.terms if m >= 0.0))
    pairs = _PairSum(mags, coeffs, parity)
    weights = pairs.envelope_weights(include_interference)
    return _like(ns, pairs.value(ns, weights)), _like(ns, pairs.slope(ns, weights))


def envelope(alpha: float, beta: float, n, include_interference: bool = True):
    """Envelope (2/N)(T_aa + T_bb + 2 T_ab) of |a> + |-a> + |b> + |-b> at continuous n.

    Without the interference term, the plain sum of the two Poissonians
    (2/N)(T_aa + T_bb).  ``n`` may be a scalar (a float is returned) or an array.
    """
    ns = _photon_numbers(n)
    pairs = _PairSum((alpha, beta))
    return _like(ns, pairs.value(ns, pairs.envelope_weights(include_interference)))


def envelope_derivative(alpha: float, beta: float, n, include_interference: bool = True):
    """d/dn of the envelope, using d(x^n)/dn = x^n ln x and dGamma via digamma.

    (2/N) [T_aa (2 ln a - psi) + T_bb (2 ln b - psi) + 2 T_ab (ln ab - psi)]
    with psi = digamma(n + 1); the interference term is dropped when
    ``include_interference`` is false.  Zeros locate the envelope extrema.
    ``n`` may be a scalar (a float is returned) or an array.
    """
    ns = _photon_numbers(n)
    pairs = _PairSum((alpha, beta))
    return _like(ns, pairs.slope(ns, pairs.envelope_weights(include_interference)))


#: Absolute tolerance in n to which ``envelope_extrema`` locates each zero, and its step cap.
EXTREMA_XTOL, EXTREMA_MAX_STEPS = 1e-10, 64


def envelope_extrema(alpha: float, beta: float, n_min: float, n_max: float,
                     include_interference: bool = True) -> np.ndarray:
    """Zeros of the envelope derivative in [n_min, n_max], located to EXTREMA_XTOL.

    Exact zeros on a unit-step grid are kept, and all its sign changes are refined
    at once from their midpoints: Newton steps (psi' = zeta(2, n+1)) inside each
    shrinking closed bracket, bisection where a step leaves it or is NaN, until each step
    is at most EXTREMA_XTOL or 4 float64 spacings of n, the larger (RuntimeError after
    EXTREMA_MAX_STEPS); near n = 9e6 round-off blurs the zero over about +-1e-4.
    Bounds other than finite 0 <= n_min <= n_max, or past ``photon_grid``'s cap, raise ValueError.
    """
    grid = photon_grid(max(alpha, beta), n_max, 1.0, n_min)
    pairs = _PairSum((alpha, beta))
    weights = pairs.envelope_weights(include_interference)
    sign = np.sign(pairs.slope(grid, weights))
    left = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    lo, hi, rising = grid[left], grid[left + 1], sign[left] < 0.0
    x, moving = 0.5 * (lo + hi), np.ones(left.size, dtype=bool)
    tol = np.maximum(EXTREMA_XTOL, 4.0 * np.spacing(hi))  # float64 resolves no finer at large n
    for _ in range(EXTREMA_MAX_STEPS):
        if not moving.any():
            break
        slope, curvature = pairs.slope_and_curvature(x, weights)
        lo, hi = np.where((slope < 0.0) == rising, (x, hi), (lo, x))  # x before the zero: new lo
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - slope / curvature
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        moving, x = moving & (np.abs(new - x) > tol), np.where(moving, new, x)
    if moving.any():
        raise RuntimeError(f"extrema near n {x[moving]} unresolved after {EXTREMA_MAX_STEPS} steps")
    return np.sort(np.concatenate([grid[sign == 0.0], x]))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0, from SciPy.

    Nonpositive or non-finite x raises ValueError.
    """
    import scipy.special as special  # on use: import multicat loads NumPy alone

    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma: argument {x} outside supported domain (x > 0)")
    return float(special.digamma(x))
