"""Photon-number statistics of line-coherent-state superpositions.

The primary route to the distribution is squaring the Fock amplitudes of
the state (log-space throughout).  For the even/odd four-component
states with amplitudes {+-a, +-b} the distribution factors into a parity
mask times a smooth envelope,

    P(n) = [1 +- (-1)^n] * (2/N) * [e^(-a^2) a^(2n) + e^(-b^2) b^(2n)
                                    + 2 e^(-(a^2+b^2)/2) (a b)^n] / n!,

whose last term is the interference between the two Poissonian humps.
Treating n as continuous via n! = Gamma(n+1) gives the envelope function
and its derivative, which locates the envelope extrema through the
digamma function implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import gammaln, xlogy

from .states import SuperpositionSpec, fock_amplitudes, readonly

__all__ = [
    "PhotonDistribution",
    "EnvelopeSample",
    "poisson_pnd",
    "qts_pnd",
    "qts_pnd_closed_form",
    "inter_poissonian",
    "envelope",
    "envelope_derivative",
    "envelope_sample",
    "envelope_extrema",
    "digamma",
    "quad_normalization",
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


@dataclass(frozen=True)
class EnvelopeSample:
    """Envelope value and derivative at one continuous photon number."""

    n: float
    value: float
    derivative: float


def poisson_pnd(alpha: float, n) -> np.ndarray | float:
    """Poisson photon-number distribution e^(-a^2) a^(2n) / n! of a coherent state.

    Mean and variance are both alpha^2.  Evaluated in log space; ``n`` may
    be a scalar or an integer array.
    """
    ns = np.asarray(n)
    if np.any(ns < 0):
        raise ValueError("photon number must be nonnegative")
    a2 = float(alpha) * float(alpha)
    if a2 == 0.0:
        out = np.where(ns == 0, 1.0, 0.0)
    else:
        out = np.exp(-a2 + ns * math.log(a2) - gammaln(ns + 1.0))
    if np.isscalar(n):
        return float(out)
    return out


def _detect_parity(spec: SuperpositionSpec) -> str:
    if spec.is_symmetric():
        return "even"
    if spec.is_antisymmetric():
        return "odd"
    return "none"


def qts_pnd(spec: SuperpositionSpec, nmax: int) -> PhotonDistribution:
    """Photon-number distribution P(n) = |<n|state>|^2 via Fock amplitudes.

    This is the ground-truth route; :func:`qts_pnd_closed_form` is the
    independent cross-check for the four-component states.
    """
    expansion = fock_amplitudes(spec, nmax)
    probs = expansion.amplitudes**2
    return PhotonDistribution(probs=probs, parity=_detect_parity(spec))


def quad_normalization(alpha: float, beta: float, parity: str = "even") -> float:
    """Squared norm of |a> +- |-a> +- |b> +- |-b| with the natural sign pattern.

    Even: all plus signs.  Odd: alternating signs (+a, -(-a), +b, -(-b)),
    which keeps only odd Fock components.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    s = 1.0 if parity == "even" else -1.0
    a, b = float(alpha), float(beta)
    return (
        2.0 * (1.0 + s * math.exp(-2.0 * a * a))
        + 2.0 * (1.0 + s * math.exp(-2.0 * b * b))
        + 4.0 * (math.exp(-0.5 * (a - b) ** 2) + s * math.exp(-0.5 * (a + b) ** 2))
    )


def _parity_factor(n, parity: str):
    ns = np.asarray(n)
    sign = np.where(ns % 2 == 0, 1.0, -1.0)
    return 1.0 + sign if parity == "even" else 1.0 - sign


def qts_pnd_closed_form(alpha: float, beta: float, nmax: int, parity: str = "even") -> np.ndarray:
    """Closed-form distribution for the four-component states, as a cross-check.

    P(n) = [1 +- (-1)^n] (2/N) [P_cs(n;a) + P_cs(n;b)
                                 + 2 e^(-(a^2+b^2)/2) (a b)^n / n!].

    Powers are taken in log space with 0 log 0 = 0, so a zero amplitude
    gives the limit in which that pair sits on the vacuum.
    """
    a, b = float(alpha), float(beta)
    if min(a, b) < 0.0:
        raise ValueError("closed form needs nonnegative amplitudes")
    n = quad_normalization(a, b, parity)
    ns = np.arange(nmax + 1)
    lg = gammaln(ns + 1.0)
    t_a = np.exp(-a * a + xlogy(2.0 * ns, a) - lg)
    t_b = np.exp(-b * b + xlogy(2.0 * ns, b) - lg)
    t_x = np.exp(-0.5 * (a * a + b * b) + xlogy(ns, a * b) - lg)
    return _parity_factor(ns, parity) * (2.0 / n) * (t_a + t_b + 2.0 * t_x)


def inter_poissonian(alpha: float, beta: float, n: int, parity: str = "even") -> float:
    """Cross term of the distribution between the two Poissonian humps.

    [1 +- (-1)^n] * (4/N) * e^(-(a^2+b^2)/2) (a b)^n / n!, the exact
    Fock-space interference contribution; subtracting the plain sum of
    Poissonians from the full distribution leaves exactly this value.
    """
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    a, b = float(alpha), float(beta)
    if min(a, b) < 0.0:
        raise ValueError("closed form needs nonnegative amplitudes")
    pf = float(_parity_factor(n, parity))
    if pf == 0.0:
        return 0.0
    nn = quad_normalization(a, b, parity)
    log_core = -0.5 * (a * a + b * b) + xlogy(n, a * b) - math.lgamma(n + 1.0)
    return pf * (4.0 / nn) * math.exp(log_core)


def _envelope_terms(alpha: float, beta: float, n: float) -> Tuple[float, float, float]:
    """Log-space Poisson terms (T_a, T_b, T_x) at continuous n, with 1/Gamma(n+1)."""
    a, b = float(alpha), float(beta)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("envelope requires strictly positive amplitudes")
    lg = math.lgamma(n + 1.0)
    t_a = math.exp(-a * a + 2.0 * n * math.log(a) - lg)
    t_b = math.exp(-b * b + 2.0 * n * math.log(b) - lg)
    t_x = math.exp(-0.5 * (a * a + b * b) + n * math.log(a * b) - lg)
    return t_a, t_b, t_x


def envelope(alpha: float, beta: float, n: float, include_interference: bool = True) -> float:
    """Smooth envelope of the even four-component distribution at continuous n.

    With the interference term this is (2/N)(T_a + T_b + 2 T_x); without it,
    the plain sum of the two Poissonians (2/N)(T_a + T_b).  At integer n the
    full envelope times the parity factor reproduces the distribution.
    """
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    t_a, t_b, t_x = _envelope_terms(alpha, beta, n)
    nn = quad_normalization(alpha, beta, "even")
    total = t_a + t_b + (2.0 * t_x if include_interference else 0.0)
    return (2.0 / nn) * total


def envelope_derivative(
    alpha: float, beta: float, n: float, include_interference: bool = True
) -> float:
    """d/dn of the envelope, using d(x^n)/dn = x^n ln x and dGamma via digamma.

    (2/N) [T_a (2 ln a - psi) + T_b (2 ln b - psi) + 2 T_x (ln ab - psi)]
    with psi = digamma(n + 1); the interference term is dropped when
    ``include_interference`` is false.  Zeros locate the envelope extrema.
    """
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    a, b = float(alpha), float(beta)
    t_a, t_b, t_x = _envelope_terms(a, b, n)
    psi = digamma(n + 1.0)
    nn = quad_normalization(a, b, "even")
    total = t_a * (2.0 * math.log(a) - psi) + t_b * (2.0 * math.log(b) - psi)
    if include_interference:
        total += 2.0 * t_x * (math.log(a * b) - psi)
    return (2.0 / nn) * total


def envelope_sample(
    alpha: float, beta: float, n: float, include_interference: bool = True
) -> EnvelopeSample:
    """Envelope value and derivative bundled for export."""
    return EnvelopeSample(
        n=float(n),
        value=envelope(alpha, beta, n, include_interference),
        derivative=envelope_derivative(alpha, beta, n, include_interference),
    )


def envelope_extrema(
    alpha: float,
    beta: float,
    n_min: float,
    n_max: float,
    include_interference: bool = True,
    tol: float = 1e-10,
) -> np.ndarray:
    """Zeros of the envelope derivative in [n_min, n_max].

    Brackets sign changes by a unit-step scan, then bisects each bracket.
    """

    def deriv(x: float) -> float:
        return envelope_derivative(alpha, beta, x, include_interference)

    grid = np.arange(n_min, n_max, 1.0)
    grid = np.append(grid, n_max)
    roots = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        f_lo, f_hi = deriv(lo), deriv(hi)
        if f_lo == 0.0:
            roots.append(lo)
            continue
        if f_lo * f_hi > 0.0:
            continue
        a_, b_ = float(lo), float(hi)
        while b_ - a_ > tol:
            mid = 0.5 * (a_ + b_)
            f_mid = deriv(mid)
            if f_mid == 0.0:
                a_ = b_ = mid
                break
            if f_lo * f_mid < 0.0:
                b_ = mid
            else:
                a_, f_lo = mid, f_mid
        roots.append(0.5 * (a_ + b_))
    return np.array(roots)


# Asymptotic series coefficients B_2k / (2k), k = 1..7.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_DIGAMMA_SWITCH = 10.0


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Arguments below 10 are lifted with psi(x) = psi(x + 1) - 1/x, then the
    de Moivre asymptotic series is applied; accuracy is better than 1e-12
    across the supported domain.  Nonpositive x raises ValueError.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma: argument {x} outside supported domain (x > 0)")
    acc = 0.0
    while x < _DIGAMMA_SWITCH:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * u
    return acc + math.log(x) - 0.5 / x - tail
