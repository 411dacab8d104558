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
digamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .states import SuperpositionSpec, fock_amplitudes, readonly

__all__ = [
    "PhotonDistribution",
    "poisson_pnd",
    "qts_pnd",
    "qts_pnd_closed_form",
    "inter_poissonian",
    "envelope",
    "envelope_derivative",
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


def _terms(a: float, b: float, ns: np.ndarray) -> np.ndarray:
    """Poisson terms (T_a, T_b, T_x) at photon numbers ``ns``, stacked on axis 0.

    T_a = e^(-a^2) a^(2n) / Gamma(n+1), T_b likewise, and the interference
    term T_x = e^(-(a^2+b^2)/2) (a b)^n / Gamma(n+1).  Powers are taken in
    log space with 0 log 0 = 0, so a zero amplitude gives its vacuum limit.
    """
    if min(a, b) < 0.0:
        raise ValueError("photon terms need nonnegative amplitudes")
    logs = np.array([
        -a * a + special.xlogy(2.0 * ns, a),
        -b * b + special.xlogy(2.0 * ns, b),
        -0.5 * (a * a + b * b) + special.xlogy(ns, a * b),
    ])
    return np.exp(logs - special.gammaln(ns + 1.0))


def poisson_pnd(alpha: float, n) -> np.ndarray | float:
    """Poisson photon-number distribution e^(-a^2) a^(2n) / n! of a coherent state.

    Mean and variance are both alpha^2.  Evaluated in log space; ``n`` may
    be a scalar or an integer array.
    """
    a, ns = abs(float(alpha)), _photon_numbers(n)
    return _like(ns, _terms(a, a, ns)[0])


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


def _parity_sign(parity: str) -> float:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return 1.0 if parity == "even" else -1.0


def quad_normalization(alpha: float, beta: float, parity: str = "even") -> float:
    """Squared norm of |a> +- |-a> +- |b> +- |-b| with the natural sign pattern.

    Even: all plus signs.  Odd: alternating signs (+a, -(-a), +b, -(-b)),
    which keeps only odd Fock components.
    """
    s = _parity_sign(parity)
    a, b = float(alpha), float(beta)
    return (
        2.0 * (1.0 + s * math.exp(-2.0 * a * a))
        + 2.0 * (1.0 + s * math.exp(-2.0 * b * b))
        + 4.0 * (math.exp(-0.5 * (a - b) ** 2) + s * math.exp(-0.5 * (a + b) ** 2))
    )


def _parity_factor(n, parity: str):
    """1 +- (-1)^n: 2 on the kept parity, 0 on the other."""
    return 1.0 + _parity_sign(parity) * np.where(np.asarray(n) % 2 == 0, 1.0, -1.0)


def qts_pnd_closed_form(alpha: float, beta: float, nmax: int, parity: str = "even") -> np.ndarray:
    """Closed-form distribution for the four-component states, as a cross-check.

    P(n) = [1 +- (-1)^n] (2/N) [P_cs(n;a) + P_cs(n;b)
                                 + 2 e^(-(a^2+b^2)/2) (a b)^n / n!].

    A zero amplitude gives the limit in which that pair sits on the vacuum.
    """
    a, b = float(alpha), float(beta)
    ns = np.arange(nmax + 1)
    t_a, t_b, t_x = _terms(a, b, ns)
    return _parity_factor(ns, parity) * (2.0 / quad_normalization(a, b, parity)) * (
        t_a + t_b + 2.0 * t_x
    )


def inter_poissonian(alpha: float, beta: float, n: int, parity: str = "even") -> float:
    """Cross term of the distribution between the two Poissonian humps.

    [1 +- (-1)^n] * (4/N) * e^(-(a^2+b^2)/2) (a b)^n / n!, the exact
    Fock-space interference contribution; subtracting the plain sum of
    Poissonians from the full distribution leaves exactly this value.
    A non-integer ``n`` raises ValueError.
    """
    ns = _photon_numbers(n)
    if (ns != np.floor(ns)).any():
        raise ValueError("photon number must be an integer")
    a, b = float(alpha), float(beta)
    pf = _parity_factor(ns, parity)
    t_x = _terms(a, b, ns)[2]
    return _like(ns, pf * (4.0 / quad_normalization(a, b, parity)) * t_x)


def _envelope_parts(alpha: float, beta: float, n):
    """Photon numbers, Poisson terms and 2/N of the even envelope at continuous n."""
    ns = _photon_numbers(n)
    a, b = float(alpha), float(beta)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("envelope requires strictly positive amplitudes")
    return ns, _terms(a, b, ns), 2.0 / quad_normalization(a, b, "even")


def envelope(alpha: float, beta: float, n, include_interference: bool = True):
    """Smooth envelope of the even four-component distribution at continuous n.

    With the interference term this is (2/N)(T_a + T_b + 2 T_x); without it,
    the plain sum of the two Poissonians (2/N)(T_a + T_b).  At integer n the
    full envelope times the parity factor reproduces the distribution.
    ``n`` may be a scalar (a float is returned) or an array.
    """
    ns, (t_a, t_b, t_x), scale = _envelope_parts(alpha, beta, n)
    total = t_a + t_b + (2.0 * t_x if include_interference else 0.0)
    return _like(ns, scale * total)


def envelope_derivative(alpha: float, beta: float, n, include_interference: bool = True):
    """d/dn of the envelope, using d(x^n)/dn = x^n ln x and dGamma via digamma.

    (2/N) [T_a (2 ln a - psi) + T_b (2 ln b - psi) + 2 T_x (ln ab - psi)]
    with psi = digamma(n + 1); the interference term is dropped when
    ``include_interference`` is false.  Zeros locate the envelope extrema.
    ``n`` may be a scalar (a float is returned) or an array.
    """
    ns, (t_a, t_b, t_x), scale = _envelope_parts(alpha, beta, n)
    a, b = float(alpha), float(beta)
    psi = special.digamma(ns + 1.0)
    total = t_a * (2.0 * math.log(a) - psi) + t_b * (2.0 * math.log(b) - psi)
    if include_interference:
        total += 2.0 * t_x * (math.log(a * b) - psi)
    return _like(ns, scale * total)


#: Absolute tolerance in n to which ``envelope_extrema`` locates each zero.
EXTREMA_XTOL = 1e-10


def envelope_extrema(
    alpha: float,
    beta: float,
    n_min: float,
    n_max: float,
    include_interference: bool = True,
) -> np.ndarray:
    """Zeros of the envelope derivative in [n_min, n_max], located to EXTREMA_XTOL.

    The derivative is evaluated on a unit-step grid; each sign change is
    refined with Brent's method and each exact zero on the grid is kept.
    """

    def deriv(x: float) -> float:
        return envelope_derivative(alpha, beta, x, include_interference)

    grid = np.append(np.arange(n_min, n_max, 1.0), n_max)
    sign = np.sign(envelope_derivative(alpha, beta, grid, include_interference))
    roots = [brentq(deriv, grid[i], grid[i + 1], xtol=EXTREMA_XTOL)
             for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
    return np.sort(np.concatenate([grid[sign == 0.0], roots]))


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0, from SciPy.

    Nonpositive or non-finite x raises ValueError.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"digamma: argument {x} outside supported domain (x > 0)")
    return float(special.digamma(x))
