"""Weighted superpositions of coherent states on the position line.

A coherent state with real amplitude ``mu`` is the minimum-uncertainty
Gaussian wave packet

    <q|mu> = (2/pi)^(1/4) * exp(-(q - mu)^2),

so its position density is a normal distribution centred at ``q = mu``
with standard deviation 1/2, and its momentum density has standard
deviation 1 (hbar = 1).  A superposition is a finite list of
(amplitude, coefficient) terms; the state is

    |S> = N^(-1/2) * sum_j c_j |mu_j>,   N = sum_jk c_j c_k <mu_k|mu_j>.

Everything in this module is pure and immutable, so values can be shared
freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "SuperpositionSpec",
    "FockExpansion",
    "overlap",
    "normalization",
    "position_wavefunction",
    "fock_amplitudes",
    "min_fock_truncation",
    "photon_grid",
    "MAX_FOCK_ROWS",
    "preset",
    "PRESET_NAMES",
]

# Position-space amplitude prefactor (2/pi)^(1/4).
_AMP_NORM = (2.0 / math.pi) ** 0.25

#: Fraction of the squared norm allowed beyond the Fock truncation.
TRUNCATION_TOLERANCE = 1e-12

#: Most numbers a photon-number grid (``photon_grid``), and so a Fock truncation,
#: may hold.  A float64 array of 2**24 rows is 128 MiB; ``fock_amplitudes`` peaks
#: near six of them (768 MiB) and the CLI's envelope sums near eight.
MAX_FOCK_ROWS = 2**24

#: Largest term mismatch against the mirrored term list that still counts as parity.
PARITY_TOLERANCE = 1e-12

#: Largest |psi| allowed at either end of a sampled wavefunction, relative to
#: max |psi|; ``wellsolver.ground_state`` and ``wigner.wigner_numeric`` refuse more.
BOUNDARY_DECAY = 1e-10

#: Relative round-off within which ``mirrored`` takes an array as its own mirror image.
_MIRROR_TOL = 1e-14


@dataclass(frozen=True)
class SuperpositionSpec:
    """A finite superposition ``sum_j coeff_j |mu_j>`` of line coherent states.

    ``terms`` is a sequence of ``(mu, coeff)`` pairs with real line
    amplitude ``mu`` and signed real weight ``coeff``.  ``parity`` names the
    state's symmetry under mu -> -mu: ``"even"``, ``"odd"`` or ``"none"``.
    """

    terms: Tuple[Tuple[float, float], ...]
    label: Optional[str] = None

    def __post_init__(self):
        terms = tuple((float(m), float(c)) for m, c in self.terms)
        if not terms:
            raise ValueError("superposition needs at least one term")
        for m, c in terms:
            if not (math.isfinite(m) and math.isfinite(c)):
                raise ValueError(f"non-finite term ({m}, {c})")
        if all(c == 0.0 for _, c in terms):
            raise ValueError("at least one coefficient must be nonzero")
        object.__setattr__(self, "terms", terms)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([m for m, _ in self.terms])

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c in self.terms])

    @property
    def max_amplitude(self) -> float:
        return max(abs(m) for m, _ in self.terms)

    @property
    def parity(self) -> str:
        """``"even"``, ``"odd"`` or ``"none"``: how mu -> -mu maps the term list.

        Even if it leaves the terms invariant, odd if it flips every
        coefficient's sign, each within PARITY_TOLERANCE; even is checked first.
        """
        have = sorted(self.terms)
        for name, sign in (("even", 1.0), ("odd", -1.0)):
            want = sorted((-m, sign * c) for m, c in self.terms)
            if all(abs(a - b) <= PARITY_TOLERANCE and abs(x - y) <= PARITY_TOLERANCE
                   for (a, x), (b, y) in zip(have, want)):
                return name
        return "none"


def readonly(values) -> np.ndarray:
    """A write-protected float copy, so results stay immutable; an owned read-only one is kept."""
    if not (isinstance(values, np.ndarray) and values.dtype == float
            and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=float)
        values.flags.writeable = False
    return values


def mirrored(arr: np.ndarray, sign: float) -> bool:
    """arr = sign arr[::-1] within _MIRROR_TOL of max |arr|: the program's one symmetry test."""
    return bool(np.max(np.abs(arr - sign * arr[::-1])) <= _MIRROR_TOL * np.max(np.abs(arr)))


@dataclass(frozen=True)
class FockExpansion:
    """Real Fock-basis amplitudes ``a_n`` of a normalized state, n = 0..nmax.

    The captured mass ``sum a_n^2`` lies within ``TRUNCATION_TOLERANCE``
    of one; the remainder is the (discarded) tail beyond ``nmax``.
    """

    amplitudes: np.ndarray
    nmax: int

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", readonly(self.amplitudes))
        if self.amplitudes.shape != (self.nmax + 1,):
            raise ValueError("amplitude array must have length nmax + 1")

    @property
    def captured_mass(self) -> float:
        return float(np.sum(self.amplitudes**2))


def overlap(mu1: float, mu2: float) -> float:
    """Overlap <mu2|mu1> = exp(-(mu1 - mu2)^2 / 2) of two line coherent states.

    Symmetric in its arguments, equal to 1 iff the amplitudes coincide.
    """
    d = float(mu1) - float(mu2)
    return math.exp(-0.5 * d * d)


def normalization(spec: SuperpositionSpec) -> float:
    """Squared norm N = sum_jk c_j c_k <mu_k|mu_j> of the raw superposition.

    Summed as N = (sum_j c_j)^2 + sum_jk c_j c_k expm1(-(mu_j - mu_k)^2 / 2),
    which does not cancel when the terms nearly annihilate each other (an
    odd cat at small amplitude).  Raises ValueError for degenerate specs
    whose sum is not strictly positive at working precision against the
    size of its terms (an unnormalizable state).
    """
    cs, mus = spec.coefficients, spec.amplitudes
    d = mus[:, None] - mus[None, :]
    pairs = cs[:, None] * cs[None, :] * np.expm1(-0.5 * d * d)
    head = math.fsum(cs) ** 2
    n = head + float(pairs.sum())
    if n <= 1e-15 * (head + float(np.abs(pairs).sum())):
        raise ValueError("unnormalizable state: Gram sum is not positive")
    return n


def position_wavefunction(spec: SuperpositionSpec, q) -> np.ndarray | float:
    """Normalized position wavefunction psi(q) of the superposition.

    psi(q) = N^(-1/2) sum_j c_j (2/pi)^(1/4) exp(-(q - mu_j)^2); real-valued
    and square-normalized to one.  Accepts scalars or arrays.
    """
    qa = np.asarray(q, dtype=float)
    root_n = math.sqrt(normalization(spec))
    out = np.zeros_like(qa)
    for m, c in spec.terms:
        out = out + c * np.exp(-((qa - m) ** 2))
    out = out * (_AMP_NORM / root_n)
    if np.isscalar(q) or qa.ndim == 0:
        return float(out)
    return out


def min_fock_truncation(spec: SuperpositionSpec) -> int:
    """Smallest admissible nmax, max(64, ceil(mu^2 + 10 mu + 16)) at mu = mu_max.

    Keeps the Poisson tail mass of every component below 1e-12.  An amplitude
    too large for the rule to be finite raises ValueError.
    """
    m = spec.max_amplitude
    rule = m * m + 10.0 * m + 16.0
    if not math.isfinite(rule):
        raise ValueError(f"amplitude {m!r} too large: its truncation rule overflows")
    return max(64, math.ceil(rule))


def photon_grid(amplitude: float, n_max: float, step: float = 1.0,
                n_min: float = 0.0) -> np.ndarray:
    """Photon numbers n_min, n_min + step, ... below n_max, then n_max, as floats.

    Bounds other than finite 0 <= n_min <= n_max, and more than ``MAX_FOCK_ROWS``
    numbers, raise ValueError before anything is allocated; ``amplitude`` names
    the state in the message.
    """
    if not 0.0 <= n_min <= n_max < math.inf:
        raise ValueError(f"photon-number grid needs finite 0 <= n_min <= n_max,"
                         f" got n_min={n_min}, n_max={n_max}")
    if n_max > n_min + (MAX_FOCK_ROWS - 1) * step:
        raise ValueError(
            f"amplitude {amplitude!r} with nmax={n_max} needs more than"
            f" {MAX_FOCK_ROWS} (2**24) rows"
        )
    return np.append(np.arange(n_min, n_max, step), n_max)


def fock_amplitudes(spec: SuperpositionSpec, nmax: int) -> FockExpansion:
    """Fock-basis amplitudes a_n = N^(-1/2) sum_j c_j e^(-mu_j^2/2) mu_j^n / sqrt(n!).

    Each term is summed from log space, -mu^2/2 + n log|mu| - log(n!)/2 with
    0 log 0 = 0, so large photon numbers do not overflow and mu = 0 gives
    the vacuum.  An ``nmax`` that is not an integer (NumPy integers are) or
    lies below the truncation rule raises ValueError, and so do more than
    ``MAX_FOCK_ROWS`` rows and a sum that cancels so far that the captured
    mass misses one by more than ``TRUNCATION_TOLERANCE``.
    """
    from scipy.special import gammaln, xlogy  # on use: import multicat loads NumPy alone

    floor = min_fock_truncation(spec)
    if not isinstance(nmax, (int, np.integer)):
        raise ValueError(f"nmax must be an integer of at least {floor}, got {nmax!r}")
    if nmax < floor:
        raise ValueError(
            f"truncation too small: nmax={nmax} below tail rule minimum {floor}"
        )
    ns = photon_grid(spec.max_amplitude, nmax)
    log_fact_half = 0.5 * gammaln(ns + 1.0)
    total = np.zeros(nmax + 1)
    for m, c in spec.terms:
        if c == 0.0:
            continue
        contrib = c * np.exp(-0.5 * m * m + xlogy(ns, abs(m)) - log_fact_half)
        if m < 0.0:
            contrib[1::2] *= -1.0
        total += contrib
    expansion = FockExpansion(amplitudes=total / math.sqrt(normalization(spec)), nmax=int(nmax))
    if abs(expansion.captured_mass - 1.0) > TRUNCATION_TOLERANCE:
        raise ValueError(
            f"captured mass {expansion.captured_mass!r} misses 1 by more than"
            f" {TRUNCATION_TOLERANCE:g}: the superposition cancels beyond working precision"
        )
    return expansion


_CAT_RE = re.compile(r"^(even|odd)-cat\(([^)]+)\)$")

#: Built-in spec names accepted by :func:`preset`.
PRESET_NAMES = ("Y1", "Y2", "Y3", "vacuum", "even-cat(a)", "odd-cat(a)")

_CASE_AMPLITUDES = {"Y1": (4.0, 7.0), "Y2": (1.0, 6.0), "Y3": (2.0, 6.0)}


def preset(name: str) -> SuperpositionSpec:
    """Named example states.

    ``Y1`` (4, 7), ``Y2`` (1, 6) and ``Y3`` (2, 6) are the even four-component
    superpositions at amplitudes {+a, -a, +b, -b} with unit coefficients;
    ``even-cat(a)`` / ``odd-cat(a)`` are the two-component cat states
    |a> +/- |-a>; ``vacuum`` is the single term at the origin.
    """
    key = name.strip()
    if key in _CASE_AMPLITUDES:
        a, b = _CASE_AMPLITUDES[key]
        return SuperpositionSpec(
            terms=((a, 1.0), (-a, 1.0), (b, 1.0), (-b, 1.0)), label=key
        )
    if key == "vacuum":
        return SuperpositionSpec(terms=((0.0, 1.0),), label="vacuum")
    m = _CAT_RE.match(key)
    if m:
        sign = 1.0 if m.group(1) == "even" else -1.0
        try:
            a = float(m.group(2))
        except ValueError:
            raise ValueError(f"unknown preset: bad cat amplitude {m.group(2)!r}")
        return SuperpositionSpec(terms=((a, 1.0), (-a, sign)), label=key)
    raise ValueError(f"unknown preset: {name!r}")
