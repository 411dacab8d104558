"""Multi-Gaussian-well potentials and their finite-difference ground states.

The potential is a sum of attractive Gaussian wells at the requested
centres,

    V(x) = sum_c s_c * Vg(x - c) - Vg(0),    Vg(x) = -V0 exp(-g x^2 / (2 s^2)),

sampled on the solver grid and discretized by ``ground_state`` alone with
the three-point stencil (hbar = m = 1, Dirichlet ends)

    H[i, i]   = 1/dx^2 + V_i,
    H[i, i+1] = H[i+1, i] = -1/(2 dx^2),

and solved for its lowest eigenpair by LAPACK (``dstebz``/``dstein``
through ``scipy.linalg.eigh_tridiagonal``).  A reflection-symmetric H is
solved on one half of the grid in the requested parity sector: the even
sector keeps the centre row and scales its coupling by sqrt(2), the odd
sector drops it (psi(0) = 0).  A solution that has not decayed to
BOUNDARY_DECAY of its peak at both grid ends is refused (ValueError), as in
``wigner.wigner_numeric``, and so is a well grid whose step exceeds
MAX_STEP_FRACTION of the narrower of the well and coherent widths.

``solve_well`` is the well pipeline for a target superposition: it pins
the local curvature V0 * gamma / sigma^2 so each well's ground mode has
roughly the coherent-state position width, trims the inner wells' depth
until the inner and outer well structures are degenerate (so the ground
state cannot localize in whichever wells neighbouring tails deepen), and
scores the ground state's fidelity, solving each well system once.  Odd
targets are calibrated and solved in the odd sector.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .states import BOUNDARY_DECAY, SuperpositionSpec, position_wavefunction, readonly

__all__ = [
    "WellPotentialSpec",
    "SolverConfig",
    "DiscretizedWavefunction",
    "potential",
    "ground_state",
    "fidelity",
    "solve_well",
    "default_solver_config",
]

#: Local well curvature V0 * gamma / sigma^2 (harmonic frequency squared).
#: Width matching alone would ask for 4 (frequency 2, coherent width 1/2);
#: the overshoot compensates the Gaussian wells' quartic flattening, which
#: otherwise broadens each local mode and drags neighbouring humps together.
#: Measured target fidelities across the built-in cases peak near this value.
CURVATURE = 6.0

#: Inner-wells depth-scale bracket of ``solve_well``; brentq reuses its ends' solves.
SCALE_BRACKET = (0.5, 1.5)

#: Minimum allowed centre separation, two coherent-state position widths.
MIN_GAP = 1.0

#: Default well shape parameter gamma of ``solve_well`` and the CLI.
DEFAULT_GAMMA = 2.0

#: Default solver grid points of ``SolverConfig`` and the CLI.
DEFAULT_POINTS = 4001


@dataclass(frozen=True)
class WellPotentialSpec:
    """Sum-of-Gaussian-wells potential description.

    ``depth_scales`` optionally multiplies each well's depth; the default
    of all ones is the plain equal-depth form.
    """

    centers: Tuple[float, ...]
    v0: float
    gamma: float
    sigma: float = 1.0
    depth_scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if not self.centers:
            raise ValueError("at least one well centre is required")
        if not all(0 < x < math.inf for x in (self.v0, self.gamma, self.sigma)):
            raise ValueError("v0, gamma and sigma must be positive and finite")
        if self.depth_scales is not None:
            scales = tuple(float(s) for s in self.depth_scales)
            if len(scales) != len(self.centers):
                raise ValueError("depth_scales must match centers")
            if not all(0 < s < math.inf for s in scales):
                raise ValueError("depth_scales must be positive and finite")
            object.__setattr__(self, "depth_scales", scales)

    @property
    def scales(self) -> Tuple[float, ...]:
        if self.depth_scales is None:
            return tuple(1.0 for _ in self.centers)
        return self.depth_scales


@dataclass(frozen=True)
class SolverConfig:
    """Domain and resolution of the eigensolver's grid."""

    domain: Tuple[float, float]
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        lo, hi = self.domain
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must be finite and satisfy x_min < x_max")
        if self.points < 3:
            raise ValueError("need at least three grid points")
        if self.points % 2 == 0:
            raise ValueError("points must be odd so the grid passes through 0")

    def xs(self) -> np.ndarray:
        return np.linspace(self.domain[0], self.domain[1], self.points)


@dataclass(frozen=True)
class DiscretizedWavefunction:
    """Normalized grid eigenvector with its energy and solver diagnostics."""

    xs: np.ndarray
    values: np.ndarray
    energy: float
    iterations: int = 0
    residual: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "xs", readonly(self.xs))
        object.__setattr__(self, "values", readonly(self.values))

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def density_peaks(self) -> np.ndarray:
        """Positions of strict local maxima of the probability density."""
        d = self.values**2
        inner = (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:])
        return self.xs[1:-1][inner]


def potential(spec: WellPotentialSpec, x) -> np.ndarray | float:
    """Evaluate the multi-well potential at scalar or array positions."""
    xa = np.asarray(x, dtype=float)
    k = spec.gamma / (2.0 * spec.sigma**2)
    out = np.zeros_like(xa)
    for c, s in zip(spec.centers, spec.scales):
        out = out - s * spec.v0 * np.exp(-k * (xa - c) ** 2)
    out = out + spec.v0
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def ground_state(
    v_samples: np.ndarray, cfg: SolverConfig, odd: bool = False
) -> DiscretizedWavefunction:
    """Lowest eigenpair of -1/2 d^2/dx^2 + V on ``cfg``'s grid, by LAPACK.

    ``v_samples`` is V on ``cfg.xs()``; the three-point stencil (module
    docstring) is built here and nowhere else.  A reflection-symmetric
    stencil, |H[i, i] - H[n-1-i, n-1-i]| <= 1e-9 max(1, max |H[i, i]|), is
    folded onto the half grid x >= 0 about the centre index m, so the solve
    cannot mix the parities of a near-degenerate tunnelling doublet.  The
    even sector takes rows m, m+1, ... with the first coupling scaled by
    sqrt(2), and its solution's first component is scaled back by sqrt(2);
    the odd sector (``odd``) takes rows m+1, ... (psi(0) = 0).  The half
    solution is mirrored with the sector's sign and made positive in sum
    over the solved half.  An asymmetric V is solved on the full grid and
    has no odd sector (ValueError).  A solution that has not decayed to
    BOUNDARY_DECAY of its peak at either grid end raises ValueError: the
    domain cuts the state off.  The result records one iteration (one LAPACK
    call) and its full-grid residual.
    """
    xs = cfg.xs()
    v_samples = np.asarray(v_samples, dtype=float)
    if v_samples.shape != xs.shape:
        raise ValueError(
            f"potential samples of shape {v_samples.shape} do not match the"
            f" {cfg.points}-point solver grid"
        )
    n = xs.size
    dx = float(xs[1] - xs[0])
    inv = 1.0 / (dx * dx)
    diag, off = inv + v_samples, -0.5 * inv
    scale = max(1.0, float(np.max(np.abs(diag))))
    symmetric = bool(np.all(np.abs(diag - diag[::-1]) <= 1e-9 * scale))
    if odd and not symmetric:
        raise ValueError("the odd sector needs a reflection-symmetric potential")

    start = n // 2 + int(odd) if symmetric else 0
    e = np.full(n - 1 - start, off)
    if symmetric and not odd:
        e[0] *= math.sqrt(2.0)
    energies, vectors = eigh_tridiagonal(diag[start:], e, select="i", select_range=(0, 0))
    energy, u = float(energies[0]), vectors[:, 0]
    if float(np.sum(u)) < 0.0:
        u = -u
    if symmetric and odd:
        v = np.concatenate((-u[::-1], [0.0], u))
    elif symmetric:
        u[0] *= math.sqrt(2.0)
        v = np.concatenate((u[:0:-1], u))
    else:
        v = u
    v = v / math.sqrt(float(v @ v) * dx)

    if max(abs(v[0]), abs(v[-1])) > BOUNDARY_DECAY * float(np.max(np.abs(v))):
        raise ValueError(
            "domain too small: the solution has not decayed at the boundary"
            f" [{cfg.domain[0]:g}, {cfg.domain[1]:g}]"
        )
    hv = diag * v
    hv[:-1] += off * v[1:]
    hv[1:] += off * v[:-1]
    resid = math.sqrt(float(np.sum((hv - energy * v) ** 2)) * dx)
    return DiscretizedWavefunction(
        xs=xs, values=v, energy=energy, iterations=1, residual=resid
    )


#: Domain margin past the outermost centre at gamma <= 2, where the tails of
#: every calibration solve die within it.
DOMAIN_MARGIN = 15.0


def _probe_decay_rate(gamma: float) -> float:
    """Lower bound on the tail decay rate of the shallowest well calibration solves.

    That well has depth d = SCALE_BRACKET[0] * CURVATURE / gamma and exponent
    k = gamma / 2, and its states decay like exp(-kappa x), kappa =
    sqrt(2 (d - E)).  The Gaussian-trial variational energy bounds E above
    (and below d), so kappa from it is a lower bound: at the optimal trial
    t in (0, 1), t = (2 d / k) (1 - t^2)^2 and kappa^2 = d t (1 + t^2).
    """
    depth = SCALE_BRACKET[0] * CURVATURE / gamma
    t = brentq(lambda t: t - 4.0 * depth / gamma * (1.0 - t * t) ** 2, 0.0, 1.0, xtol=1e-300)
    return math.sqrt(depth * t * (1.0 + t * t))


def default_solver_config(
    target: SuperpositionSpec, points: int = DEFAULT_POINTS, gamma: float = DEFAULT_GAMMA
) -> SolverConfig:
    """Symmetric domain around the target's wells, wide enough for the tails to die.

    The margin past the outermost centre is DOMAIN_MARGIN, stretched for
    gamma > 2 by the ratio of the decay lengths 1/kappa at gamma and at 2.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    kappa = _probe_decay_rate(gamma)
    if not kappa > 0.0:
        raise ValueError(f"gamma={gamma:g} leaves the wells too shallow for any finite domain")
    half = target.max_amplitude + DOMAIN_MARGIN * max(1.0, _probe_decay_rate(2.0) / kappa)
    return SolverConfig(domain=(-half, half), points=points)


#: Widest grid step allowed, as a fraction of the narrower of a well's
#: Gaussian width sigma / sqrt(gamma) and the coherent position width 1/2.
MAX_STEP_FRACTION = 0.5


def _solve_potential(
    spec: WellPotentialSpec, cfg: SolverConfig, odd: bool
) -> DiscretizedWavefunction:
    """Ground state of ``spec`` on ``cfg``, refused when the grid cannot resolve a well."""
    xs = cfg.xs()
    dx = float(xs[1] - xs[0])
    limit = MAX_STEP_FRACTION * min(spec.sigma / math.sqrt(spec.gamma), 0.5)
    if dx > limit:
        raise ValueError(
            f"grid too coarse: step {dx:.3g} exceeds {limit:.3g}, half the well"
            f" width at gamma={spec.gamma:g}; raise --points or narrow the domain"
        )
    return ground_state(potential(spec, xs), cfg, odd)


def fidelity(psi: DiscretizedWavefunction, target: SuperpositionSpec) -> float:
    """Squared overlap |<target|psi>|^2 with the target evaluated on psi's grid."""
    t = np.asarray(position_wavefunction(target, psi.xs))
    dx = psi.dx
    t_norm = math.sqrt(float(t @ t) * dx)
    if t_norm == 0.0:
        raise ValueError("target state vanishes on the solver grid")
    t /= t_norm
    v = psi.values / math.sqrt(float(psi.values @ psi.values) * dx)
    return float((v @ t) * dx) ** 2


def solve_well(
    target: SuperpositionSpec,
    gamma: float = DEFAULT_GAMMA,
    cfg: Optional[SolverConfig] = None,
) -> Tuple[WellPotentialSpec, DiscretizedWavefunction, float]:
    """Calibrated wells for a target superposition, their ground state and its fidelity.

    Wells sit at the target amplitudes with sigma = 1 and V0 = CURVATURE /
    gamma.  With more than one |amplitude| the inner wells' depth scale is
    the ``brentq`` root of the inner/outer subproblem ground-energy
    difference, polished on the full-problem fidelity.  Each well system is
    solved once, on ``cfg`` (default: ``default_solver_config(target,
    gamma=gamma)``) and in the target's parity sector.  Centres closer than
    two position widths raise ValueError (wells merge).
    """
    if not target.is_symmetric() and not target.is_antisymmetric():
        raise ValueError("well calibration expects a symmetric-on-line target")
    centers = tuple(sorted(set(float(m) for m in target.amplitudes)))
    if len(centers) > 1:
        min_gap = min(b - a for a, b in zip(centers[:-1], centers[1:]))
        if min_gap < MIN_GAP:
            raise ValueError(
                f"wells merge: minimum centre gap {min_gap:.3g} is below"
                f" {MIN_GAP:.3g} (two position widths)"
            )
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    spec = WellPotentialSpec(centers=centers, v0=CURVATURE / gamma, gamma=gamma, sigma=1.0)
    cfg = cfg or default_solver_config(target, gamma=gamma)
    odd = target.is_antisymmetric()

    def solved(well: WellPotentialSpec):
        psi = _solve_potential(well, cfg, odd)
        return well, psi, fidelity(psi, target)

    mags = [round(abs(c), 12) for c in centers]
    inner_mag = min(mags)
    if len(set(mags)) < 2:
        return solved(spec)
    inner = tuple(c for c, m in zip(centers, mags) if m == inner_mag)
    outer = tuple(c for c, m in zip(centers, mags) if m != inner_mag)
    e_outer = _solve_potential(replace(spec, centers=outer), cfg, odd).energy

    @functools.cache
    def detuning(s: float) -> float:
        sub = replace(spec, centers=inner, depth_scales=(s,) * len(inner))
        return _solve_potential(sub, cfg, odd).energy - e_outer

    lo, hi = SCALE_BRACKET
    if detuning(lo) * detuning(hi) > 0.0:
        s_star = 1.0
    else:
        s_star = brentq(detuning, lo, hi, xtol=1e-14)

    if abs(s_star - 1.0) <= 1e-3:
        return solved(spec)

    # Polish: the subproblem match ignores the inter-group coupling, so scan
    # s_star's neighbourhood for the best full-problem fidelity (first best wins).
    best = None
    span, steps = 8.0e-3, 17
    for k in range(steps):
        s = s_star - span / 2 + span * k / (steps - 1)
        scales = tuple(s if m == inner_mag else 1.0 for m in mags)
        cand = solved(replace(spec, depth_scales=scales))
        if best is None or cand[2] > best[2]:
            best = cand
    return best
