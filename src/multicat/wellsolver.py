"""Multi-Gaussian-well potentials and their finite-difference ground states.

The potential is a sum of attractive Gaussian wells at the requested
centres,

    V(x) = sum_c s_c * Vg(x - c) - Vg(0),    Vg(x) = -V0 exp(-gamma x^2 / 2),

sampled on the solver grid and discretized by ``ground_state`` alone with
the three-point stencil (hbar = m = 1, Dirichlet ends)

    H[i, i]   = 1/dx^2 + V_i,
    H[i, i+1] = H[i+1, i] = -1/(2 dx^2),

and solved for its lowest eigenpair by Noda's inverse iteration (Y. Noda,
Numer. Math. 17, 382 (1971)) with LAPACK's ``dpttrf``/``dpttrs``: H's
couplings are negative, so its lowest eigenvector is its one positive one.
A reflection-symmetric H is solved on one half of the grid in the requested
parity sector: the even sector keeps the centre row and scales its coupling
by sqrt(2), the odd sector drops it (psi(0) = 0).  A solution that has not
decayed to BOUNDARY_DECAY of its peak at both grid ends is refused
(ValueError), as in ``wigner.wigner_numeric``.

``solve_well`` is the well pipeline for a target superposition: it pins
the local curvature V0 * gamma so each well's ground mode has
roughly the coherent-state position width, trims the inner wells' depth
until the inner and outer well structures are degenerate (so the ground
state cannot localize in whichever wells neighbouring tails deepen), and
polishes that depth by a Brent search on the fidelity, solving each well
system once (Y2: 11 solves, 3 in the polish).  Odd targets are solved
in the odd sector.  Before any solve it refuses (ValueError) a grid whose
step exceeds MAX_STEP_FRACTION of the narrower of the well and coherent widths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from numpy.linalg import LinAlgError

from .states import BOUNDARY_DECAY, SuperpositionSpec, mirrored, position_wavefunction, readonly

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

#: Local well curvature V0 * gamma (harmonic frequency squared).
#: Width matching alone would ask for 4 (frequency 2, coherent width 1/2);
#: the overshoot compensates the Gaussian wells' quartic flattening, which
#: otherwise broadens each local mode and drags neighbouring humps together.
#: It is not the best value at gamma 2: 6 gives fidelities Y1 0.9886, Y2
#: 0.9789, Y3 0.9916 and odd-cat(3) 0.9949; 8 gives 0.9975, 0.9798, 0.9982
#: and 0.9986; Y2 peaks near 7, at 0.9800.
CURVATURE = 6.0

#: ``solve_well``'s inner depth scales: brentq's bracket for s*, and 0 fidelity outside.
SCALE_BRACKET = (0.5, 1.5)

#: First step of ``solve_well``'s Brent polish below s*, and its tolerance
#: times s*; a wider step misses the narrow peaks of groups that barely tunnel.
POLISH_STEP = 1.25e-4

#: Minimum allowed centre separation, two coherent-state position widths.
MIN_GAP = 1.0

#: Default well shape parameter gamma of ``solve_well`` and the CLI.
DEFAULT_GAMMA = 2.0

#: ``ground_state``'s Noda shift margin and residual floor over ||H||, and its step cap.
NODA_TOL, NODA_MAX_STEPS = 8 * np.finfo(float).eps, 16

#: Default solver grid points of ``SolverConfig`` and the CLI.
DEFAULT_POINTS = 4001


@dataclass(frozen=True)
class WellPotentialSpec:
    """Sum-of-Gaussian-wells potential description.

    Each well has depth ``v0`` and Gaussian width 1/sqrt(``gamma``).
    ``depth_scales`` optionally multiplies each well's depth; the default
    of all ones is the plain equal-depth form.
    """

    centers: Tuple[float, ...]
    v0: float
    gamma: float
    depth_scales: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(float(c) for c in self.centers))
        if not self.centers:
            raise ValueError("at least one well centre is required")
        if not all(0 < x < math.inf for x in (self.v0, self.gamma)):
            raise ValueError("v0 and gamma must be positive and finite")
        if self.depth_scales is not None:
            scales = tuple(float(s) for s in self.depth_scales)
            if len(scales) != len(self.centers):
                raise ValueError("depth_scales must match centers")
            if not all(0 < s < math.inf for s in scales):
                raise ValueError("depth_scales must be positive and finite")
            object.__setattr__(self, "depth_scales", scales)

    @property
    def scales(self) -> Tuple[float, ...]:
        return self.depth_scales or tuple(1.0 for _ in self.centers)


@dataclass(frozen=True)
class SolverConfig:
    """Domain and resolution of the eigensolver's grid."""

    domain: Tuple[float, float]
    points: int = DEFAULT_POINTS

    def __post_init__(self):
        lo, hi = self.domain
        if not -math.inf < lo < hi < math.inf:
            raise ValueError("domain must be finite and satisfy x_min < x_max")
        if not isinstance(self.points, (int, np.integer)):
            raise ValueError(f"points must be an integer, got {self.points!r}")
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b summed pairwise by ``np.add.reduce`` in a fixed order, so no BLAS kernel moves it."""
    return float(np.add.reduce(a * b))


def _well_sum(spec: WellPotentialSpec, xa: np.ndarray, shapes: dict) -> np.ndarray:
    """``potential`` on ``xa``, reusing the exp(-k (x - c)^2) that ``shapes`` holds for xa and k."""
    k = spec.gamma / 2.0
    out = np.zeros_like(xa)
    for c, s in zip(spec.centers, spec.scales):
        if c not in shapes:
            shapes[c] = np.exp(-k * (xa - c) ** 2)
        out = out - s * spec.v0 * shapes[c]
    return out + spec.v0


def potential(spec: WellPotentialSpec, x) -> np.ndarray | float:
    """Evaluate the multi-well potential at scalar or array positions."""
    out = _well_sum(spec, np.asarray(x, dtype=float), {})
    return float(out) if np.ndim(x) == 0 else out


def ground_state(
    v_samples: np.ndarray, cfg: SolverConfig, odd: bool = False
) -> DiscretizedWavefunction:
    """Lowest eigenpair of -1/2 d^2/dx^2 + V on ``cfg``'s grid, by Noda iteration.

    ``v_samples`` is V on ``cfg.xs()``; the three-point stencil (module
    docstring) is built here and nowhere else.  A stencil whose diagonal is
    its own mirror image at round-off (``states.mirrored``) is folded onto
    the half grid x >= 0 about the centre index m, so the solve cannot mix
    the parities of a near-degenerate tunnelling doublet.  The even sector
    takes rows m, m+1, ... with the first coupling scaled by sqrt(2), and its
    solution's first component is scaled back by sqrt(2); the odd sector
    (``odd``) takes rows m+1, ... (psi(0) = 0).  The half solution is mirrored
    with the sector's sign, positive on the solved half.  Any other V is
    solved on the full grid and has no odd sector (ValueError).  From x = 1
    and sigma = min V < E0, each Noda step solves (H - sigma) y = x, so y > 0
    and min(x / y) <= E0 - sigma (Collatz-Wielandt); x becomes y / |y| and
    sigma that bound less tol = NODA_TOL ||H||, until the bound is within 2 tol
    or ``pttrf`` refuses a shift on E0.  The energy is x's Rayleigh quotient.
    A solution not decayed to BOUNDARY_DECAY of its peak at a grid end, and
    non-finite samples, raise ValueError.  A LAPACK failure, NODA_MAX_STEPS
    steps, or a residual above tol plus the fold's mirror mismatch raise
    LinAlgError.  It records its steps and residual.
    """
    from scipy.linalg import get_lapack_funcs  # on use: import multicat skips it

    xs = cfg.xs()
    v_samples = np.asarray(v_samples, dtype=float)
    if v_samples.shape != xs.shape:
        raise ValueError(f"potential samples of shape {v_samples.shape} do not match the"
                         f" {cfg.points}-point solver grid")
    n = xs.size
    dx = float(xs[1] - xs[0])
    inv = 1.0 / (dx * dx)
    diag, off = inv + v_samples, -0.5 * inv
    if not np.isfinite(diag).all():
        raise ValueError("potential samples and grid step must be finite")
    scale = max(1.0, float(np.max(np.abs(diag))))
    skew = float(np.max(np.abs(diag - diag[::-1])))  # a fold ignores this mirror mismatch
    symmetric = mirrored(diag, 1)
    if odd and not symmetric:
        raise ValueError("the odd sector needs a reflection-symmetric potential")

    start = n // 2 + int(odd) if symmetric else 0
    d, e = diag[start:], np.full(n - 1 - start, off)
    if symmetric and not odd:
        e[0] *= math.sqrt(2.0)
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (d, e))
    tol = NODA_TOL * (scale + inv)  # scale + inv is about ||H||
    u, sigma, lo, steps = np.ones(d.size), float(np.min(v_samples)), math.inf, 0
    while lo > 2.0 * tol:
        df, ef, info = pttrf(d - sigma, e)
        if info > 0 and steps:
            break  # rounding has put sigma on E0: keep the last iterate
        y, info = pttrs(df, ef, u) if info == 0 else (None, info)
        if info or steps == NODA_MAX_STEPS:
            raise LinAlgError(f"Noda iteration failed (pttrf/pttrs info={info}, {steps} steps)")
        lo = float(np.min(u / y))  # Collatz-Wielandt: 0 < lo <= E0 - sigma
        u, sigma, steps = y / math.sqrt(_dot(y, y)), sigma + lo - tol, steps + 1
    if symmetric and odd:
        v = np.concatenate((-u[::-1], [0.0], u))
    elif symmetric:
        u[0] *= math.sqrt(2.0)
        v = np.concatenate((u[:0:-1], u))
    else:
        v = u
    v = v / math.sqrt(_dot(v, v) * dx)

    if max(abs(v[0]), abs(v[-1])) > BOUNDARY_DECAY * float(np.max(np.abs(v))):
        raise ValueError("domain too small: the solution has not decayed at the boundary"
                         f" [{cfg.domain[0]:g}, {cfg.domain[1]:g}]")
    hv = diag * v
    hv[:-1] += off * v[1:]
    hv[1:] += off * v[:-1]
    energy = _dot(v, hv) * dx  # the Rayleigh quotient
    resid = math.sqrt(float(np.sum((hv - energy * v) ** 2)) * dx)
    if resid > tol + (skew if symmetric else 0.0):
        raise LinAlgError(f"Noda iteration stopped at residual {resid:.3g}")
    return DiscretizedWavefunction(xs=xs, values=v, energy=energy, iterations=steps,
                                   residual=resid)


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
    from scipy.optimize import brentq  # on use: import multicat skips it (~0.3 s)

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
#: Gaussian width 1 / sqrt(gamma) and the coherent position width 1/2.
MAX_STEP_FRACTION = 0.5


def _fidelity_on(target: SuperpositionSpec, xs: np.ndarray):
    """``fidelity`` for states on ``xs``, with the target evaluated there once."""
    t = np.asarray(position_wavefunction(target, xs))
    if (tt := _dot(t, t)) == 0.0:
        raise ValueError("target state vanishes on the solver grid")
    return lambda psi: _dot(psi.values, t) ** 2 / (_dot(psi.values, psi.values) * tt)


def fidelity(psi: DiscretizedWavefunction, target: SuperpositionSpec) -> float:
    """Squared overlap |<target|psi>|^2 with the target evaluated on psi's grid."""
    return _fidelity_on(target, psi.xs)(psi)


def solve_well(
    target: SuperpositionSpec,
    gamma: float = DEFAULT_GAMMA,
    cfg: Optional[SolverConfig] = None,
) -> Tuple[WellPotentialSpec, DiscretizedWavefunction, float]:
    """Calibrated wells for a target superposition, their ground state and its fidelity.

    Wells sit at the sorted target amplitudes a_i made exact mirror images,
    (a_i - a_(n+1-i)) / 2 (as ``parity`` pairs them), with V0 = CURVATURE /
    gamma.  With more than one |centre| the inner wells' depth scale s* is the
    ``brentq`` root (xtol 1e-11, the energies' noise floor) in SCALE_BRACKET
    of the inner/outer subproblem ground-energy difference, which falls with s.
    The full problem's fidelity is then maximised over s by SciPy's Brent
    search (``minimize_scalar``), bracketed from s* - POLISH_STEP and s* and
    stopped within about POLISH_STEP (Y1 and Y2: 11 solves, 3 in the polish;
    Y3: 12; {+-1, +-4, +-7}: 18).  With one |centre|, or no root in the
    bracket, it is solved at s = 1 alone (odd-cat(3): 1 solve).  Each well
    system is solved once, on ``cfg`` (default:
    ``default_solver_config(target, gamma=gamma)``), in the target's parity
    sector.  Centres closer than two position widths and a too coarse grid
    raise ValueError.
    """
    from scipy.optimize import brentq, minimize_scalar  # on use: import multicat skips it (~0.3 s)

    parity = target.parity
    if parity == "none":
        raise ValueError("well calibration expects a symmetric-on-line target")
    amps = np.sort(target.amplitudes)
    centers = tuple(float(c) for c in np.unique(0.5 * (amps - amps[::-1])))
    min_gap = min((b - a for a, b in zip(centers, centers[1:])), default=math.inf)
    if min_gap < MIN_GAP:
        raise ValueError(f"wells merge: minimum centre gap {min_gap:.3g} is below"
                         f" {MIN_GAP:.3g} (two position widths)")
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    spec = WellPotentialSpec(centers=centers, v0=CURVATURE / gamma, gamma=gamma)
    cfg = cfg or default_solver_config(target, gamma=gamma)
    xs = cfg.xs()
    dx = float(xs[1] - xs[0])
    limit = MAX_STEP_FRACTION * min(1.0 / math.sqrt(gamma), 0.5)
    if dx > limit:
        raise ValueError(f"grid too coarse: step {dx:.3g} exceeds {limit:.3g}, half the well"
                         f" width at gamma={gamma:g}; raise --points or narrow the domain")
    odd = parity == "odd"
    inner = tuple(c for c in centers if abs(c) == min(map(abs, centers)))
    outer = tuple(c for c in centers if c not in inner)
    shapes: dict = {}

    @functools.cache
    def solved(cs: Tuple[float, ...], s: float):
        """The wells at ``cs``, the inner ones at depth scale ``s``, and their ground state."""
        scales = tuple(s if c in inner else 1.0 for c in cs)
        well = replace(spec, centers=cs, depth_scales=scales)
        return well, ground_state(_well_sum(well, xs, shapes), cfg, odd)

    lo, hi = SCALE_BRACKET
    s_star = None  # one group or no root, so s = 1
    if outer:
        e_outer = solved(outer, 1.0)[1].energy
        detuning = lambda s: solved(inner, s)[1].energy - e_outer
        if detuning(lo) * detuning(hi) <= 0.0:
            s_star = brentq(detuning, lo, hi, xtol=1e-11)
    score = _fidelity_on(target, xs)
    fid = lambda s: score(solved(centers, s)[1]) if lo <= s <= hi else 0.0
    # The subproblem match ignores the inter-group coupling: polish s* on the fidelity.
    s = 1.0 if s_star is None else minimize_scalar(
        lambda s: -fid(s), bracket=(s_star - POLISH_STEP, s_star), tol=POLISH_STEP / s_star).x
    best = (*solved(centers, s), fid(s))
    solved.cache_clear()  # brentq's wrapper of detuning is a reference cycle that holds the cache
    return best
