"""Multi-Gaussian-well potentials and their finite-difference ground states.

The potential is a sum of attractive Gaussian wells at the requested
centres,

    V(x) = sum_c s_c * Vg(x - c) - Vg(0),    Vg(x) = -V0 exp(-g x^2 / (2 s^2)),

discretized with the three-point stencil (hbar = m = 1, Dirichlet ends)

    H[i, i]   = 1/dx^2 + V_i,
    H[i, i+1] = H[i+1, i] = -1/(2 dx^2),

and solved for its lowest eigenpair by LAPACK (``dstebz``/``dstein``
through ``scipy.linalg.eigh_tridiagonal``).  A reflection-symmetric H is
solved on one half of the grid in the requested parity sector: the even
sector keeps the centre row and scales its coupling by sqrt(2), the odd
sector drops it (psi(0) = 0).  A solution that has not decayed to 1e-10 of
its peak at both grid ends is refused (ValueError), as in
``wigner.wigner_numeric``.

``calibrate_wells`` picks well parameters for a target superposition:
the local curvature V0 * gamma / sigma^2 is pinned so each well's ground
mode has roughly the coherent-state position width, and the depths of
the inner pair of wells are trimmed until the inner and outer well
structures are degenerate, which keeps the ground state from localizing
in whichever wells sit deeper due to neighbouring tails.  Odd targets are
calibrated and solved in the odd sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .states import SuperpositionSpec, position_wavefunction, readonly

__all__ = [
    "WellPotentialSpec",
    "SolverConfig",
    "DiscretizedWavefunction",
    "TridiagonalOperator",
    "potential",
    "build_hamiltonian",
    "ground_state",
    "calibrate_wells",
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

#: Minimum allowed centre separation, two coherent-state position widths.
MIN_GAP = 1.0


@dataclass(frozen=True)
class WellPotentialSpec:
    """Sum-of-Gaussian-wells potential description.

    ``depth_scales`` optionally multiplies each well's depth; the default
    of all ones is the plain equal-depth form.  ``include_center_offset``
    adds the constant +V0 so that V(0) would vanish for a single origin
    well; it shifts eigenvalues but not eigenvectors.
    """

    centers: Tuple[float, ...]
    v0: float
    gamma: float
    sigma: float = 1.0
    include_center_offset: bool = True
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
    points: int = 4001

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError("domain must satisfy x_min < x_max")
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
    if spec.include_center_offset:
        out = out + spec.v0
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix stored as its diagonal and off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.off, dtype=float)
        if d.ndim != 1 or e.shape != (d.size - 1,):
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)

    @property
    def size(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def build_hamiltonian(v_samples: np.ndarray, dx: float) -> TridiagonalOperator:
    """Three-point discretization of -1/2 d^2/dx^2 + V with Dirichlet ends."""
    v = np.asarray(v_samples, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("need at least three potential samples")
    if dx <= 0:
        raise ValueError("dx must be positive")
    inv = 1.0 / (dx * dx)
    diag = inv + v
    off = np.full(v.size - 1, -0.5 * inv)
    return TridiagonalOperator(diag=diag, off=off)


def _is_symmetric_operator(h: TridiagonalOperator, rtol: float = 1e-9) -> bool:
    d, e = h.diag, h.off
    scale = max(1.0, float(np.max(np.abs(d))))
    return bool(
        np.all(np.abs(d - d[::-1]) <= rtol * scale)
        and np.all(np.abs(e - e[::-1]) <= rtol * scale)
    )


#: Largest |psi| allowed at either grid end, relative to max |psi|; the same
#: rule ``wigner.wigner_numeric`` applies to its input.
BOUNDARY_DECAY = 1e-10


def ground_state(
    h: TridiagonalOperator, cfg: SolverConfig, odd: bool = False
) -> DiscretizedWavefunction:
    """Lowest eigenpair of ``h``, or of its odd sector when ``odd``, by LAPACK.

    A reflection-symmetric ``h`` is folded onto the half grid x >= 0 about
    the centre index m, so the solve cannot mix the parities of a
    near-degenerate tunnelling doublet.  The even sector takes rows m, m+1,
    ... with the first coupling scaled by sqrt(2), and its solution's first
    component is scaled back by sqrt(2); the odd sector takes rows m+1, ...
    (psi(0) = 0).  The half solution is mirrored with the sector's sign and
    made positive in sum over the solved half.  An asymmetric ``h`` is
    solved on the full grid and has no odd sector (ValueError).  A solution
    that has not decayed to BOUNDARY_DECAY of its peak at either grid end
    raises ValueError: the domain cuts the state off.  The result records
    one iteration (one LAPACK call) and its full-grid residual.
    """
    n = h.size
    if n != cfg.points:
        raise ValueError("operator size does not match solver grid")
    xs = cfg.xs()
    dx = float(xs[1] - xs[0])
    symmetric = _is_symmetric_operator(h)
    if odd and not symmetric:
        raise ValueError("the odd sector needs a reflection-symmetric operator")

    d, e = h.diag, h.off
    if symmetric:
        start = n // 2 + (1 if odd else 0)
        d, e = d[start:], e[start:].copy()
        if not odd:
            e[0] *= math.sqrt(2.0)
    energies, vectors = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
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
    resid = math.sqrt(float(np.sum((h.matvec(v) - energy * v) ** 2)) * dx)
    return DiscretizedWavefunction(
        xs=xs, values=v, energy=energy, iterations=1, residual=resid
    )


#: Domain margin past the outermost centre.  Gaussian wells have finite
#: asymptotic depth, so bound states decay like exp(-kappa x) with
#: kappa ~ sqrt(2 (V0 - E)) of order 1.6; this margin pushes the boundary
#: amplitude below 1e-10.
DOMAIN_MARGIN = 15.0


def default_solver_config(target: SuperpositionSpec, points: int = 4001) -> SolverConfig:
    """Symmetric domain around the target's wells, margin enough for the tails to die."""
    half = target.max_amplitude + DOMAIN_MARGIN
    return SolverConfig(domain=(-half, half), points=points)


def _solve_potential(
    spec: WellPotentialSpec, cfg: SolverConfig, odd: bool
) -> DiscretizedWavefunction:
    xs = cfg.xs()
    h = build_hamiltonian(potential(spec, xs), float(xs[1] - xs[0]))
    return ground_state(h, cfg, odd)


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


def _group_indices(centers: Sequence[float]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split centres into the inner and outer |amplitude| groups."""
    mags = sorted({round(abs(c), 12) for c in centers})
    inner_mag = mags[0]
    inner = tuple(i for i, c in enumerate(centers) if round(abs(c), 12) == inner_mag)
    outer = tuple(i for i in range(len(centers)) if i not in inner)
    return inner, outer


def _subgroup_energy(
    spec: WellPotentialSpec, idx: Tuple[int, ...], cfg: SolverConfig, odd: bool
) -> float:
    sub = replace(
        spec,
        centers=tuple(spec.centers[i] for i in idx),
        depth_scales=tuple(spec.scales[i] for i in idx),
    )
    return _solve_potential(sub, cfg, odd).energy


def _with_inner_scale(
    spec: WellPotentialSpec, inner: Tuple[int, ...], s: float
) -> WellPotentialSpec:
    scales = list(spec.scales)
    for i in inner:
        scales[i] = s
    return replace(spec, depth_scales=tuple(scales))


def calibrate_wells(
    target: SuperpositionSpec,
    gamma: float = 2.0,
    cfg: Optional[SolverConfig] = None,
    balance: bool = True,
) -> WellPotentialSpec:
    """Well parameters whose ground state approximates the target superposition.

    Centres are the target amplitudes; sigma = 1 and V0 = CURVATURE / gamma
    fix each well's local harmonic curvature, so every local mode has a
    position width close to the coherent-state width 1/2.  For four-centre
    targets the inner pair's depth is then trimmed (a ``brentq`` root of the
    inner/outer subproblem ground-energy difference, plus a fidelity polish
    of the full solve) so neighbouring-well tails cannot detune the wells
    and localize the ground state.  Every solve runs on ``cfg`` (default:
    ``default_solver_config(target)``) in the target's parity sector.
    Centres closer than two position widths raise ValueError (wells merge).
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
    v0 = CURVATURE / gamma
    spec = WellPotentialSpec(centers=centers, v0=v0, gamma=gamma, sigma=1.0)
    if not balance or len(set(round(abs(c), 12) for c in centers)) < 2:
        return spec

    cfg = cfg or default_solver_config(target)
    odd = target.is_antisymmetric()
    inner, outer = _group_indices(centers)
    e_outer = _subgroup_energy(spec, outer, cfg, odd)

    def detuning(s: float) -> float:
        return _subgroup_energy(_with_inner_scale(spec, inner, s), inner, cfg, odd) - e_outer

    lo, hi = 0.5, 1.5
    if detuning(lo) * detuning(hi) > 0.0:
        s_star = 1.0
    else:
        s_star = brentq(detuning, lo, hi, xtol=1e-14)

    if abs(s_star - 1.0) <= 1e-3:
        return spec

    # Polish: the subproblem match ignores the inter-group coupling, so scan
    # the neighbourhood of s_star for the best full-problem fidelity.
    best_s, best_f = s_star, -1.0
    span, steps = 8.0e-3, 17
    for k in range(steps):
        s = s_star - span / 2 + span * k / (steps - 1)
        cand = _with_inner_scale(spec, inner, s)
        f = fidelity(_solve_potential(cand, cfg, odd), target)
        if f > best_f:
            best_s, best_f = s, f
    return _with_inner_scale(spec, inner, best_s)


def solve_well(
    target: SuperpositionSpec,
    gamma: float = 2.0,
    cfg: Optional[SolverConfig] = None,
    balance: bool = True,
) -> Tuple[WellPotentialSpec, DiscretizedWavefunction, float]:
    """Calibrate, solve and score a well system for a target superposition.

    Calibration and the final solve share ``cfg`` (default:
    ``default_solver_config(target)``) and the target's parity sector, so an
    odd target gets the lowest odd state.
    """
    cfg = cfg or default_solver_config(target)
    spec = calibrate_wells(target, gamma=gamma, cfg=cfg, balance=balance)
    psi = _solve_potential(spec, cfg, target.is_antisymmetric())
    return spec, psi, fidelity(psi, target)
