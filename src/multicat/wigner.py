"""Wigner functions of line-coherent-state superpositions.

Two independent evaluation routes are provided.  ``wigner_closed_form``
sums the pairwise Gaussian kernels

    K(q, p; mu_j, mu_k) = (1/pi) exp(-2 (q - (mu_j+mu_k)/2)^2)
                          * exp(-p^2/2) * exp(-i p (mu_j - mu_k)),

which integrate to the coherent-state overlaps, while ``wigner_numeric``
evaluates the defining transform

    W(q, p) = (1/2 pi) Int dx e^(i p x) psi*(q + x/2) psi(q - x/2)

by trapezoidal quadrature of sampled wavefunctions.  The kernel prefactor
is fixed to 1/pi so every field integrates to one; with that convention
|W| <= 1/pi everywhere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .states import BOUNDARY_DECAY, SuperpositionSpec, mirrored, normalization, readonly

__all__ = [
    "PhaseSpaceGrid",
    "WignerField",
    "cross_kernel",
    "wigner_closed_form",
    "wigner_numeric",
    "integrate",
    "negativity_volume",
    "default_grid",
]

#: |integral - 1| beyond which a field is flagged as missing probability mass.
MASS_TOLERANCE = 1e-4

#: Largest rounding error eps kappa / pi of the pair sum that ``wigner_closed_form`` accepts.
ROUNDING_BUDGET = 1e-13

#: q rows per GEMM in ``wigner_numeric``; a block's samples stay small beside the kernel.
_Q_BLOCK = 64


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform rectangular grid over a (q, p) phase-space window."""

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    nq: int
    np: int

    def __post_init__(self):
        if not (-math.inf < self.q_min < self.q_max < math.inf
                and -math.inf < self.p_min < self.p_max < math.inf):
            raise ValueError("grid bounds must be finite and satisfy min < max")
        if not all(isinstance(n, (int, np.integer)) for n in (self.nq, self.np)):
            raise ValueError(f"sample counts nq, np must be integers, got {self.nq!r}, {self.np!r}")
        if self.nq < 2 or self.np < 2:
            raise ValueError("grid needs at least two samples per axis")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.nq - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.np - 1)

    def qs(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.nq)

    def ps(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.np)


@dataclass(frozen=True)
class WignerField:
    """Wigner function samples ``values[i, j] = W(q_i, p_j)`` on a grid.

    ``mass`` is the trapezoidal double integral, worked out from ``values``;
    ``mass_deficit`` marks fields whose mass is off one by more than
    MASS_TOLERANCE, because the grid visibly failed to contain the state.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    mass: float = field(init=False)
    mass_deficit: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", readonly(self.values))
        if self.values.shape != (self.grid.nq, self.grid.np):
            raise ValueError("values must have shape (nq, np)")
        object.__setattr__(self, "mass", integrate(self))
        object.__setattr__(self, "mass_deficit", abs(self.mass - 1.0) > MASS_TOLERANCE)


def default_grid(spec: SuperpositionSpec, nq: int = 601, npts: int = 401) -> PhaseSpaceGrid:
    """Grid extending five position widths past the outermost peak, |p| <= 8."""
    half = spec.max_amplitude + 5.0
    return PhaseSpaceGrid(-half, half, -8.0, 8.0, nq, npts)


def cross_kernel(q: float, p: float, mu_j: float, mu_k: float) -> complex:
    """Wigner kernel of the rank-one cross term |mu_j><mu_k|.

    Integrates over phase space to overlap(mu_j, mu_k); at mu_j = mu_k it
    is the (real) Wigner function of a single coherent state.
    """
    centre = 0.5 * (mu_j + mu_k)
    gauss = math.exp(-2.0 * (q - centre) ** 2 - 0.5 * p * p) / math.pi
    phase = -p * (mu_j - mu_k)
    return complex(gauss * math.cos(phase), gauss * math.sin(phase))


def wigner_closed_form(spec: SuperpositionSpec, grid: PhaseSpaceGrid) -> WignerField:
    """Closed-form field W = N^(-1) sum_jk c_j c_k K(q, p; mu_j, mu_k).

    The conjugate pairing of (j, k) and (k, j) makes the sum real: each pair
    adds a q-Gaussian G at its midpoint m times a ripple R = exp(-p^2/2) cos(p d)
    at its distance d = |mu_j - mu_k|.  With the weights summed into a table A
    over distinct m and d, the field is one product G @ A @ R^T.  Warns
    ``fringes undersampled`` when the widest ripple gets under two samples per
    period along p, and ``mass deficit`` when the grid misses probability mass.
    Raises ValueError when the terms cancel so far that the sum's rounding error,
    about eps kappa / pi for kappa = (sum_j |c_j|)^2 / N, exceeds ROUNDING_BUDGET.
    """
    # terms at one amplitude merge first, their coefficients summed exactly, so a nearly
    # cancelling group keeps its digits (as ``normalization``'s fsum does)
    mus, group = np.unique(spec.amplitudes, return_inverse=True)
    cs = np.array([math.fsum(spec.coefficients[group == g]) for g in range(mus.size)])
    norm = normalization(spec)
    kappa = math.fsum(np.abs(cs)) ** 2 / norm
    if (loss := np.finfo(float).eps * kappa / math.pi) > ROUNDING_BUDGET:
        raise ValueError(f"terms cancel: kappa = {kappa:.3g} costs W about eps kappa / pi = "
                         f"{loss:.1g} > {ROUNDING_BUDGET:g}; `multicat pnd` keeps its digits here")
    weight = np.multiply.outer(cs, cs)
    keep = weight != 0.0
    mids, mid_idx = np.unique(0.5 * np.add.outer(mus, mus)[keep], return_inverse=True)
    dists, dist_idx = np.unique(np.abs(np.subtract.outer(mus, mus))[keep], return_inverse=True)
    table = np.zeros((mids.size, dists.size))
    np.add.at(table, (mid_idx, dist_idx), weight[keep])
    table /= math.pi * norm
    if grid.dp * dists[-1] > math.pi:
        warnings.warn(f"fringes undersampled: p step {grid.dp:.4g} exceeds half the period"
                      f" 2 pi / {dists[-1]:.4g} of the widest pair", stacklevel=2)
    qs, ps = grid.qs(), grid.ps()
    gauss = np.exp(-2.0 * np.subtract.outer(qs, mids) ** 2)
    ripple = np.exp(-0.5 * ps * ps)[:, None] * np.cos(np.multiply.outer(ps, dists))
    return _checked_field(grid, gauss @ table @ ripple.T)


def wigner_numeric(
    xs: np.ndarray, psi: np.ndarray, grid: PhaseSpaceGrid, *, x_step: float = 0.02
) -> WignerField:
    """Wigner transform of a sampled wavefunction by direct quadrature.

    ``psi`` must be real and sampled on strictly increasing ``xs`` (ValueError
    otherwise), decayed below BOUNDARY_DECAY of its peak at both ends (else
    ValueError: domain too small).  A real ``psi`` makes P(q, x) = psi(q + x/2)
    psi(q - x/2) even in x, so W = (1/pi) Int_0^oo cos(px) P dx, by the
    trapezoidal rule on nodes k hx.  P vanishes once q +- x/2 leaves ``xs``, so
    the nodes stop at k = m = ceil(2 R / hx), R the largest distance from a
    grid q to the nearer end of ``xs``.  hx = 2 b eps for a step eps that
    divides dq, at most ``x_step`` (positive and finite), so every spline
    argument lies on one lattice of step eps, sampled once.  W is even in p,
    so of two columns at +-p only the one on the side of p = 0 that reaches
    further is computed: the (m + 1, n') kernel cos(xp) (n' = 201 of 401 on
    the default grid) is built by angle addition from tables at x = 32 k0 hx
    and k1 hx.  Each block of ``_Q_BLOCK`` q rows is one GEMM against it,
    trimmed to the x columns that can reach inside ``xs`` (the rest are exact
    zeros), so memory holds the kernel, the field, one block and the lattice.
    If ``psi`` is even or odd on mirrored ``xs`` and the q axis is mirrored too,
    W is even in q as well: only the (nq + 1) // 2 rows up to q = 0 are computed,
    and the rest copied.  Each mirror is ``states.mirrored``'s, at round-off.
    Warns ``mass deficit``.
    """
    from scipy.interpolate import CubicSpline  # on use: import multicat skips it (~0.08 s)

    if np.iscomplexobj(psi):
        raise ValueError("psi must be real: the quadrature assumes a real wavefunction sample")
    xs = np.asarray(xs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if xs.ndim != 1 or xs.shape != psi.shape or xs.size < 4:
        raise ValueError("psi must be sampled on a 1-D grid matching xs")
    if max(abs(psi[0]), abs(psi[-1])) > BOUNDARY_DECAY * float(np.max(np.abs(psi))):
        raise ValueError("domain too small: psi has not decayed at the boundary")
    if not 0 < x_step < math.inf:
        raise ValueError("x_step must be positive and finite")
    interp = CubicSpline(xs, psi, extrapolate=False)  # refuses xs that do not increase
    # every spline argument q_i +- x_k/2 lies on one lattice q_min + j eps: dq = a eps and
    # hx = 2 b eps <= x_step, a <= 3 ceil(2 dq / x_step).  Take the longest hx that is not within
    # 0.2 of a whole number of sample spacings, where the nodes meet the spline's error at one
    # or two phases instead of its average (if every one is, the longest)
    r, h = 2.0 * grid.dq / x_step, (xs[-1] - xs[0]) / (xs.size - 1)

    def rank(ab):
        t = 2.0 * ab[1] * grid.dq / (ab[0] * h)  # hx in mean sample spacings
        return round(t) == 0 or abs(t - round(t)) >= 0.2, ab[1] / ab[0]

    a, b = max(((a, b) for a in range(1, 3 * math.ceil(r) + 1) if (b := math.floor(a / r + 1e-9))),
               key=rank)
    eps = grid.dq / a
    hx = 2 * b * eps
    qs = grid.qs()
    reach = np.minimum(xs[-1] - qs, qs - xs[0])  # past x = 2 reach one factor lies outside xs
    m = max(0, math.ceil(2.0 * reach.max() / hx))
    trap_w = np.full(m + 1, 2.0 * hx)  # folded trapezoid
    trap_w[0] = hx
    lattice = grid.q_min + eps * np.arange(-m * b, (grid.nq - 1) * a + m * b + 1)
    f = np.nan_to_num(interp(lattice), nan=0.0, copy=False)
    # strided views: up[i, k] and down[i, k] are the samples at q_i + x_k/2 and q_i - x_k/2
    up = as_strided(f[m * b :], (grid.nq, m + 1), (a * f.itemsize, b * f.itemsize), writeable=False)
    down = as_strided(f[m * b :], (grid.nq, m + 1), (a * f.itemsize, -b * f.itemsize),
                      writeable=False)

    # W(q, -p) = W(q, p) for a real psi.  Seen from the end of the p axis that reaches further
    # from 0, column t - j holds -p_j if ps[:t + 1] is mirrored: the first c columns copy them
    flip = grid.p_max < -grid.p_min
    ps = grid.ps()[::-1] if flip else grid.ps()
    t = round(2.0 * abs(ps[0]) / grid.dp)
    c = (t + 1) // 2 if t > 0 and mirrored(ps[: t + 1], -1) else 0
    pc = ps[c:]
    # cos(x p) at x = (32 k0 + k1) hx by angle addition
    big, small = (np.multiply.outer(hx * np.arange(0, n, k), pc) for n, k in ((m + 1, 32), (32, 1)))
    kern, sb = np.cos(big)[:, None] * np.cos(small), np.sin(big)  # kern[k0, k1] at row 32 k0 + k1
    for k1, s1 in enumerate(np.sin(small)):
        kern[:, k1] -= sb * s1
    kern = kern.reshape(-1, pc.size)  # rows past m are unused
    # W(-q, p) = W(q, p) as well when psi is even or odd on mirrored xs: on a mirrored q axis
    # the rows up to the middle are computed, and each row past it is copied from its twin
    sym = mirrored(qs, -1) and mirrored(xs, -1) and (mirrored(psi, 1) or mirrored(psi, -1))
    rows = (grid.nq + 1) // 2 if sym else grid.nq
    w = np.empty((grid.nq, grid.np))
    v = w[:, ::-1] if flip else w
    for i in range(0, rows, _Q_BLOCK):
        blk = slice(i, min(i + _Q_BLOCK, rows))
        # the slack of half a column absorbs rounding at the block's reach
        n = min(m + 1, max(0, math.floor(2.0 * reach[blk].max() / hx + 0.5) + 1))
        prod = up[blk, :n] * down[blk, :n]
        prod *= trap_w[:n]
        v[blk, c:] = prod @ kern[:n]
        v[blk, :c] = v[blk, t : t - c : -1]
        del prod  # free this block before the next one is sampled
    w[rows:] = w[: grid.nq - rows][::-1]
    w /= 2.0 * math.pi
    return _checked_field(grid, w)


def _checked_field(grid: PhaseSpaceGrid, w: np.ndarray) -> WignerField:
    """Field of ``w``, made read-only, not copied; warns ``mass deficit`` past MASS_TOLERANCE."""
    w.flags.writeable = False
    fld = WignerField(grid=grid, values=w)
    if fld.mass_deficit:
        warnings.warn(f"mass deficit: field integrates to {fld.mass:.6g} on this grid",
                      stacklevel=3)
    return fld


def _trapz2d(values: np.ndarray, dq: float, dp: float) -> float:
    """Trapezoidal double integral wq @ values @ wp: no temporary of the field's size."""
    wq, wp = (np.r_[0.5, np.ones(n - 2), 0.5] * h for n, h in zip(values.shape, (dq, dp)))
    return float(wq @ values @ wp)


def integrate(field: WignerField) -> float:
    """Trapezoidal double integral of the field over its grid."""
    return _trapz2d(field.values, field.grid.dq, field.grid.dp)


def negativity_volume(field: WignerField) -> float:
    """Integrated negative part Int max(-W, 0) dq dp, a nonclassicality witness.

    Integrates min(W, 0), the one field-sized temporary, and negates the
    integral: bit-equal to integrating max(-W, 0), and +0.0 for a field with
    no negative part.
    """
    return 0.0 - _trapz2d(np.minimum(field.values, 0.0), field.grid.dq, field.grid.dp)
