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
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .states import SuperpositionSpec, normalization, readonly

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

    ``mass`` is the trapezoidal double integral; ``mass_deficit`` marks
    fields whose grid visibly failed to contain the state.
    """

    grid: PhaseSpaceGrid
    values: np.ndarray
    mass: float = float("nan")
    mass_deficit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", readonly(self.values))
        if self.values.shape != (self.grid.nq, self.grid.np):
            raise ValueError("values must have shape (nq, np)")
        if math.isnan(self.mass):
            object.__setattr__(self, "mass", integrate(self))


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

    The conjugate pairing of (j, k) and (k, j) makes the sum real: each
    pair contributes a q-Gaussian at the midpoint times a cosine ripple
    along p at frequency mu_j - mu_k.  Emits a ``mass deficit`` warning
    when the grid fails to capture the state's probability mass.
    """
    qs = grid.qs()
    ps = grid.ps()
    n = normalization(spec)
    p_env = np.exp(-0.5 * ps * ps)
    w = np.zeros((grid.nq, grid.np))
    for mj, cj in spec.terms:
        for mk, ck in spec.terms:
            weight = cj * ck
            if weight == 0.0:
                continue
            q_gauss = np.exp(-2.0 * (qs - 0.5 * (mj + mk)) ** 2)
            ripple = p_env * np.cos(ps * (mj - mk))
            w += weight * np.outer(q_gauss, ripple)
    w /= math.pi * n
    return _checked_field(grid, w)


def wigner_numeric(
    xs: np.ndarray,
    psi: np.ndarray,
    grid: PhaseSpaceGrid,
    x_half_width: float | None = None,
    x_step: float = 0.02,
) -> WignerField:
    """Wigner transform of a sampled wavefunction by direct quadrature.

    ``psi`` must be real (ValueError otherwise), sampled on the uniform grid
    ``xs`` and decayed below 1e-10 at both ends, otherwise ValueError (domain
    too small).  A real ``psi`` makes P(q, x) = psi(q + x/2) psi(q - x/2) even
    in x, so W = (1/pi) Int_0^L cos(px) P dx: the sine part vanishes and only
    x >= 0 is sampled, with folded trapezoid weights.  L defaults to the
    q-extent of the output grid; the integrand's Gaussian decay makes the
    trapezoidal rule effectively exact at these tolerances; L and ``x_step``
    must be positive and finite.  Each block of ``_Q_BLOCK`` q rows is one
    GEMM against a (m + 1, np) kernel cos(xp) built once, trimmed to the x
    columns whose both spline factors can lie inside ``xs`` (the rest are
    exact zeros), so memory holds the kernel, the field and one block.
    Warns ``mass deficit``.
    """
    if np.iscomplexobj(psi):
        raise ValueError("psi must be real: the quadrature assumes a real wavefunction sample")
    xs = np.asarray(xs, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if xs.ndim != 1 or xs.shape != psi.shape or xs.size < 4:
        raise ValueError("psi must be sampled on a 1-D grid matching xs")
    scale = float(np.max(np.abs(psi)))
    if abs(psi[0]) > 1e-10 * max(scale, 1.0) or abs(psi[-1]) > 1e-10 * max(scale, 1.0):
        raise ValueError("domain too small: psi has not decayed at the boundary")
    if x_half_width is None:
        x_half_width = grid.q_max - grid.q_min
    if not (0 < x_step < math.inf and 0 < x_half_width < math.inf):
        raise ValueError("x_step and x_half_width must be positive and finite")
    m = int(math.ceil(x_half_width / x_step))
    xg = np.linspace(-x_half_width, x_half_width, 2 * m + 1)
    hx = xg[1] - xg[0]
    half = 0.5 * xg[m:]
    trap_w = np.full(m + 1, 2.0 * hx)
    trap_w[0] = trap_w[-1] = hx
    interp = CubicSpline(xs, psi, extrapolate=False)

    kern = np.multiply.outer(xg[m:], grid.ps())
    np.cos(kern, out=kern)
    qs = grid.qs()
    w = np.empty((grid.nq, grid.np))
    for i in range(0, grid.nq, _Q_BLOCK):
        q = qs[i : i + _Q_BLOCK, None]
        # past this reach one factor lies outside xs (NaN, so 0) in every row;
        # the hx/4 slack, half a column, absorbs rounding at the bound
        reach = float(np.max(np.minimum(xs[-1] - q, q - xs[0])))
        n = int(np.searchsorted(half, reach + 0.25 * hx, side="right"))
        prod = np.nan_to_num(interp(q + half[:n]), nan=0.0, copy=False)
        prod *= np.nan_to_num(interp(q - half[:n]), nan=0.0, copy=False)
        prod *= trap_w[:n]
        w[i : i + _Q_BLOCK] = prod @ kern[:n]
        del prod  # free this block before the next one is sampled
    w /= 2.0 * math.pi
    return _checked_field(grid, w)


def _checked_field(grid: PhaseSpaceGrid, w: np.ndarray) -> WignerField:
    """Field of ``w``; warns ``mass deficit`` when its mass is off by over MASS_TOLERANCE."""
    mass = _trapz2d(w, grid.dq, grid.dp)
    deficit = abs(mass - 1.0) > MASS_TOLERANCE
    if deficit:
        warnings.warn(f"mass deficit: field integrates to {mass:.6g} on this grid", stacklevel=3)
    return WignerField(grid=grid, values=w, mass=mass, mass_deficit=deficit)


def _trapz2d(values: np.ndarray, dq: float, dp: float) -> float:
    return float(np.trapezoid(np.trapezoid(values, dx=dp, axis=1), dx=dq, axis=0))


def integrate(field: WignerField) -> float:
    """Trapezoidal double integral of the field over its grid."""
    return _trapz2d(field.values, field.grid.dq, field.grid.dp)


def negativity_volume(field: WignerField) -> float:
    """Integrated negative part Int max(-W, 0) dq dp, a nonclassicality witness."""
    neg = np.maximum(-field.values, 0.0)
    return _trapz2d(neg, field.grid.dq, field.grid.dp)
