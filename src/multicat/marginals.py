"""Closed-form and field-integrated marginal distributions.

The position marginal is the squared normalized wavefunction, i.e. the
square of the summed Gaussian *amplitudes* (not of summed densities,
which would double-count widths).  The momentum marginal is

    pr(p) = N^(-1) G(p; 0, 1) |sum_j c_j exp(-i p mu_j)|^2,

a unit-variance Gaussian carrying the interference beat of the
amplitudes; for the even four-component states this reduces to a
Gaussian modulated by (cos(p a) + cos(p b))^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import SuperpositionSpec, normalization, position_wavefunction, readonly
from .wigner import WignerField

__all__ = [
    "MarginalCurve",
    "position_marginal",
    "momentum_marginal",
    "marginal_from_field",
]

_GAUSS_P_NORM = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class MarginalCurve:
    """1-D density samples along the position or momentum axis."""

    axis: str
    coordinates: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        if self.axis not in ("position", "momentum"):
            raise ValueError(f"axis must be 'position' or 'momentum', got {self.axis!r}")
        coords, dens = readonly(self.coordinates), readonly(self.densities)
        if coords.shape != dens.shape or coords.ndim != 1:
            raise ValueError("coordinates and densities must be matching 1-D arrays")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "densities", dens)

    def integral(self) -> float:
        return float(np.trapezoid(self.densities, self.coordinates))


def position_marginal(spec: SuperpositionSpec, qs) -> MarginalCurve:
    """Position density |psi(q)|^2 sampled at the given coordinates."""
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    psi = position_wavefunction(spec, qs)
    return MarginalCurve(axis="position", coordinates=qs, densities=np.asarray(psi) ** 2)


def momentum_marginal(spec: SuperpositionSpec, ps) -> MarginalCurve:
    """Momentum density from the Fourier phases of the amplitude list."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    n = normalization(spec)
    phases = np.zeros(ps.shape, dtype=complex)
    for m, c in spec.terms:
        phases += c * np.exp(-1j * ps * m)
    dens = _GAUSS_P_NORM * np.exp(-0.5 * ps * ps) * np.abs(phases) ** 2 / n
    return MarginalCurve(axis="momentum", coordinates=ps, densities=dens)


def marginal_from_field(field: WignerField, axis: str) -> MarginalCurve:
    """Marginal of a Wigner field by trapezoidal integration along the conjugate axis."""
    if axis not in ("position", "momentum"):
        raise ValueError(f"axis must be 'position' or 'momentum', got {axis!r}")
    if field.mass_deficit:
        warnings.warn(
            "marginal of a mass-deficit field; densities will not integrate to one",
            stacklevel=2,
        )
    if axis == "position":
        coords = field.grid.qs()
        dens = np.trapezoid(field.values, dx=field.grid.dp, axis=1)
    else:
        coords = field.grid.ps()
        dens = np.trapezoid(field.values, dx=field.grid.dq, axis=0)
    return MarginalCurve(axis=axis, coordinates=coords, densities=dens)
