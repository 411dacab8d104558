"""Inputs and operations of the four benchmark workloads.

Every target is a four-component state {+-a, +-b} drawn from the seed near
one of the paper's example states, except the odd two-component cats of the
``well`` workload, whose amplitudes are fixed (they fail on every commit that
still carries the even-parity projection in ``wellsolver.ground_state``, so
their share of failed operations must not depend on the seed).

A run is a sequence of whole rounds.  Every round of a workload has the same
composition (one target per family, plus one odd cat in ``well``), so the
share of each kind of operation is the same however many rounds a run holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from multicat import cli, photon, states, wigner

WORKLOADS = ("well", "figures", "oracle", "photon")

#: Paper example states Y1, Y2, Y3 as (a, b).
FAMILIES = {"Y1": (4.0, 7.0), "Y2": (1.0, 6.0), "Y3": (2.0, 6.0)}

#: Each of a and b is drawn uniformly within this distance of the family value.
JITTER = 0.25

#: Odd-cat amplitudes of the ``well`` workload, one per round, cycled.
ODD_CAT_AMPS = (2.0, 2.5, 3.0, 3.5)

#: Problem codes of ``checks.check_well`` that the even-parity projection in
#: ``wellsolver.ground_state`` produces on an odd cat: the even ground state
#: has the wrong energy, the wrong parity and a fidelity near 0.  An odd cat
#: that fails in any other way, or raises, is a real failure.
EVEN_STATE_FAULT = frozenset({"energy", "parity", "fidelity_min"})

#: Position samples of the fine grid that ``oracle`` feeds to wigner_numeric.
ORACLE_POINTS = 6501


@dataclass(frozen=True)
class Target:
    """A line superposition: amplitudes {+-a, +-b} or the odd cat {a, -a}."""

    family: str
    a: float
    b: Optional[float] = None
    odd: bool = False

    @property
    def terms(self) -> Tuple[Tuple[float, float], ...]:
        s = -1.0 if self.odd else 1.0
        terms = [(self.a, 1.0), (-self.a, s)]
        if self.b is not None:
            terms += [(self.b, 1.0), (-self.b, s)]
        return tuple(terms)

    def is_known_fault(self, codes) -> bool:
        """A ``well`` odd cat rejected exactly as the even-parity projection predicts."""
        return self.family == "odd-cat" and set(codes) == EVEN_STATE_FAULT

    def argv(self) -> List[str]:
        argv = ["--amps", ",".join(repr(m) for m, _ in self.terms)]
        if self.odd:
            argv += ["--coeffs", ",".join(repr(c) for _, c in self.terms)]
        return argv

    def spec(self) -> states.SuperpositionSpec:
        return states.SuperpositionSpec(terms=self.terms)

    def describe(self) -> str:
        return f"{self.family}({';'.join(f'{m:.6g}:{c:g}' for m, c in self.terms)})"


def _jittered(rng: random.Random, family: str, odd: bool = False) -> Target:
    a, b = FAMILIES[family]
    return Target(
        family=family,
        a=a + rng.uniform(-JITTER, JITTER),
        b=b + rng.uniform(-JITTER, JITTER),
        odd=odd,
    )


def rounds(workload: str, seed: int) -> Iterator[List[Target]]:
    """Endless sequence of rounds; the same seed gives the same sequence."""
    rng = random.Random(seed)
    k = 0
    while True:
        batch = [_jittered(rng, fam) for fam in FAMILIES]
        if workload == "well":
            batch.append(Target("odd-cat", ODD_CAT_AMPS[k % len(ODD_CAT_AMPS)], odd=True))
        yield batch
        k += 1


def _cli(argv: List[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"multicat {' '.join(argv)} exited {code}")


def run_well(target: Target, out: Path, points: Optional[int] = None) -> Path:
    extra = ["--points", str(points)] if points is not None else []
    _cli(["well", *target.argv(), *extra, "--out", str(out)])
    return out


def run_figures(target: Target, out: Path, grid: Optional[Tuple[int, int]] = None) -> Path:
    """The four figure commands; ``grid`` = (nq, np) replaces the default grid's counts."""
    extra = []
    if grid is not None:
        half = max(abs(m) for m, _ in target.terms) + 5.0
        extra = ["--qrange", f"{-half!r}:{half!r}:{grid[0]}", "--prange", f"-8:8:{grid[1]}"]
    for command in ("wigner", "marginals", "pnd", "envelope"):
        _cli([command, *target.argv(), *extra, "--out", str(out)])
    return out


def run_oracle(target: Target, small: bool = False) -> float:
    """Largest |numeric - closed form| over the grid."""
    spec = target.spec()
    grid = wigner.default_grid(spec, *((61, 161) if small else ()))
    m = spec.max_amplitude + 6.0
    xs = np.linspace(-m, m, 2001 if small else ORACLE_POINTS)
    psi = states.position_wavefunction(spec, xs)
    numeric = wigner.wigner_numeric(xs, psi, grid)
    closed = wigner.wigner_closed_form(spec, grid)
    return float(np.max(np.abs(numeric.values - closed.values)))


@dataclass
class PhotonResult:
    a: float
    b: float
    nmax: dict
    pnd: dict
    closed_form: dict
    extrema: dict


def run_photon(target: Target) -> PhotonResult:
    a, b = target.a, target.b
    nmax, pnd, closed = {}, {}, {}
    for parity, odd in (("even", False), ("odd", True)):
        spec = Target(target.family, a, b, odd=odd).spec()
        nmax[parity] = states.min_fock_truncation(spec)
        pnd[parity] = photon.qts_pnd(spec, nmax[parity]).probs
        closed[parity] = photon.qts_pnd_closed_form(a, b, nmax[parity], parity)
    top = nmax["even"]
    extrema = {
        flag: photon.envelope_extrema(a, b, 0.0, float(top), include_interference=flag)
        for flag in (True, False)
    }
    return PhotonResult(a, b, nmax, pnd, closed, extrema)

