"""Output checks, computed apart from the program.

Nothing here imports ``multicat``: each check re-derives what it compares
from the target amplitudes, with NumPy, LAPACK (through SciPy) or mpmath,
or tests a property the method must have.  No check reads a stored copy of
earlier output.  Every check returns a ``Verdict``; the operation counts as
failed when ``problems`` is not empty.  Each problem also carries a short
code, so a known fault can be told from a new one by the codes it produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

Terms = Sequence[Tuple[float, float]]

#: Tolerances, each from the documented contract it checks.
WELL_ENERGY_RTOL = 1e-9
WELL_MIN_FIDELITY = 0.9
FIELD_MASS_TOL = 1e-4
MARGINAL_TOL = 1e-5
PND_SUM_TOL = 1e-10
PND_TOL = 1e-12
ORACLE_TOL = 1e-6
#: Digits lost to the CLI's 12-significant-digit CSV format.
CSV_RTOL = 1e-10


@dataclass
class Verdict:
    problems: List[str] = field(default_factory=list)
    codes: List[str] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, text: str, code: str = "output") -> None:
        if not ok:
            self.problems.append(text)
            self.codes.append(code)

    @property
    def ok(self) -> bool:
        return not self.problems


def warm_imports() -> None:
    """Import what the checks use, so the first check is not slower than the rest."""
    import scipy.linalg  # noqa: F401

    _mp()


def _mp():
    import mpmath

    mpmath.mp.dps = 40
    return mpmath


def _mp_norm(mp, terms: Terms):
    return mp.fsum(
        mp.mpf(cj) * ck * mp.exp(-(mp.mpf(mj) - mk) ** 2 / 2)
        for mj, cj in terms
        for mk, ck in terms
    )


def _read_kv(path: Path) -> Dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _floats(text: str) -> List[float]:
    return [float(t) for t in text.split(",")]


def well_hamiltonian(rep: Dict[str, str], xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the three-point Hamiltonian of a well report.

    H[i, i] = 1/dx^2 + V_i, H[i, i+1] = -1/(2 dx^2) with
    V(x) = V0 - sum_c s_c V0 exp(-gamma (x - c)^2 / (2 sigma^2)).
    """
    dx = float(rep["grid_step"])
    centres, scales = _floats(rep["centers"]), _floats(rep["depth_scales"])
    v0, gamma, sigma = float(rep["v0"]), float(rep["gamma"]), float(rep["sigma"])
    pot = np.full(xs.size, v0)
    for c, s in zip(centres, scales):
        pot -= s * v0 * np.exp(-gamma * (xs - c) ** 2 / (2.0 * sigma**2))
    return 1.0 / dx**2 + pot, np.full(xs.size - 1, -0.5 / dx**2)


def read_well(out: Path) -> Tuple[Dict[str, str], np.ndarray, np.ndarray]:
    """The report, the uniform grid and the wavefunction that ``multicat well`` wrote."""
    rep = _read_kv(out / "well_report.txt")
    data = _read_csv(out / "well_wavefunction.csv")
    return rep, np.linspace(data[0, 0], data[-1, 0], data.shape[0]), data


def sector_index(terms: Terms) -> int:
    """Index of the lowest eigenvalue in the target's parity sector.

    The potential of a target {+-a, +-b} is symmetric about 0, so its
    eigenstates alternate in parity: the lowest even state is eigenvalue 0
    and the lowest odd state is eigenvalue 1.
    """
    return 1 if any(c < 0 for _, c in terms) else 0


def check_well(terms: Terms, out: Path) -> Verdict:
    """Rebuild the reported Hamiltonian and re-score the written wavefunction."""
    from scipy.linalg import eigh_tridiagonal

    v = Verdict()
    rep, xs, data = read_well(out)
    psi = data[:, 1]
    dx = float(rep["grid_step"])
    v.require(abs(xs[1] - xs[0] - dx) <= 1e-9 * dx, "grid step", "grid")

    diag, off = well_hamiltonian(rep, xs)
    k = sector_index(terms)
    e0 = float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(k, k))[0])
    energy = float(rep["energy"])
    err = abs(energy - e0) / max(1.0, abs(e0))
    v.stats["energy_err"] = err
    v.require(err <= WELL_ENERGY_RTOL,
              f"energy {energy} vs LAPACK eigenvalue {k}, {e0} (rel {err:.2e})", "energy")

    norm = float(psi @ psi) * dx
    v.require(abs(norm - 1.0) <= 1e-8, f"wavefunction norm {norm}", "norm")
    parity = -1.0 if k else 1.0
    asym = float(np.max(np.abs(psi - parity * psi[::-1]))) / float(np.max(np.abs(psi)))
    v.require(asym <= 1e-6, f"{'odd' if k else 'even'} parity broken ({asym:.2e})", "parity")

    target = np.zeros(xs.size)
    for m, c in terms:
        target += c * np.exp(-((xs - m) ** 2))
    fid = float(psi @ target) ** 2 / (float(psi @ psi) * float(target @ target))
    reported = float(rep["fidelity"])
    v.stats["fidelity"] = fid
    v.require(abs(fid - reported) <= 1e-8,
              f"fidelity {fid:.10g} vs reported {reported:.10g}", "fidelity_report")
    v.require(fid >= WELL_MIN_FIDELITY,
              f"fidelity {fid:.3g} below {WELL_MIN_FIDELITY}", "fidelity_min")
    return v


def _mp_wigner(mp, terms: Terms, q: float, p: float):
    """Closed form of the paper: pairwise Gaussian ridges times cosine ripples."""
    q, p = mp.mpf(q), mp.mpf(p)
    total = mp.fsum(
        mp.mpf(cj) * ck
        * mp.exp(-2 * (q - (mp.mpf(mj) + mk) / 2) ** 2 - p * p / 2)
        * mp.cos(p * (mp.mpf(mj) - mk))
        for mj, cj in terms
        for mk, ck in terms
    )
    return total / (mp.pi * _mp_norm(mp, terms))


def _mp_pnd(mp, terms: Terms, size: int) -> list:
    """P(n) = |sum_j c_j e^(-mu_j^2/2) mu_j^n / sqrt(n!)|^2 / N for n < size."""
    norm = _mp_norm(mp, terms)
    mus = [mp.mpf(m) for m, _ in terms]
    parts = [c * mp.exp(-mu * mu / 2) for mu, (_, c) in zip(mus, terms)]
    out = []
    for n in range(size):
        amp = mp.fsum(parts)
        out.append(float(amp * amp / norm))
        root = mp.sqrt(n + 1)
        parts = [t * mu / root for t, mu in zip(parts, mus)]
    return out


def _close(got: float, want: float, atol: float, rtol: float = CSV_RTOL) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def check_figures(terms: Terms, out: Path, nq: int, npts: int, p_half: float = 8.0) -> Verdict:
    """Wigner, marginal, distribution and envelope CSVs of one even target."""
    mp = _mp()
    v = Verdict()
    half = max(abs(m) for m, _ in terms) + 5.0
    qs, ps = np.linspace(-half, half, nq), np.linspace(-p_half, p_half, npts)
    dq, dp = qs[1] - qs[0], ps[1] - ps[0]

    rows = _read_csv(out / "wigner_field.csv")
    v.require(rows.shape == (nq * npts, 3), f"wigner rows {rows.shape[0]} != {nq * npts}")
    if not v.ok:
        return v
    q, p, w = (rows[:, k].reshape(nq, npts) for k in range(3))
    v.require(np.allclose(q, qs[:, None], rtol=0, atol=1e-9)
              and np.allclose(p, ps[None, :], rtol=0, atol=1e-9), "wigner rows not q-major")
    mass = float(np.trapezoid(np.trapezoid(w, dx=dp, axis=1), dx=dq))
    v.require(abs(mass - 1.0) <= FIELD_MASS_TOL, f"field mass {mass}")
    v.require(float(np.max(np.abs(w))) <= 1.0 / math.pi + 1e-11, "|W| above 1/pi")
    peak = np.unravel_index(int(np.argmax(np.abs(w))), w.shape)
    spots = [peak] + [(int(fi * (nq - 1)), int(fj * (npts - 1)))
                      for fi, fj in ((0.5, 0.5), (0.3, 0.55), (0.62, 0.4), (0.8, 0.5), (0.1, 0.9))]
    for i, j in spots:
        want = float(_mp_wigner(mp, terms, qs[i], ps[j]))
        v.require(_close(w[i, j], want, 1e-12), f"W({qs[i]:.4g},{ps[j]:.4g}) {w[i, j]} vs {want}")

    for name, axis, coords, step in (("position", 1, qs, dp), ("momentum", 0, ps, dq)):
        curve = _read_csv(out / f"marginal_{name}.csv")
        want = np.trapezoid(w, dx=step, axis=axis)
        ok = curve.shape == (coords.size, 2) and np.allclose(curve[:, 0], coords, rtol=0, atol=1e-9)
        v.require(ok and float(np.max(np.abs(curve[:, 1] - want))) <= MARGINAL_TOL,
                  f"{name} marginal disagrees with the integrated field")

    pnd = _read_csv(out / "pnd.csv")
    probs = pnd[:, 1]
    v.require(np.array_equal(pnd[:, 0], np.arange(probs.size)), "pnd n column")
    v.require(abs(float(probs.sum()) - 1.0) <= PND_SUM_TOL, f"pnd sums to {probs.sum()}")
    v.require(bool(np.all(probs[1::2] == 0.0)), "odd photon numbers not exactly zero")
    err = float(np.max(np.abs(probs - _mp_pnd(mp, terms, probs.size))))
    v.require(err <= PND_TOL, f"pnd.csv off mpmath by {err:.2e}")

    env = _read_csv(out / "envelope.csv")
    full = env[env[:, 3] == 1.0]
    at_int = full[full[:, 0] == np.round(full[:, 0])]
    ns = at_int[:, 0].astype(int)
    v.require(np.array_equal(ns, np.arange(probs.size)), "envelope n range")
    if v.ok:
        parity = 1.0 + np.where(ns % 2 == 0, 1.0, -1.0)
        v.require(bool(np.all(np.abs(at_int[:, 1] * parity - probs) <= 1e-15 + 1e-9 * probs)),
                  "envelope times parity factor differs from pnd.csv")
    return v


def check_oracle(max_abs_diff: float) -> Verdict:
    v = Verdict(stats={"max_abs_diff": max_abs_diff})
    v.require(max_abs_diff <= ORACLE_TOL, f"numeric vs closed form {max_abs_diff:.3e}")
    return v


def _mp_envelope_slopes(mp, a: float, b: float, n: float) -> dict:
    """d/dn of T_a + T_b (+ 2 T_x), T_x = x^n e^(-x...) / Gamma(n+1), with mpmath's digamma.

    Keyed by whether the interference term 2 T_x is included.
    """
    a, b, n = mp.mpf(a), mp.mpf(b), mp.mpf(n)
    psi, lg = mp.digamma(n + 1), mp.loggamma(n + 1)
    la, lb = mp.log(a), mp.log(b)
    s = (mp.exp(2 * n * la - a * a - lg) * (2 * la - psi)
         + mp.exp(2 * n * lb - b * b - lg) * (2 * lb - psi))
    x = 2 * mp.exp(n * (la + lb) - (a * a + b * b) / 2 - lg) * (la + lb - psi)
    return {False: s, True: s + x}


def check_photon(a: float, b: float, pnd: dict, closed_form: dict, extrema: dict) -> Verdict:
    """Both distributions at every n, and the extrema against the envelope slope.

    Every returned extremum must be a sign change of the slope, and every sign
    change of the slope between neighbouring integers in [0, nmax] must hold
    a returned extremum.
    """
    mp = _mp()
    v = Verdict()
    worst = 0.0
    for parity, sign in (("even", 1.0), ("odd", -1.0)):
        terms = ((a, 1.0), (-a, sign), (b, 1.0), (-b, sign))
        probs = np.asarray(pnd[parity])
        gap = float(np.max(np.abs(probs - closed_form[parity])))
        v.require(gap <= PND_TOL, f"{parity}: qts_pnd vs closed form {gap:.2e}")
        mass = float(probs.sum())
        v.require(abs(mass - 1.0) <= PND_TOL, f"{parity}: captured mass {mass!r}")
        err = float(np.max(np.abs(probs - _mp_pnd(mp, terms, probs.size))))
        worst = max(worst, err)
        v.require(err <= PND_TOL, f"{parity}: qts_pnd off mpmath by {err:.2e}")
    v.stats["pnd_err"] = worst
    top = np.asarray(pnd["even"]).size - 1
    at_int = [_mp_envelope_slopes(mp, a, b, n) for n in range(top + 1)]
    for flag, roots in extrema.items():
        for r in roots:
            lo = _mp_envelope_slopes(mp, a, b, max(r - 1e-6, 0.0))[flag]
            hi = _mp_envelope_slopes(mp, a, b, r + 1e-6)[flag]
            v.require(lo * hi <= 0, f"extremum {r} (interference={flag}) is no sign change")
        signs = [mp.sign(slopes[flag]) for slopes in at_int]
        for n in range(top):
            if signs[n] * signs[n + 1] < 0:
                v.require(any(n <= r <= n + 1 for r in roots),
                          f"slope changes sign in [{n}, {n + 1}] (interference={flag}),"
                          " no extremum returned")
    return v
