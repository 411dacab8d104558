"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else; grid choices are stated
inline.  The well-pipeline peak checks (criterion 8) compare the solver
output against the target state's own phase-space structure: centres whose
nearest neighbour is at least six coherent position widths away must carry a
density peak, while merged kitten pairs (the +-1 doublet of the Y2 case) are
checked through the requirement that every ridge of the computed Wigner
slice sits on a ridge of the exact state's slice, which is how the exact
state itself behaves there.
"""

import math
import time

import numpy as np
import pytest

from multicat import (
    cli,
    marginals,
    photon,
    states,
    wellsolver as ws,
    wigner,
)

CASES = {"Y1": (4.0, 7.0), "Y2": (1.0, 6.0), "Y3": (2.0, 6.0)}
ALL_PRESETS = ["Y1", "Y2", "Y3", "even-cat(2)", "odd-cat(2)", "vacuum"]

#: Centres separated from every neighbour by at least this are macroscopically
#: distinguishable (six coherent position widths) and must carry density peaks.
MACRO_GAP = 3.0


def local_maxima(profile, coords, floor_frac=1e-4):
    keep = profile.max() * floor_frac
    mask = (profile[1:-1] > profile[:-2]) & (profile[1:-1] > profile[2:]) & (
        profile[1:-1] > keep
    )
    return coords[1:-1][mask]


def report(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_parity_exactness():
    start = time.time()
    for name in ["Y1", "Y2", "Y3"]:
        spec = states.preset(name)
        dist = photon.qts_pnd(spec, states.min_fock_truncation(spec))
        assert np.max(np.abs(dist.probs[1::2])) <= 1e-12
    odd = photon.qts_pnd(states.preset("odd-cat(2)"), 64)
    assert np.max(np.abs(odd.probs[0::2])) <= 1e-12
    assert time.time() - start < 1.0
    report(1, "parity exactness")


def test_criterion_2_pnd_peak_placement():
    start = time.time()
    targets = {"Y1": (16, 49), "Y2": (1, 36), "Y3": (4, 36)}
    for name, (lo_t, hi_t) in targets.items():
        a, b = CASES[name]
        spec = states.preset(name)
        dist = photon.qts_pnd(spec, states.min_fock_truncation(spec))
        split = 0.5 * (a * a + b * b)
        evens = np.arange(0, dist.nmax + 1, 2)
        probs = dist.probs[evens]
        low = int(evens[np.argmax(np.where(evens <= split, probs, -1.0))])
        high = int(evens[np.argmax(np.where(evens > split, probs, -1.0))])
        assert abs(low - lo_t) <= 2, f"{name}: low hump at {low}"
        assert abs(high - hi_t) <= 2, f"{name}: high hump at {high}"
    assert time.time() - start < 1.0
    report(2, "photon-number hump placement")


def test_criterion_3_normalization():
    start = time.time()
    for name in ALL_PRESETS:
        spec = states.preset(name)
        dist = photon.qts_pnd(spec, states.min_fock_truncation(spec))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10), name
        field = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        assert wigner.integrate(field) == pytest.approx(1.0, abs=1e-4), name
    assert time.time() - start < 30.0
    report(3, "distribution and field normalization")


def test_criterion_4_wigner_oracle_equivalence():
    start = time.time()
    for name in ["Y1", "Y2", "Y3", "even-cat(2)"]:
        spec = states.preset(name)
        half = spec.max_amplitude + 5.0
        grid = wigner.PhaseSpaceGrid(-half, half, -8.0, 8.0, 301, 201)
        closed = wigner.wigner_closed_form(spec, grid)
        m = spec.max_amplitude + 6.0
        xs = np.linspace(-m, m, 6501)
        psi = np.asarray(states.position_wavefunction(spec, xs))
        numeric = wigner.wigner_numeric(xs, psi, grid)
        sup = float(np.max(np.abs(closed.values - numeric.values)))
        assert sup <= 1e-6, f"{name}: sup deviation {sup:.3e}"
    assert time.time() - start < 120.0
    report(4, "transform-vs-closed-form equivalence")


def test_criterion_5_marginal_consistency():
    start = time.time()
    for name in ["Y1", "Y2", "Y3", "even-cat(2)"]:
        spec = states.preset(name)
        field = wigner.wigner_closed_form(spec, wigner.default_grid(spec))
        got_q = marginals.marginal_from_field(field, "position")
        got_p = marginals.marginal_from_field(field, "momentum")
        want_q = marginals.position_marginal(spec, got_q.coordinates)
        want_p = marginals.momentum_marginal(spec, got_p.coordinates)
        assert np.max(np.abs(got_q.densities - want_q.densities)) <= 1e-5, name
        assert np.max(np.abs(got_p.densities - want_p.densities)) <= 1e-5, name
    spec = states.preset("Y1")
    n = states.normalization(spec)
    ps = np.linspace(-8.0, 8.0, 3201)
    beat = (
        (4.0 / n)
        * np.exp(-0.5 * ps**2)
        / math.sqrt(2.0 * math.pi)
        * (np.cos(4.0 * ps) + np.cos(7.0 * ps)) ** 2
    )
    got = marginals.momentum_marginal(spec, ps).densities
    assert np.max(np.abs(got - beat)) <= 1e-8
    assert time.time() - start < 60.0
    report(5, "marginal consistency and beat modulation")


def test_criterion_6_interference_centre_locations():
    start = time.time()
    spec = states.preset("Y1")
    grid = wigner.PhaseSpaceGrid(-12.0, 12.0, -8.0, 8.0, 481, 401)  # dq = 0.05
    field = wigner.wigner_closed_form(spec, grid)
    qs = grid.qs()

    def column(q0):
        idx = int(round((q0 - grid.q_min) / grid.dq))
        assert abs(qs[idx] - q0) < 1e-9
        return field.values[idx, :]

    reference = max(
        float(np.max(np.abs(column(2.75)))), float(np.max(np.abs(column(-2.75))))
    )
    for q0 in (0.0, 1.5, -1.5, 5.5, -5.5):
        c = column(q0)
        amplitude = 0.5 * (float(c.max()) - float(c.min()))
        assert amplitude > 10.0 * reference, f"column {q0}: {amplitude} vs {reference}"

    ridge = local_maxima(field.values[:, (grid.np - 1) // 2], qs)
    for centre in (-7.0, -4.0, 4.0, 7.0):
        assert np.min(np.abs(ridge - centre)) <= grid.dq + 1e-12, f"ridge near {centre}"
    assert time.time() - start < 30.0
    report(6, "interference centre locations")


def test_criterion_7_envelope_derivative():
    start = time.time()
    h = 1e-5
    # integer sampling plus the interval edge; the envelope extrema sit near
    # half-integers, where a finite-difference reference loses meaning
    ns = np.concatenate([[0.5], np.arange(1.0, 121.0)])
    for name, (a, b) in CASES.items():
        for include in (True, False):
            for n in ns:
                analytic = photon.envelope_derivative(a, b, float(n), include)
                fd = (
                    photon.envelope(a, b, float(n) + h, include)
                    - photon.envelope(a, b, float(n) - h, include)
                ) / (2.0 * h)
                denom = max(abs(analytic), abs(fd))
                assert abs(analytic - fd) <= 1e-6 * denom, f"{name} n={n}"
        with_term = photon.envelope_extrema(a, b, 0.5, 120.0, True)
        without = photon.envelope_extrema(a, b, 0.5, 120.0, False)
        assert len(with_term) == len(without), name
        assert np.max(np.abs(with_term - without)) < 0.5, name
    assert time.time() - start < 5.0
    report(7, "envelope derivative and extrema stability")


def _well_pipeline_case(name):
    target = states.preset(name)
    well_spec, psi, fid = ws.solve_well(target, gamma=2.0)

    asym = float(np.max(np.abs(psi.values - psi.values[::-1])))
    assert asym <= 1e-8, f"{name}: parity asymmetry {asym:.2e}"
    assert fid >= 0.9, f"{name}: fidelity {fid:.4f}"

    half = target.max_amplitude + 4.0
    grid = wigner.PhaseSpaceGrid(-half, half, -8.0, 8.0, 221, 161)
    solver_field = wigner.wigner_numeric(psi.xs, psi.values, grid)
    target_field = wigner.wigner_closed_form(target, grid)
    qs = grid.qs()

    # density peaks at every macroscopically separated well centre
    density = marginals.marginal_from_field(solver_field, "position")
    dens_peaks = local_maxima(density.densities, density.coordinates)
    for centre in well_spec.centers:
        gap = min(abs(centre - c) for c in well_spec.centers if c != centre)
        if gap < MACRO_GAP:
            continue
        dist = float(np.min(np.abs(dens_peaks - centre)))
        assert dist <= grid.dq + 1e-12, f"{name}: centre {centre} off by {dist:.3f}"

    # every ridge of the computed slice sits on a ridge of the exact slice
    j0 = (grid.np - 1) // 2
    solver_peaks = local_maxima(solver_field.values[:, j0], qs)
    target_peaks = local_maxima(target_field.values[:, j0], qs)
    assert len(solver_peaks) > 0
    for peak in solver_peaks:
        dist = float(np.min(np.abs(target_peaks - peak)))
        assert dist <= grid.dq + 1e-12, f"{name}: stray ridge at {peak:.3f}"
    return fid


def test_criterion_8_well_pipeline():
    start = time.time()
    cfg = ws.SolverConfig(domain=(-10.0, 10.0), points=4001)
    bench = ws.ground_state(2.0 * cfg.xs() ** 2, cfg)
    assert abs(bench.energy - 1.0) <= 1e-4
    fidelities = {}
    for name in ["Y1", "Y2", "Y3"]:
        t0 = time.time()
        fidelities[name] = _well_pipeline_case(name)
        assert time.time() - t0 < 300.0, f"{name}: over per-case budget"
    print(
        "[acceptance] criterion 8 fidelities: "
        + ", ".join(f"{k}={v:.4f}" for k, v in fidelities.items())
    )
    assert time.time() - start < 900.0
    report(8, "well pipeline")


def test_criterion_9_special_functions():
    start = time.time()
    for x in np.linspace(0.05, 199.0, 1991):
        lhs = photon.digamma(float(x) + 1.0) - photon.digamma(float(x))
        rhs = 1.0 / float(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    for x in np.linspace(0.05, 0.95, 181):
        lhs = photon.digamma(1.0 - float(x)) - photon.digamma(float(x))
        rhs = math.pi / math.tan(math.pi * float(x))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    for alpha in (1.0, 2.0, 4.0, 6.0, 7.0):
        spec = states.SuperpositionSpec(terms=((alpha, 1.0),))
        ns = np.arange(states.min_fock_truncation(spec) + 1)
        p = photon.poisson_pnd(alpha, ns)
        mean = float(ns @ p)
        var = float(((ns - mean) ** 2) @ p)
        assert abs(mean - alpha * alpha) <= 1e-10
        assert abs(var - alpha * alpha) <= 1e-10
    assert time.time() - start < 1.0
    report(9, "special functions")


def test_criterion_10_determinism(tmp_path):
    start = time.time()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    argv = ["all", "--preset", "Y1"]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    data_files = sorted(p.name for p in out1.iterdir() if p.name != "manifest.txt")
    assert len(data_files) == 6
    for name in data_files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert time.time() - start < 600.0
    report(10, "determinism")
