"""Command-line front end emitting plot-ready CSV data.

Subcommands: ``wigner``, ``marginals``, ``pnd``, ``envelope``, ``well``
and ``all``.  Each run writes deterministic CSV files (12 significant
digits, fixed orderings, no timestamps inside data files) plus a
``manifest.txt`` listing the outputs and parameters; the manifest alone
carries the wall-clock timestamp.  Exit codes: 0 success, 2 usage
errors, 1 runtime failures.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import marginals, photon, states, wellsolver, wigner

__all__ = ["RunConfig", "parse_args", "run", "main"]

_COMMANDS = ("wigner", "marginals", "pnd", "envelope", "well", "all")

#: Flags whose values may start with '-' (ranges and signed lists).
_VALUE_FLAGS = {
    "--qrange",
    "--prange",
    "--amps",
    "--coeffs",
    "--domain",
}


@dataclass
class RunConfig:
    """Validated CLI invocation."""

    command: str
    spec: states.SuperpositionSpec
    out_dir: Path
    qrange: Optional[Tuple[float, float, int]] = None
    prange: Optional[Tuple[float, float, int]] = None
    nmax: Optional[int] = None
    points: int = 4001
    domain: Optional[Tuple[float, float]] = None
    gamma: float = 2.0


def _parse_range(text: str) -> Tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}")
    if not -math.inf < lo < hi < math.inf or count < 2:
        raise argparse.ArgumentTypeError(
            f"range must be finite with min < max, count >= 2: {text!r}"
        )
    return lo, hi, count


def _parse_domain(text: str) -> Tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"domain must be min:max, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed domain {text!r}")
    if not -math.inf < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(f"domain must be finite with min < max: {text!r}")
    return lo, hi


def _parse_floats(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed number list {text!r}")


def _normalize_argv(argv: Sequence[str]) -> List[str]:
    """Glue '-'-leading values onto their flags so argparse accepts them."""
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicat",
        description="Phase-space and photon statistics of coherent-state superpositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("--preset", action="append", default=None,
                       help="named state (Y1, Y2, Y3, vacuum, even-cat(a), odd-cat(a))")
        p.add_argument("--amps", type=_parse_floats, default=None,
                       help="comma-separated coherent amplitudes")
        p.add_argument("--coeffs", type=_parse_floats, default=None,
                       help="comma-separated coefficients (defaults to ones)")
        p.add_argument("--qrange", type=_parse_range, default=None, metavar="MIN:MAX:COUNT")
        p.add_argument("--prange", type=_parse_range, default=None, metavar="MIN:MAX:COUNT")
        p.add_argument("--nmax", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--points", type=int, default=4001, help="solver grid points")
        p.add_argument("--domain", type=_parse_domain, default=None, metavar="MIN:MAX")
        p.add_argument("--gamma", type=float, default=2.0, help="well shape parameter")
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig.

    Usage problems (unknown flags, malformed numbers, conflicting or
    missing spec sources) raise SystemExit with code 2, matching argparse.
    """
    parser = _build_parser()
    ns = parser.parse_args(_normalize_argv(list(argv)))

    sources = int(ns.preset is not None) + int(ns.amps is not None)
    if sources == 0:
        parser.error("one spec source is required: --preset or --amps")
    if sources > 1 or (ns.preset is not None and len(ns.preset) > 1):
        parser.error("conflicting spec sources: give exactly one --preset or --amps")
    if ns.coeffs is not None and ns.amps is None:
        parser.error("--coeffs requires --amps")

    try:
        if ns.preset is not None:
            spec = states.preset(ns.preset[0])
        else:
            coeffs = ns.coeffs if ns.coeffs is not None else tuple(1.0 for _ in ns.amps)
            if len(coeffs) != len(ns.amps):
                parser.error("--amps and --coeffs must have equal length")
            spec = states.SuperpositionSpec(terms=tuple(zip(ns.amps, coeffs)))
    except ValueError as exc:
        parser.error(str(exc))

    if ns.nmax is not None and ns.nmax < 0:
        parser.error("--nmax must be nonnegative")
    if ns.points < 3 or ns.points % 2 == 0:
        parser.error("--points must be an odd integer >= 3")
    if not 0 < ns.gamma < math.inf:
        parser.error("--gamma must be positive and finite")

    return RunConfig(
        command=ns.command,
        spec=spec,
        out_dir=Path(ns.out),
        qrange=ns.qrange,
        prange=ns.prange,
        nmax=ns.nmax,
        points=ns.points,
        domain=ns.domain,
        gamma=ns.gamma,
    )


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write_csv(path: Path, header: str, *columns) -> None:
    """Stream numeric columns as CSV lines in the ``.12g`` format of ``_fmt``.

    Two axes and a 2-D last column (the Wigner grid) give one line per axis
    pair; the second axis is formatted once and each first-axis row is one write.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    with path.open("w", newline="\n") as fh:
        fh.write(header + "\n")
        if cols[-1].ndim == 1:
            line = (",".join(["{:.12g}"] * len(cols)) + "\n").format
            fh.writelines(line(*row) for row in zip(*(c.tolist() for c in cols), strict=True))
            return
        qs, ps, values = cols
        p_cells = [f"{p:.12g}," for p in ps.tolist()]
        for q, row in zip(qs.tolist(), values, strict=True):
            head = f"{q:.12g},"
            fh.write("".join([f"{head}{p}{w:.12g}\n"
                              for p, w in zip(p_cells, row.tolist(), strict=True)]))


def _grid_for(cfg: RunConfig) -> wigner.PhaseSpaceGrid:
    default = wigner.default_grid(cfg.spec)
    q = cfg.qrange or (default.q_min, default.q_max, default.nq)
    p = cfg.prange or (default.p_min, default.p_max, default.np)
    return wigner.PhaseSpaceGrid(q[0], q[1], p[0], p[1], q[2], p[2])


def _emit_wigner(cfg: RunConfig) -> List[Path]:
    grid = _grid_for(cfg)
    fld = wigner.wigner_closed_form(cfg.spec, grid)
    path = cfg.out_dir / "wigner_field.csv"
    _write_csv(path, "q,p,w", grid.qs(), grid.ps(), fld.values)
    return [path]


def _emit_marginals(cfg: RunConfig) -> List[Path]:
    grid = _grid_for(cfg)
    qcurve = marginals.position_marginal(cfg.spec, grid.qs())
    pcurve = marginals.momentum_marginal(cfg.spec, grid.ps())
    qpath = cfg.out_dir / "marginal_position.csv"
    ppath = cfg.out_dir / "marginal_momentum.csv"
    _write_csv(qpath, "coordinate,density", qcurve.coordinates, qcurve.densities)
    _write_csv(ppath, "coordinate,density", pcurve.coordinates, pcurve.densities)
    return [qpath, ppath]


def _effective_nmax(cfg: RunConfig) -> int:
    return cfg.nmax if cfg.nmax is not None else states.min_fock_truncation(cfg.spec)


def _emit_pnd(cfg: RunConfig) -> List[Path]:
    dist = photon.qts_pnd(cfg.spec, _effective_nmax(cfg))
    path = cfg.out_dir / "pnd.csv"
    _write_csv(path, "n,probability", np.arange(dist.probs.size), dist.probs)
    return [path]


def _envelope_amplitudes(spec: states.SuperpositionSpec) -> Tuple[float, float]:
    mags = sorted(set(abs(m) for m in spec.amplitudes))
    if any(m == 0.0 for m in mags):
        raise ValueError("envelope analysis requires nonzero amplitudes")
    if len(mags) == 1:
        return mags[0], mags[0]
    if len(mags) == 2:
        return mags[0], mags[1]
    raise ValueError("envelope analysis expects at most two distinct |amplitudes|")


def _emit_envelope(cfg: RunConfig) -> List[Path]:
    a, b = _envelope_amplitudes(cfg.spec)
    nmax = _effective_nmax(cfg)
    ns = np.arange(0.0, nmax + 0.25, 0.25)
    flags = (False, True)
    values = [photon.envelope(a, b, ns, flag) for flag in flags]
    slopes = [photon.envelope_derivative(a, b, ns, flag) for flag in flags]
    path = cfg.out_dir / "envelope.csv"
    _write_csv(path, "n,value,derivative,with_interference", np.tile(ns, 2),
               np.concatenate(values), np.concatenate(slopes), np.repeat(flags, ns.size))
    return [path]


def _emit_well(cfg: RunConfig, include_curves: bool = True) -> List[Path]:
    if cfg.domain is None:
        solver_cfg = wellsolver.default_solver_config(cfg.spec, points=cfg.points, gamma=cfg.gamma)
    else:
        solver_cfg = wellsolver.SolverConfig(domain=cfg.domain, points=cfg.points)
    well_spec, psi, fid = wellsolver.solve_well(cfg.spec, gamma=cfg.gamma, cfg=solver_cfg)
    xs = psi.xs
    peaks = psi.density_peaks()

    paths: List[Path] = []
    if include_curves:
        vpath = cfg.out_dir / "well_potential.csv"
        _write_csv(vpath, "x,V", xs, wellsolver.potential(well_spec, xs))
        spath = cfg.out_dir / "well_wavefunction.csv"
        _write_csv(spath, "x,psi", xs, psi.values)
        paths.extend([vpath, spath])

    rpath = cfg.out_dir / "well_report.txt"
    with rpath.open("w", newline="\n") as fh:
        fh.write(f"centers={','.join(_fmt(c) for c in well_spec.centers)}\n")
        fh.write(f"v0={_fmt(well_spec.v0)}\n")
        fh.write(f"gamma={_fmt(well_spec.gamma)}\n")
        fh.write(f"sigma={_fmt(well_spec.sigma)}\n")
        fh.write(f"depth_scales={','.join(_fmt(s) for s in well_spec.scales)}\n")
        fh.write(f"grid_step={_fmt(psi.dx)}\n")
        fh.write(f"energy={_fmt(psi.energy)}\n")
        fh.write(f"iterations={psi.iterations}\n")
        fh.write(f"residual={_fmt(psi.residual)}\n")
        fh.write(f"fidelity={_fmt(fid)}\n")
        fh.write(f"peak_positions={','.join(_fmt(p) for p in peaks)}\n")
    paths.append(rpath)
    return paths


def run(cfg: RunConfig) -> List[Path]:
    """Execute a parsed configuration; returns the emitted data files."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    emitted: List[Path] = []
    if cfg.command in ("wigner", "all"):
        emitted += _emit_wigner(cfg)
    if cfg.command in ("marginals", "all"):
        emitted += _emit_marginals(cfg)
    if cfg.command in ("pnd", "all"):
        emitted += _emit_pnd(cfg)
    if cfg.command in ("envelope", "all"):
        emitted += _emit_envelope(cfg)
    if cfg.command == "well":
        emitted += _emit_well(cfg, include_curves=True)
    elif cfg.command == "all":
        emitted += _emit_well(cfg, include_curves=False)

    manifest = cfg.out_dir / "manifest.txt"
    with manifest.open("w", newline="\n") as fh:
        fh.write(f"command={cfg.command}\n")
        label = cfg.spec.label or "custom"
        fh.write(f"spec={label}\n")
        fh.write(f"terms={';'.join(f'{_fmt(m)}:{_fmt(c)}' for m, c in cfg.spec.terms)}\n")
        if cfg.qrange:
            fh.write(f"qrange={_fmt(cfg.qrange[0])}:{_fmt(cfg.qrange[1])}:{cfg.qrange[2]}\n")
        if cfg.prange:
            fh.write(f"prange={_fmt(cfg.prange[0])}:{_fmt(cfg.prange[1])}:{cfg.prange[2]}\n")
        if cfg.nmax is not None:
            fh.write(f"nmax={cfg.nmax}\n")
        fh.write(f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        for path in emitted:
            fh.write(f"output={path.name}\n")
    return emitted


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
