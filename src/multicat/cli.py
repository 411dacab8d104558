"""Command-line front end emitting plot-ready CSV data.

``multicat COMMAND [flags]``: one parser reads the command and ten flags,
and every command accepts every flag.  The table ``_STEPS`` declares what
each command emits and which flags its manifest records when set: ``qrange``
and ``prange`` for ``wigner`` and ``marginals``; ``nmax`` for ``pnd`` and
``envelope``; ``gamma``, ``points`` and ``domain`` for ``well``; all six for
``all``.  Each run writes deterministic CSV files (12 significant digits,
fixed orderings, no timestamps inside data files) plus a ``manifest.txt``
listing the outputs and those flags; the manifest alone carries the
wall-clock timestamp.  Exit codes: 0 success, 2 usage errors, 1 runtime
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import marginals, photon, states, wellsolver, wigner

__all__ = ["parse_args", "run", "main"]

#: Flags whose values may start with '-' (ranges and signed lists).
_VALUE_FLAGS = {"--qrange", "--prange", "--amps", "--coeffs", "--domain"}


def _parse_bounds(text: str, fields: int) -> tuple:
    """``min:max`` (2 fields) or ``min:max:count`` (3 fields): finite, min < max, count >= 2."""
    form = ":".join(("min", "max", "count")[:fields])
    parts = text.split(":")
    if len(parts) != fields:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    try:
        lo, hi, *count = float(parts[0]), float(parts[1]), *map(int, parts[2:])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed {form} {text!r}")
    if not -math.inf < lo < hi < math.inf or any(n < 2 for n in count):
        rule = "finite min < max" + (", count >= 2" if count else "")
        raise argparse.ArgumentTypeError(f"{form} needs {rule}: {text!r}")
    return (lo, hi, *count)


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


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multicat",
        description="Phase-space and photon statistics of coherent-state superpositions.",
    )
    parser.add_argument("command", choices=_STEPS, help="the analysis to run")
    parser.add_argument("--preset", action="append", default=None,
                        help=f"named state ({', '.join(states.PRESET_NAMES)})")
    parser.add_argument("--amps", type=_parse_floats, default=None,
                        help="comma-separated coherent amplitudes")
    parser.add_argument("--coeffs", type=_parse_floats, default=None,
                        help="comma-separated coefficients (defaults to ones)")
    parse_range = partial(_parse_bounds, fields=3)
    parser.add_argument("--qrange", type=parse_range, default=None, metavar="MIN:MAX:COUNT")
    parser.add_argument("--prange", type=parse_range, default=None, metavar="MIN:MAX:COUNT")
    parser.add_argument("--nmax", type=int, default=None)
    parser.add_argument("--out", type=Path, default=".", help="output directory")
    parser.add_argument("--points", type=int, default=wellsolver.DEFAULT_POINTS,
                        help="solver grid points")
    parser.add_argument("--domain", type=partial(_parse_bounds, fields=2), default=None,
                        metavar="MIN:MAX")
    parser.add_argument("--gamma", type=float, default=wellsolver.DEFAULT_GAMMA,
                        help="well shape parameter")
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and validate argv into the namespace ``run`` reads.

    ``--preset`` or ``--amps``/``--coeffs`` become ``spec`` and are dropped;
    every other flag keeps its name and parsed value.  Usage problems
    (unknown flags, malformed numbers, conflicting or missing spec sources)
    raise SystemExit with code 2, matching argparse.
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

    ns.spec = spec
    del ns.preset, ns.amps, ns.coeffs
    return ns


#: printf format of every number in the data files.  ``%`` formatting and
#: ``format(x, ".12g")`` print a double through the same C routine.
_CELL = "%.12g"

#: Lines of a 1-D file formatted per write, so the text held stays bounded.
_BLOCK_LINES = 4096


def _fmt(x: float) -> str:
    return _CELL % float(x)


def _write_csv(path: Path, header: str, *columns) -> None:
    """Stream numeric columns as CSV lines; each write is one ``_CELL`` template filled in C.

    1-D columns go a block of lines per write.  Two axes and a 2-D last
    column (the Wigner grid) give one line per axis pair: the second axis is
    formatted once into a row template, and each first-axis row heads it.
    Templates are bytes, so no line is encoded or copied again on its way out.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    cell = _CELL.encode()
    with path.open("wb") as fh:
        fh.write(f"{header}\n".encode())
        if cols[-1].ndim == 1:
            if len({c.size for c in cols}) > 1:
                raise ValueError(f"columns differ in length: {[c.size for c in cols]}")
            line = b",".join([cell] * len(cols)) + b"\n"
            for i in range(0, cols[0].size, _BLOCK_LINES):
                block = np.column_stack([c[i : i + _BLOCK_LINES] for c in cols])
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
            return
        qs, ps, values = cols
        if values.shape != (qs.size, ps.size):
            raise ValueError(f"grid of shape {values.shape} for {qs.size} x {ps.size} axes")
        row_template = b"".join(b"\0" + cell % p + b"," + cell + b"\n" for p in ps.tolist())
        for q, row in zip(qs.tolist(), values):
            fh.write(row_template.replace(b"\0", cell % q + b",") % tuple(row.tolist()))


def _grid_for(cfg: argparse.Namespace) -> wigner.PhaseSpaceGrid:
    default = wigner.default_grid(cfg.spec)
    q = cfg.qrange or (default.q_min, default.q_max, default.nq)
    p = cfg.prange or (default.p_min, default.p_max, default.np)
    return wigner.PhaseSpaceGrid(q[0], q[1], p[0], p[1], q[2], p[2])


#: One data file of a run: its path and the call that writes it.
_Output = Tuple[Path, Callable[[], object]]


def _csv(path: Path, header: str, *columns) -> _Output:
    return path, partial(_write_csv, path, header, *columns)


def _emit_wigner(cfg: argparse.Namespace) -> List[_Output]:
    grid = _grid_for(cfg)
    fld = wigner.wigner_closed_form(cfg.spec, grid)
    return [_csv(cfg.out / "wigner_field.csv", "q,p,w", grid.qs(), grid.ps(), fld.values)]


def _emit_marginals(cfg: argparse.Namespace) -> List[_Output]:
    grid = _grid_for(cfg)
    qcurve = marginals.position_marginal(cfg.spec, grid.qs())
    pcurve = marginals.momentum_marginal(cfg.spec, grid.ps())
    return [
        _csv(cfg.out / "marginal_position.csv", "coordinate,density",
             qcurve.coordinates, qcurve.densities),
        _csv(cfg.out / "marginal_momentum.csv", "coordinate,density",
             pcurve.coordinates, pcurve.densities),
    ]


def _effective_nmax(cfg: argparse.Namespace) -> int:
    return cfg.nmax if cfg.nmax is not None else states.min_fock_truncation(cfg.spec)


def _emit_pnd(cfg: argparse.Namespace) -> List[_Output]:
    dist = photon.qts_pnd(cfg.spec, _effective_nmax(cfg))
    return [_csv(cfg.out / "pnd.csv", "n,probability", np.arange(dist.probs.size), dist.probs)]


def _emit_envelope(cfg: argparse.Namespace) -> List[_Output]:
    ns = np.arange(0.0, _effective_nmax(cfg) + 0.25, 0.25)
    flags = (False, True)
    values, slopes = zip(*(photon.pair_envelope(cfg.spec, ns, flag) for flag in flags))
    return [_csv(cfg.out / "envelope.csv", "n,value,derivative,with_interference",
                 np.tile(ns, 2), np.concatenate(values), np.concatenate(slopes),
                 np.repeat(flags, ns.size))]


def _emit_well(cfg: argparse.Namespace, include_curves: bool = True) -> List[_Output]:
    if cfg.domain is None:
        solver_cfg = wellsolver.default_solver_config(cfg.spec, points=cfg.points, gamma=cfg.gamma)
    else:
        solver_cfg = wellsolver.SolverConfig(domain=cfg.domain, points=cfg.points)
    well_spec, psi, fid = wellsolver.solve_well(cfg.spec, gamma=cfg.gamma, cfg=solver_cfg)
    xs = psi.xs
    peaks = psi.density_peaks()

    outputs: List[_Output] = []
    if include_curves:
        outputs.append(_csv(cfg.out / "well_potential.csv", "x,V",
                            xs, wellsolver.potential(well_spec, xs)))
        outputs.append(_csv(cfg.out / "well_wavefunction.csv", "x,psi", xs, psi.values))

    report = (
        f"centers={','.join(_fmt(c) for c in well_spec.centers)}\n"
        f"v0={_fmt(well_spec.v0)}\n"
        f"gamma={_fmt(well_spec.gamma)}\n"
        "sigma=1\n"  # the unit width in which gamma sets the wells' width 1/sqrt(gamma)
        f"depth_scales={','.join(_fmt(s) for s in well_spec.scales)}\n"
        f"grid_step={_fmt(psi.dx)}\n"
        f"energy={_fmt(psi.energy)}\n"
        f"iterations={psi.iterations}\n"
        f"residual={_fmt(psi.residual)}\n"
        f"fidelity={_fmt(fid)}\n"
        f"peak_positions={','.join(_fmt(p) for p in peaks)}\n"
    )
    rpath = cfg.out / "well_report.txt"
    outputs.append((rpath, partial(rpath.write_text, report, newline="\n")))
    return outputs


#: Each command's emitters, in order, and the flags it reads, in the order
#: its manifest records them; ``all`` runs every other command's emitters.
_STEPS = {
    "wigner": ((_emit_wigner,), ("qrange", "prange")),
    "marginals": ((_emit_marginals,), ("qrange", "prange")),
    "pnd": ((_emit_pnd,), ("nmax",)),
    "envelope": ((_emit_envelope,), ("nmax",)),
    "well": ((_emit_well,), ("gamma", "points", "domain")),
    "all": ((_emit_wigner, _emit_marginals, _emit_pnd, _emit_envelope,
             partial(_emit_well, include_curves=False)),
            ("qrange", "prange", "nmax", "gamma", "points", "domain")),
}


def _flag_text(value) -> str:
    """A flag's value as its manifest line records it: a tuple's parts joined by ':'."""
    parts = value if isinstance(value, tuple) else (value,)
    return ":".join(_fmt(v) if isinstance(v, float) else str(v) for v in parts)


def run(cfg: argparse.Namespace) -> List[Path]:
    """Execute a parsed configuration; returns the emitted data files.

    Every step computes before any file is written, so a step that fails
    leaves no data file of this run behind without a manifest.
    """
    emitters, reads = _STEPS[cfg.command]
    cfg.out.mkdir(parents=True, exist_ok=True)
    outputs = [output for emit in emitters for output in emit(cfg)]
    for _, write in outputs:
        write()

    with (cfg.out / "manifest.txt").open("w", newline="\n") as fh:
        fh.write(f"command={cfg.command}\nspec={cfg.spec.label or 'custom'}\n")
        fh.write(f"terms={';'.join(f'{_fmt(m)}:{_fmt(c)}' for m, c in cfg.spec.terms)}\n")
        # only what this command read, so the manifest repeats the run
        for key in reads:
            if getattr(cfg, key) is not None:
                fh.write(f"{key}={_flag_text(getattr(cfg, key))}\n")
        fh.write(f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}\n")
        for path, _ in outputs:
            fh.write(f"output={path.name}\n")
    return [path for path, _ in outputs]


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
