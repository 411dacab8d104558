"""Command-line front end emitting plot-ready CSV data.

``multicat COMMAND [flags]``: one parser reads the command and ten flags,
and every command accepts every flag.  The table ``_STEPS`` declares what
each command emits and which flags its manifest records when set.  Each
run writes deterministic CSV files (12 significant digits, fixed
orderings, no timestamps inside data files) plus a ``manifest.txt``
listing the outputs and those flags; the manifest alone carries the
wall-clock timestamp.  Exit codes: 0 success, 2 usage errors, 1 runtime
failures.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
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


#: printf format of every number in the data files; ``_cells`` reproduces C's output byte for byte.
_CELL = "%.12g"

#: Lines of a file formatted per write, so the text held stays bounded.
_BLOCK_LINES = 4096

#: Every decimal exponent e of a nonzero finite float64, and the exact power of two that
#: lifts |x| when e < _LIFTED, where 10**(11 - e) overflows.
_EXPONENTS = range(-324, 309)
_LIFT, _LIFTED = 2.0**128, -297

#: For each e: the correctly rounded 10**(11 - e), over _LIFT where |x| is lifted; the 5
#: prefix and 5 suffix slots of ``_cells`` ("0." and -e - 1 zeros for -4 <= e < 0,
#: "e+dd[d]" outside -4 <= e < 12); the digit the point follows.
_SCALE = np.array([float(Fraction(10) ** (11 - e) / Fraction(_LIFT if e < _LIFTED else 1))
                   for e in _EXPONENTS])
_AFFIX = np.array([(b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(5, b"\0")
                   + (b"" if -4 <= e < 12 else b"e%+03d" % e) for e in _EXPONENTS])
_AFFIX = _AFFIX.view(np.uint8).reshape(-1, 10).T.copy()
_LEAD = np.array([-1 if -4 <= e < 0 else e if 0 <= e < 12 else 0 for e in _EXPONENTS])

#: A scaled |x| this near a rounding tie goes to C: 4x the 2.3e-4 its two roundings may err by.
_TIE = 1e-3


def _fmt(x: float) -> str:
    return _CELL % float(x)


def _cells(x: np.ndarray) -> np.ndarray:
    """``_CELL`` of each value of 1-D float64 ``x``: 35 uint8 slot rows, 0 where unused.

    Slots: a sign, "0." and up to 3 zeros, 12 digits each with a point slot after it, and
    "e", a sign and 2 or 3 digits.  ``_fmt`` formats near ties and non-finite values.
    """
    fast = np.isfinite(x) & (x != 0)
    a = np.where(fast, np.abs(x), 1.0)  # zeros and non-finite values get e = 0
    e = np.floor(np.log10(a)).astype(np.intp) - _EXPONENTS.start
    y = a * np.where(e < _LIFTED - _EXPONENTS.start, _LIFT, 1.0) * _SCALE[e]  # the lift is exact
    m = np.rint(y)
    fast = fast & (np.abs(y - m) < 0.5 - _TIE) & (m >= 1e11) & (m <= 1e12) | (x == 0)
    carry = m == 1e12  # rounding (or log10 just below a power of ten) reached the next decade
    e += carry
    m = np.where(carry, 1e11, m) * (x != 0)
    v = np.array(np.divmod(m.astype(np.uint64), 10**6), np.uint32)  # six digits each
    digits = np.zeros((13, x.size), np.uint8)  # row 12 stays 0: no digit after the last
    for j in range(5, -1, -1):
        v, d = v // 10, v
        digits[j::6][:2] = d - v * 10
    shown = digits != 0
    for i in range(11, -1, -1):
        shown[i] |= shown[i + 1]
    rows, lead = np.arange(13)[:, None], _LEAD[e]
    shown |= rows <= lead  # trailing zeros go, integer digits stay
    cell = np.empty((35, x.size), np.uint8)
    cell[0] = np.signbit(x) * np.uint8(ord("-"))
    np.take(_AFFIX[:5], e, axis=1, out=cell[1:6])
    np.take(_AFFIX[5:], e, axis=1, out=cell[30:])
    cell[6:30:2] = (digits[:12] + np.uint8(ord("0"))) * shown[:12]
    cell[7:30:2] = ((rows[:12] == lead) & shown[1:]) * np.uint8(ord("."))
    j = np.flatnonzero(~fast)  # left to C
    cell[:, j] = np.array([_fmt(t).encode() for t in x[j]], "S35").view(np.uint8).reshape(-1, 35).T
    return cell


def _write_csv(path: Path, header: str, *columns) -> None:
    """Stream numeric columns as CSV lines, each number as ``_CELL`` prints it.

    A block of ``_BLOCK_LINES`` lines is a uint8 array, a row per line: ``_cells``
    fills each column's slots between fixed separators; ``bytes.translate`` drops
    the 0 slots.  Two axes and a 2-D last column (the Wigner grid) give blocks of
    whole q rows, each line led by "q,p," text formatted once per axis value.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    step, axes = _BLOCK_LINES, []
    if cols[-1].ndim == 2:
        qs, ps, values = cols
        if values.shape != (qs.size, ps.size):
            raise ValueError(f"grid of shape {values.shape} for {qs.size} x {ps.size} axes")
        axes = [np.array([c.tobytes().translate(None, b"\0") + b"," for c in _cells(a).T])
                .view(np.uint8).reshape(a.size, -1) for a in (qs, ps)]
        step, cols = max(1, step // ps.size) * ps.size, [values.ravel()]
    elif len({c.size for c in cols}) > 1:
        raise ValueError(f"columns differ in length: {[c.size for c in cols]}")
    head = sum(a.shape[1] for a in axes)
    lines, width = cols[0].size, head + 36 * len(cols)
    buf = np.frombuffer(raw := bytearray(min(lines, step) * width), np.uint8).reshape(-1, width)
    slots = buf[:, head:].reshape(len(buf), len(cols), 36)
    slots[:, :, 35] = [ord(",")] * (len(cols) - 1) + [ord("\n")]
    if axes:  # each block's lines are (q row, p) pairs: the p texts stay, the q texts change
        buf[:, :head].reshape(-1, ps.size, head)[:, :, axes[0].shape[1] :] = axes[1]
        qtext = buf[:, : axes[0].shape[1]].reshape(-1, ps.size, axes[0].shape[1])
    with path.open("wb") as fh:
        fh.write(f"{header}\n".encode())
        for i in range(0, lines, step):
            n = min(step, lines - i)
            if axes:
                qtext[: n // ps.size] = axes[0][i // ps.size : (i + n) // ps.size, None]
            for j, c in enumerate(cols):
                slots[:n, j, :35] = _cells(c[i : i + n]).T
            fh.write((raw if n == len(buf) else raw[: buf[:n].size]).translate(None, b"\0"))


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
    ns = states.photon_grid(cfg.spec.max_amplitude, _effective_nmax(cfg), 0.25)
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
        f"residual={psi.residual:.2g}\n"  # a round-off indicator: 2 digits, not 12
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
