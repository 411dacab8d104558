"""Command-line interface: parsing, file emission, determinism, round-trips."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicat import cli, marginals, photon, states, wellsolver, wigner


def parse(argv):
    return cli.parse_args(argv)


class TestParsing:
    def test_pnd_preset_run(self, tmp_path):
        cfg = parse(["pnd", "--preset", "Y1", "--nmax", "130", "--out", str(tmp_path)])
        assert cfg.command == "pnd"
        assert sorted(m for m, _ in cfg.spec.terms) == [-7.0, -4.0, 4.0, 7.0]
        assert cfg.nmax == 130

    def test_inline_amps_with_negative_ranges(self, tmp_path):
        cfg = parse(
            [
                "wigner",
                "--amps", "2,-2",
                "--coeffs", "1,1",
                "--qrange", "-8:8:401",
                "--prange", "-8:8:401",
                "--out", str(tmp_path),
            ]
        )
        assert cfg.qrange == (-8.0, 8.0, 401)
        assert cfg.prange == (-8.0, 8.0, 401)
        assert cfg.spec.terms == ((2.0, 1.0), (-2.0, 1.0))

    def test_conflicting_spec_sources_exit_2(self):
        with pytest.raises(SystemExit) as err:
            parse(["wigner", "--preset", "Y1", "--preset", "Y2"])
        assert err.value.code == 2

    def test_parser_is_built_once_and_reused(self, capsys):
        # --preset appends to a default of None, so a reused parser starts each parse afresh
        first = parse(["pnd", "--preset", "Y1"])
        second = parse(["pnd", "--preset", "Y1"])
        assert first.spec == second.spec == states.preset("Y1")
        assert "conflicting spec sources" not in capsys.readouterr().err
        assert cli._build_parser() is cli._build_parser()

    def test_preset_and_amps_conflict(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--preset", "Y1", "--amps", "1,2"])
        assert err.value.code == 2

    def test_missing_spec_source(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd"])
        assert err.value.code == 2

    def test_malformed_range(self):
        with pytest.raises(SystemExit) as err:
            parse(["wigner", "--preset", "Y1", "--qrange", "1:2"])
        assert err.value.code == 2

    def test_malformed_number_list(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--amps", "1,zap"])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--preset", "Y1", "--frobnicate"])
        assert err.value.code == 2

    def test_unknown_preset(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--preset", "Y9"])
        assert err.value.code == 2

    def test_amps_without_coeffs_defaults_to_ones(self):
        cfg = parse(["pnd", "--amps", "-3,3"])
        assert cfg.spec.terms == ((-3.0, 1.0), (3.0, 1.0))

    def test_tol_flag_removed(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--preset", "Y1", "--tol", "nan"])
        assert err.value.code == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(SystemExit) as err:
            parse(["well", "--preset", "Y1", "--gamma", gamma])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--domain", "-inf:inf"), ("--qrange", "nan:1:5")])
    def test_non_finite_ranges_rejected(self, flag, value):
        with pytest.raises(SystemExit) as err:
            parse(["wigner", "--preset", "Y1", flag, value])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--qrange", "1:2"), ("--qrange", "1:2:3:4"), ("--qrange", "a:2:5"),
        ("--qrange", "1:2:3.5"), ("--qrange", "2:1:5"), ("--qrange", "1:1:5"),
        ("--qrange", "1:2:1"), ("--qrange", "-inf:2:5"), ("--prange", "1:nan:5"),
        ("--domain", "1"), ("--domain", "1:2:3"), ("--domain", "x:2"), ("--domain", "3:-3"),
        ("--domain", "0:0"), ("--domain", "0:inf"), ("--domain", ""),
    ])
    def test_bad_bounds_exit_2(self, flag, value):
        with pytest.raises(SystemExit) as err:
            parse(["well", "--preset", "Y1", f"{flag}={value}"])
        assert err.value.code == 2

    def test_coeff_length_mismatch(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--amps", "1,2", "--coeffs", "1"])
        assert err.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as err:
            parse(["histogram", "--preset", "Y1"])
        assert err.value.code == 2

    def test_flags_before_the_command_parse_the_same(self, tmp_path):
        flags = ["--amps", "2,-2", "--qrange", "-8:8:41", "--nmax", "70", "--domain", "-9:9",
                 "--out", str(tmp_path)]
        assert vars(parse([*flags, "well"])) == vars(parse(["well", *flags]))


class TestRuns:
    def test_pnd_emits_csv(self, tmp_path):
        rc = cli.main(["pnd", "--preset", "even-cat(2)", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "pnd.csv").read_text().splitlines()
        assert lines[0] == "n,probability"
        probs = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "manifest.txt").exists()

    def test_wigner_round_trip(self, tmp_path):
        # the +-3 window misses 0.3% of the vacuum's mass
        with pytest.warns(UserWarning, match="mass deficit"):
            rc = cli.main(
                ["wigner", "--preset", "vacuum", "--qrange", "-3:3:41",
                 "--prange", "-3:3:31", "--out", str(tmp_path)]
            )
        assert rc == 0
        text = (tmp_path / "wigner_field.csv").read_text().splitlines()
        assert text[0] == "q,p,w"
        assert len(text) == 1 + 41 * 31
        # re-parsing and re-printing reproduces the file exactly
        rows = [line.split(",") for line in text[1:]]
        rebuilt = [",".join(f"{float(v):.12g}" for v in row) for row in rows]
        assert rebuilt == text[1:]

    def test_marginals_files(self, tmp_path):
        rc = cli.main(["marginals", "--preset", "Y3", "--out", str(tmp_path)])
        assert rc == 0
        for name in ("marginal_position.csv", "marginal_momentum.csv"):
            header = (tmp_path / name).read_text().splitlines()[0]
            assert header == "coordinate,density"

    def test_envelope_schema(self, tmp_path):
        rc = cli.main(["envelope", "--preset", "Y3", "--nmax", "120", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "envelope.csv").read_text().splitlines()
        assert lines[0] == "n,value,derivative,with_interference"
        flags = {line.split(",")[3] for line in lines[1:]}
        assert flags == {"0", "1"}

    def test_nmax_below_rule_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(["pnd", "--preset", "Y1", "--nmax", "130", "--out", str(tmp_path)])
        assert rc == 1
        assert "truncation too small" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pnd", "envelope"])
    def test_huge_amplitude_is_runtime_error(self, tmp_path, capsys, command):
        # the truncation rule overflows at |mu| = 1e200; the error names the amplitude
        rc = cli.main([command, "--amps", "1e200,-1e200", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: amplitude 1e+200 too large")

    @pytest.mark.parametrize("command", ["pnd", "envelope"])
    @pytest.mark.parametrize("argv", [["--amps", "1e4,-1e4"], ["--amps", "1e100,-1e100"],
                                      ["--preset", "Y1", "--nmax", "1000000000"]])
    def test_too_many_fock_rows_is_runtime_error(self, tmp_path, capsys, command, argv):
        # over 2**24 Fock rows (or 0.25-step envelope rows): refused before allocating them
        tracemalloc.start()
        try:
            rc = cli.main([command, *argv, "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert re.match(r"error: amplitude (10000\.0|1e\+100|7\.0) with nmax=\d+ needs more than"
                        r" 16777216 \(2\*\*24\) rows$", err), err
        assert peak < 2**20

    def test_failing_step_leaves_no_data_file(self, tmp_path, capsys):
        # the envelope step refuses a target without parity, after three steps computed
        out = tmp_path / "run"
        assert cli.main(["all", "--amps", "4,7", "--out", str(out)]) == 1
        assert "even or odd" in capsys.readouterr().err
        assert list(out.iterdir()) == []  # no CSV, no manifest

    def test_failing_run_keeps_an_earlier_run_whole(self, tmp_path):
        assert cli.main(["pnd", "--preset", "even-cat(2)", "--out", str(tmp_path)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert cli.main(["all", "--amps", "4,7", "--out", str(tmp_path)]) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_cancelling_fock_sum_is_runtime_error(self, tmp_path, capsys):
        argv = ["pnd", "--amps=-1e-4,0,1e-4", "--coeffs=1,-2,1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert "captured mass" in capsys.readouterr().err

    def test_cancelling_pair_sum_is_refused(self, tmp_path, capsys):
        # |0> - |1e-5> has kappa = 4e10: its closed-form field would be wrong from the 6th digit
        argv = ["wigner", "--amps", "0,1e-5", "--coeffs", "1,-1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: terms cancel: kappa = 4e+10") and "multicat pnd" in err
        assert list(tmp_path.iterdir()) == []

    def test_well_report_fields(self, tmp_path):
        rc = cli.main(
            ["well", "--preset", "even-cat(2)", "--points", "2001", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = dict(
            line.split("=", 1) for line in (tmp_path / "well_report.txt").read_text().splitlines()
        )
        for key in ("energy", "iterations", "residual", "fidelity", "peak_positions"):
            assert key in report
        assert float(report["fidelity"]) > 0.9
        peaks = [float(tok) for tok in report["peak_positions"].split(",")]
        assert min(abs(p - 2.0) for p in peaks) < 0.1
        assert (tmp_path / "well_potential.csv").exists()
        assert (tmp_path / "well_wavefunction.csv").exists()

    def test_truncated_domain_is_runtime_error(self, tmp_path, capsys):
        # the outer wells at +-7 sit one unit inside the domain ends
        rc = cli.main(["well", "--preset", "Y1", "--domain=-8:8", "--out", str(tmp_path)])
        assert rc == 1
        assert "domain too small" in capsys.readouterr().err

    def test_well_report_middle_case(self, tmp_path):
        # frozen numbers: solving each well system once must not move them
        rc = cli.main(["well", "--preset", "Y2", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "well_report.txt").read_text().splitlines()
        assert "depth_scales=1,0.825424034938,0.825424034938,1" in lines
        assert "energy=1.03569637884" in lines
        assert "fidelity=0.978930461537" in lines

    def test_well_report_first_case(self, tmp_path):
        # frozen numbers
        rc = cli.main(["well", "--preset", "Y1", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "well_report.txt").read_text().splitlines()
        assert "depth_scales=1,0.999999095436,0.999999095436,1" in lines
        assert "energy=0.982869492506" in lines
        assert "fidelity=0.988583315623" in lines

    def test_well_report_odd_three_groups(self, tmp_path):
        # the polish follows the fidelity 2e-2 below s*, past where a fixed
        # 8e-3 window around s* stopped at 0.868
        argv = ["well", "--amps", "1,-1,4,-4,7,-7", "--coeffs", "1,-1,1,-1,1,-1"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        report = dict(
            line.split("=", 1) for line in (tmp_path / "well_report.txt").read_text().splitlines()
        )
        assert float(report["fidelity"]) >= 0.94

    @pytest.mark.parametrize("command,extra,recorded", [
        ("well", [], ["gamma=3", "points=5001"]),
        ("all", [], ["gamma=3", "points=5001"]),
        ("well", ["--domain=-30:30"], ["gamma=3", "points=5001", "domain=-30:30"]),
        ("all", ["--domain=-30:30"], ["gamma=3", "points=5001", "domain=-30:30"]),
        ("pnd", ["--domain=-30:30"], []),
        ("wigner", ["--qrange=-12:12:601", "--nmax", "5"], ["qrange=-12:12:601"]),
        ("marginals", ["--prange=-8:8:401", "--nmax", "5"], ["prange=-8:8:401"]),
        ("pnd", ["--qrange=-1:1:3", "--prange=-1:1:3", "--nmax", "140"], ["nmax=140"]),
        ("envelope", ["--qrange=-1:1:3", "--prange=-1:1:3"], []),
        ("all", ["--qrange=-12:12:601", "--nmax", "140"],
         ["qrange=-12:12:601", "nmax=140", "gamma=3", "points=5001"]),
    ], ids=["well", "all", "well-domain", "all-domain", "pnd", "wigner-ranges",
            "marginals-ranges", "pnd-nmax", "envelope", "all-ranges-nmax"])
    def test_manifest_records_the_solver_grid(self, tmp_path, command, extra, recorded):
        # a run repeats from its manifest, which records only what its command
        # read: ranges for the grids, nmax for the photon numbers, and gamma,
        # points and any --domain for the wells
        argv = [command, "--preset", "Y1", "--gamma", "3", "--points", "5001", *extra]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        keys = ("qrange", "prange", "nmax", "gamma", "points", "domain")
        assert [l for l in lines if l.split("=")[0] in keys] == recorded

    def test_well_domain_reaches_calibration(self, tmp_path):
        # Y2's inner depths are calibrated on the --domain grid, not the default one
        rc = cli.main(["well", "--preset", "Y2", "--domain=-24:24", "--points", "2401",
                       "--out", str(tmp_path)])
        assert rc == 0
        report = dict(
            line.split("=", 1) for line in (tmp_path / "well_report.txt").read_text().splitlines()
        )
        assert float(report["grid_step"]) == pytest.approx(0.02)
        target = states.preset("Y2")
        grids = {
            "domain": wellsolver.SolverConfig(domain=(-24.0, 24.0), points=2401),
            "default": wellsolver.default_solver_config(target, points=2401),
        }
        scales = {
            key: ",".join(cli._fmt(s) for s in wellsolver.solve_well(target, cfg=g)[0].scales)
            for key, g in grids.items()
        }
        assert report["depth_scales"] == scales["domain"] != scales["default"]

    @pytest.mark.parametrize("gamma", ["4", "6"])
    def test_shallow_wells_fit_the_default_domain(self, tmp_path, gamma):
        rc = cli.main(["well", "--preset", "Y2", "--gamma", gamma, "--out", str(tmp_path)])
        assert rc == 0
        psi = np.loadtxt(tmp_path / "well_wavefunction.csv", delimiter=",", skiprows=1)[:, 1]
        assert max(abs(psi[0]), abs(psi[-1])) <= wellsolver.BOUNDARY_DECAY * np.max(np.abs(psi))

    @pytest.mark.parametrize("argv", [
        ["--gamma", "50"], ["--gamma", "20"], ["--domain=-700:700"],
    ], ids=["gamma-50", "gamma-20", "wide-domain"])
    def test_grid_too_coarse_is_runtime_error(self, tmp_path, capsys, argv):
        rc = cli.main(["well", "--preset", "Y1", *argv, "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "grid too coarse" in err and "--points" in err
        assert not (tmp_path / "well_report.txt").exists()

    @pytest.mark.parametrize("argv,gamma", [
        (["--gamma", "50", "--points", "40001"], 50.0), (["--domain=-400:400"], 2.0),
    ], ids=["gamma-50-fine", "wide-domain-gamma-2"])
    def test_grid_fine_enough_is_solved(self, tmp_path, argv, gamma):
        assert cli.main(["well", "--preset", "Y1", *argv, "--out", str(tmp_path)]) == 0
        report = dict(
            line.split("=", 1) for line in (tmp_path / "well_report.txt").read_text().splitlines()
        )
        assert float(report["grid_step"]) <= 0.5 * min(gamma**-0.5, 0.5)

    def test_well_comb_case_peak_locations(self, tmp_path):
        rc = cli.main(["well", "--preset", "Y3", "--out", str(tmp_path)])
        assert rc == 0
        report = dict(
            line.split("=", 1) for line in (tmp_path / "well_report.txt").read_text().splitlines()
        )
        peaks = [float(tok) for tok in report["peak_positions"].split(",")]
        step = float(report["grid_step"])
        assert float(report["fidelity"]) >= 0.9
        for centre in (-6.0, -2.0, 2.0, 6.0):
            assert min(abs(p - centre) for p in peaks) <= step


class TestEnvelopeTargets:
    @pytest.mark.parametrize("argv,sign", [
        (["--preset", "odd-cat(1)"], -1.0),
        (["--amps", "1,-1,2.5,-2.5", "--coeffs", "1,-1,1,-1"], -1.0),
        (["--amps", "4,-4,7,-7", "--coeffs", "1,1,2,2"], 1.0),
        (["--amps", "1,-1,3,-3,5.5,-5.5", "--coeffs", "1,1,-0.5,-0.5,2,2"], 1.0),
        (["--amps", "0.5,-0.5,2,-2,4,-4", "--coeffs", "1.5,-1.5,1,-1,0.75,-0.75"], -1.0),
    ], ids=["odd-cat", "odd-pairs", "weighted-pairs", "six-even", "six-odd"])
    def test_envelope_times_parity_is_the_distribution(self, tmp_path, argv, sign):
        for command in ("pnd", "envelope"):
            assert cli.main([command, *argv, "--out", str(tmp_path)]) == 0
        probs = np.loadtxt(tmp_path / "pnd.csv", delimiter=",", skiprows=1)[:, 1]
        env = np.loadtxt(tmp_path / "envelope.csv", delimiter=",", skiprows=1)
        full = env[(env[:, 3] == 1.0) & (env[:, 0] == np.round(env[:, 0]))]
        ns = full[:, 0].astype(int)
        assert np.array_equal(ns, np.arange(probs.size))
        parity = 1.0 + sign * np.where(ns % 2 == 0, 1.0, -1.0)
        assert np.all(np.abs(full[:, 1] * parity - probs) <= 1e-15 + 1e-9 * probs)

    def test_target_without_parity_is_runtime_error(self, tmp_path, capsys):
        rc = cli.main(["envelope", "--amps", "4,7", "--out", str(tmp_path)])
        assert rc == 1
        assert "even or odd" in capsys.readouterr().err


class TestStepTable:
    FLAGS = ["--preset", "Y3", "--qrange", "-11:11:221", "--prange", "-8:8:81",
             "--nmax", "140", "--points", "2001"]
    PARTS = {
        "wigner": ["wigner_field.csv"],
        "marginals": ["marginal_position.csv", "marginal_momentum.csv"],
        "pnd": ["pnd.csv"],
        "envelope": ["envelope.csv"],
        "well": ["well_report.txt"],
    }

    def test_all_is_the_other_commands(self, tmp_path):
        # all writes each command's files byte for byte, and well's report without its curves
        assert cli.main(["all", *self.FLAGS, "--out", str(tmp_path / "all")]) == 0
        for command, names in self.PARTS.items():
            out = tmp_path / command
            assert cli.main([command, *self.FLAGS, "--out", str(out)]) == 0
            for name in names:
                assert (tmp_path / "all" / name).read_bytes() == (out / name).read_bytes(), name
        listed = [line.split("=", 1)[1]
                  for line in (tmp_path / "all" / "manifest.txt").read_text().splitlines()
                  if line.startswith("output=")]
        assert listed == [name for names in self.PARTS.values() for name in names]
        assert sorted(p.name for p in (tmp_path / "all").iterdir()) == sorted(
            listed + ["manifest.txt"])


class TestImportFootprint:
    """In a fresh interpreter, each command and the photon routines skip SciPy they never call.

    Only modules that ``import scipy.special`` leaves unloaded count: SciPy before 1.17
    imports ``scipy.linalg`` from ``scipy.special``, which multicat needs at import.
    """

    DEFERRED = ("scipy.optimize", "scipy.interpolate", "scipy.linalg")
    SCRIPT = ("import sys\nimport numpy, scipy.special\nbase = set(sys.modules)\n"
              "from multicat import cli\ncode = cli.main(sys.argv[2:])\n"
              "print(code, *sorted(set(sys.argv[1].split(',')) & (set(sys.modules) - base)))")
    LIBRARY = ("import sys\nimport numpy, scipy.special\nbase = set(sys.modules)\n"
               "from multicat import photon, states\nspec = states.preset('Y1')\n"
               "nmax = states.min_fock_truncation(spec)\nphoton.qts_pnd(spec, nmax)\n"
               "photon.qts_pnd_closed_form(4.0, 7.0, nmax)\n"
               "for flag in (True, False):\n"
               "    photon.envelope_extrema(4.0, 7.0, 0.0, float(nmax), flag)\n"
               "print(*sorted(set(sys.argv[1].split(',')) & (set(sys.modules) - base)))")
    ORACLE = ("import sys\nimport numpy, scipy.special\nbase = set(sys.modules)\n"
              "from multicat import states, wigner\nspec = states.preset('Y1')\n"
              "xs = numpy.linspace(-13.0, 13.0, 2001)\n"
              "psi = states.position_wavefunction(spec, xs)\n"
              "wigner.wigner_numeric(xs, psi, wigner.default_grid(spec, 61, 161))\n"
              "print(*sorted(set(sys.argv[1].split(',')) & (set(sys.modules) - base)))")

    @pytest.mark.parametrize("argv, unused", [
        (["wigner", "--preset", "Y1"], DEFERRED),
        (["marginals", "--preset", "Y1"], DEFERRED),
        (["pnd", "--preset", "Y1"], DEFERRED),
        (["envelope", "--preset", "Y1"], DEFERRED),
        # the well solve needs scipy.optimize and scipy.linalg; nothing loads scipy.interpolate
        (["well", "--preset", "odd-cat(3)", "--points", "2001"], ("scipy.interpolate",)),
    ], ids=["wigner", "marginals", "pnd", "envelope", "well"])
    def test_command_leaves_unused_scipy_unloaded(self, tmp_path, argv, unused):
        proc = self.fresh(self.SCRIPT, ",".join(unused), *argv, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"], f"loaded: {proc.stdout}"

    def test_photon_routines_leave_deferred_scipy_unloaded(self):
        # the distributions and the envelope extrema need scipy.special alone
        proc = self.fresh(self.LIBRARY, ",".join(self.DEFERRED))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [], f"loaded: {proc.stdout}"

    def test_wigner_numeric_leaves_interpolate_and_optimize_unloaded(self):
        # the spline is one LAPACK gtsv solve from scipy.linalg
        proc = self.fresh(self.ORACLE, "scipy.interpolate,scipy.optimize")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [], f"loaded: {proc.stdout}"

    @staticmethod
    def fresh(script, *args):
        """``script`` with ``args`` in a new interpreter that imports this tree's multicat."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", script, *args],
                              env=env, capture_output=True, text=True, timeout=120)


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["marginals", "--preset", "Y3", "--qrange", "-11:11:201",
                "--prange", "-8:8:201"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        for name in ("marginal_position.csv", "marginal_momentum.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def csv_text(header, *columns):
    """The expected file: one line per row, each value as f"{float(x):.12g}"."""
    lines = [header] + [",".join(f"{float(x):.12g}" for x in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


class TestByteFormat:
    EDGE = [-0.0, 5e-324, 1e16, 1e-5, 3.0]

    def test_all_files_match_library_arrays(self, tmp_path):
        # 49 p points over |p| <= 8 give the widest pair 1.6 samples per fringe period
        argv = ["all", "--preset", "Y3", "--qrange", "-11:11:67", "--prange", "-8:8:49"]
        with pytest.warns(UserWarning, match="fringes undersampled"):
            assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        spec = states.preset("Y3")
        grid = wigner.PhaseSpaceGrid(-11.0, 11.0, -8.0, 8.0, 67, 49)
        qs, ps = grid.qs(), grid.ps()
        with pytest.warns(UserWarning, match="fringes undersampled"):
            field = wigner.wigner_closed_form(spec, grid).values
        qcurve = marginals.position_marginal(spec, qs)
        pcurve = marginals.momentum_marginal(spec, ps)
        nmax = states.min_fock_truncation(spec)
        probs = photon.qts_pnd(spec, nmax).probs
        ns = np.arange(0.0, nmax + 0.25, 0.25)
        flags = (False, True)
        values = np.concatenate([photon.envelope(2.0, 6.0, ns, flag) for flag in flags])
        slopes = np.concatenate([photon.envelope_derivative(2.0, 6.0, ns, flag) for flag in flags])
        expected = {
            "wigner_field.csv": csv_text("q,p,w", np.repeat(qs, ps.size),
                                         np.tile(ps, qs.size), field.ravel()),
            "marginal_position.csv": csv_text("coordinate,density",
                                              qcurve.coordinates, qcurve.densities),
            "marginal_momentum.csv": csv_text("coordinate,density",
                                              pcurve.coordinates, pcurve.densities),
            "pnd.csv": csv_text("n,probability", range(nmax + 1), probs),
            "envelope.csv": csv_text("n,value,derivative,with_interference",
                                     np.tile(ns, 2), values, slopes,
                                     [0] * ns.size + [1] * ns.size),
        }
        for name, text in expected.items():
            assert (tmp_path / name).read_text() == text, name

    def test_well_files_match_library_arrays(self, tmp_path):
        argv = ["well", "--preset", "even-cat(2)", "--points", "2001"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        spec = states.preset("even-cat(2)")
        cfg = wellsolver.default_solver_config(spec, points=2001)
        well_spec, psi, _ = wellsolver.solve_well(spec, gamma=2.0, cfg=cfg)
        potential = wellsolver.potential(well_spec, psi.xs)
        assert (tmp_path / "well_potential.csv").read_text() == csv_text("x,V", psi.xs, potential)
        assert (tmp_path / "well_wavefunction.csv").read_text() == csv_text(
            "x,psi", psi.xs, psi.values
        )

    @pytest.mark.parametrize("argv, grid", [
        (["--preset", "Y1"], None),
        # mostly exact zeros and values underflowed below 1e-290
        (["--preset", "Y3", "--qrange", "-60:60:1201", "--prange", "-30:30:301"],
         (-60.0, 60.0, -30.0, 30.0, 1201, 301)),
    ], ids=["Y1-default", "Y3-wide"])
    def test_wigner_file_matches_library_field(self, tmp_path, argv, grid):
        assert cli.main(["wigner", *argv, "--out", str(tmp_path)]) == 0
        spec = states.preset(argv[1])
        grid = wigner.default_grid(spec) if grid is None else wigner.PhaseSpaceGrid(*grid)
        qs, ps = grid.qs(), grid.ps()
        field = wigner.wigner_closed_form(spec, grid).values
        assert (tmp_path / "wigner_field.csv").read_text() == csv_text(
            "q,p,w", np.repeat(qs, ps.size), np.tile(ps, qs.size), field.ravel()
        )

    @pytest.mark.parametrize("name, grid", [
        ("Y1", None),
        # underflowed tails down to subnormals: only their near ties reach C
        ("Y3", (-60.0, 60.0, -30.0, 30.0, 1201, 301)),
    ], ids=["Y1-default", "Y3-wide"])
    def test_c_formats_only_near_ties(self, tmp_path, monkeypatch, name, grid):
        # no zero and no non-finite cell reaches C; the 1e-3 tie margin sends about 0.2%
        spec = states.preset(name)
        grid = wigner.default_grid(spec) if grid is None else wigner.PhaseSpaceGrid(*grid)
        field = wigner.wigner_closed_form(spec, grid).values
        sent, fmt = [], cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda x: sent.append(float(x)) or fmt(x))
        cli._write_csv(tmp_path / "w.csv", "q,p,w", grid.qs(), grid.ps(), field)
        assert all(math.isfinite(x) and x != 0.0 for x in sent)
        assert 0 < len(sent) < 0.004 * field.size
        # exactly: 12 significant digits of |x| end within 2 _TIE of a rounding tie
        scaled = [abs(d).scaleb(11 - abs(d).adjusted()) for d in map(Decimal, sent)]
        assert all(abs(t % 1 - Decimal("0.5")) < 2 * cli._TIE for t in scaled)

    def test_edge_values_in_columns(self, tmp_path):
        path = tmp_path / "edge.csv"
        cli._write_csv(path, "x,y", self.EDGE, self.EDGE[::-1])
        assert path.read_text() == csv_text("x,y", self.EDGE, self.EDGE[::-1])
        assert path.read_text().splitlines()[1:] == [
            "-0,3", "4.94065645841e-324,1e-05", "1e+16,1e+16",
            "1e-05,4.94065645841e-324", "3,-0",
        ]

    def test_edge_values_on_a_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        qs, ps = self.EDGE[:2], self.EDGE[2:]
        values = np.array([[-0.0, 5e-324, 1e16], [1e-5, 3.0, -2.5]])
        cli._write_csv(path, "q,p,w", qs, ps, values)
        assert path.read_text() == csv_text(
            "q,p,w", np.repeat(qs, 3), np.tile(ps, 2), values.ravel()
        )
        assert path.read_text().splitlines()[1] == "-0,1e+16,-0"

    def test_blocks_with_a_partial_last_block_and_a_flag_column(self, tmp_path):
        n = 2 * cli._BLOCK_LINES + 123
        rng = np.random.default_rng(5)
        xs = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        flags = np.arange(n) % 3 == 0
        path = tmp_path / "long.csv"
        cli._write_csv(path, "n,x,flag", np.arange(n), xs, flags)
        assert path.read_text() == csv_text("n,x,flag", np.arange(n), xs, flags)

    @pytest.mark.parametrize("sizes", [(2, 1), (cli._BLOCK_LINES, cli._BLOCK_LINES + 1)])
    def test_columns_of_unequal_length_raise(self, tmp_path, sizes):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "bad.csv", "x,y", *(np.zeros(n) for n in sizes))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 2)])
    def test_grid_not_matching_its_axes_raises(self, tmp_path, shape):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "bad.csv", "q,p,w", [0.0, 1.0, 2.0], [0.0, 1.0],
                           np.zeros(shape))


def percent_text(header, *columns):
    """The expected file with every value formatted by C's ``%`` (the formatter's oracle)."""
    lines = [header] + [",".join("%.12g" % x for x in row) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def adversarial_values():
    """Values where %.12g is easy to get wrong, each with both signs and 1-ulp neighbours."""
    rng = np.random.default_rng(28)
    # 13-digit decimals ending in 5: the 12-digit rounding ties of the decimal, which
    # the nearest double misses by less than an ulp either way
    ties = [float(f"{m}5e{e}") for m, e in zip(rng.integers(10**11, 10**12, 2000),
                                               rng.integers(-335, 296, 2000))]
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    # notation boundaries 1e-4, 1 and 1e12, below and above the 12-digit rounding
    boundaries = [1e-4, 9.99999999999e-5, 9.999999999995e-5, 9.9999999999949e-5,
                  1.0, 0.999999999999, 0.9999999999995, 0.99999999999949,
                  1e12, 999999999999.0, 999999999999.5, 999999999999.4]
    wide = [1.5e100, 2.5e-100, 1e-290, 1e290, 9.9999999999995e-291, 2.2250738585072014e-308,
            1.7976931348623157e308, 5e-324, 1.23456789e-315, 0.0]
    specials = [np.inf, np.nan]
    xs = np.array(ties + powers + boundaries + wide + specials)
    with np.errstate(over="ignore"):  # the neighbour of the largest double is inf
        xs = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)])
    return np.concatenate([xs, -xs])


ADVERSARIAL = adversarial_values()
FLOAT_BITS = st.integers(0, 2**64 - 1)


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


class TestFormatterAgainstC:
    """``_write_csv`` gives the bytes of C's ``%.12g`` for any float64."""

    def test_adversarial_values_in_columns(self, tmp_path):
        xs, path = ADVERSARIAL, tmp_path / "x.csv"
        assert xs.size > 2 * cli._BLOCK_LINES  # a few blocks, the last one partial
        cli._write_csv(path, "x,y", xs, xs[::-1])
        assert path.read_text() == percent_text("x,y", xs, xs[::-1])

    @pytest.mark.parametrize("nps", [3, 1000, cli._BLOCK_LINES + 1])
    def test_adversarial_values_on_a_grid(self, tmp_path, nps):
        # 1000 p points give 4000-line blocks; 4097 give one q row per block
        nq = 7
        qs, ps, values = ADVERSARIAL[-nq:], ADVERSARIAL[:nps], ADVERSARIAL[: nq * nps]
        values = np.resize(values, (nq, nps))
        path = tmp_path / "grid.csv"
        cli._write_csv(path, "q,p,w", qs, ps, values)
        assert path.read_text() == percent_text(
            "q,p,w", np.repeat(qs, nps), np.tile(ps, nq), values.ravel()
        )

    @given(st.lists(FLOAT_BITS, min_size=1, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_drawn_bit_patterns_in_columns(self, tmp_path_factory, bits):
        xs = floats_from_bits(bits)
        path = tmp_path_factory.getbasetemp() / "bits.csv"
        cli._write_csv(path, "x,y", xs, xs[::-1])
        assert path.read_text() == percent_text("x,y", xs, xs[::-1])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_drawn_bit_patterns_on_a_grid(self, tmp_path_factory, data):
        nq, nps = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
        qs, ps, values = (floats_from_bits(data.draw(st.lists(FLOAT_BITS, min_size=n, max_size=n)))
                          for n in (nq, nps, nq * nps))
        path = tmp_path_factory.getbasetemp() / "grid.csv"
        cli._write_csv(path, "q,p,w", qs, ps, values.reshape(nq, nps))
        assert path.read_text() == percent_text(
            "q,p,w", np.repeat(qs, nps), np.tile(ps, nq), values
        )


class TestStreaming:
    def test_wigner_csv_peak_memory_stays_near_the_field(self, tmp_path):
        # a writer that builds the 241,001-line file in memory peaks at tens of MB
        spec = states.preset("Y1")
        tracemalloc.start()
        try:
            wigner.wigner_closed_form(spec, wigner.default_grid(spec))
            field_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert cli.main(["wigner", "--preset", "Y1", "--out", str(tmp_path)]) == 0
            cli_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cli_peak < 2 * field_peak

    def test_long_columns_peak_well_below_the_text(self, tmp_path):
        # a writer that holds every row's floats or the whole text peaks at several MB
        xs = np.linspace(-1.0, 1.0, 200_001)
        ys = np.sin(xs)
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            cli._write_csv(path, "x,y", xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4
