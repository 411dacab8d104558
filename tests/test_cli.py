"""Command-line interface: parsing, file emission, determinism, round-trips."""

import numpy as np
import pytest

from multicat import cli, states, wellsolver


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

    def test_coeff_length_mismatch(self):
        with pytest.raises(SystemExit) as err:
            parse(["pnd", "--amps", "1,2", "--coeffs", "1"])
        assert err.value.code == 2


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
            key: ",".join(cli._fmt(s) for s in wellsolver.calibrate_wells(target, cfg=g).scales)
            for key, g in grids.items()
        }
        assert report["depth_scales"] == scales["domain"] != scales["default"]

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


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["marginals", "--preset", "Y3", "--qrange", "-11:11:201",
                "--prange", "-8:8:201"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        for name in ("marginal_position.csv", "marginal_momentum.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
