"""Command-line interface: outputs, manifests, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import guedyn
from guedyn import models, spectral
from guedyn.cli import build_parser, main


def _not_computed(*args, **kwargs):
    raise AssertionError("computed before the arguments were checked")


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line]
    return header, rows


def column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return [float(r[idx]) for r in rows]


class TestAnalytic:
    def test_chi_curve(self, tmp_path):
        out = str(tmp_path / "chi.csv")
        assert main(["analytic", "chi", "--d", "4", "--t-max", "6",
                     "--dt", "0.01", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "chi_d4"]
        assert len(rows) == 601
        assert float(rows[0][1]) == 16.0
        assert os.path.exists(out + ".manifest.json")

    def test_purity_curve(self, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["analytic", "purity", "--dA", "2", "--dB", "2",
                     "--out", out]) == 0
        values = column(out, "purity_dA2_dB2")
        assert values[0] == 1.0
        assert abs(values[-1] - 57 / 70) <= 1e-3

    def test_bessel(self, tmp_path):
        out = str(tmp_path / "b.csv")
        assert main(["analytic", "bessel", "--power", "2", "--t-max", "2",
                     "--dt", "0.5", "--out", out]) == 0
        values = column(out, "bessel_pow2")
        assert values[0] == 1.0

    def test_multiple_dimensions(self, tmp_path):
        out = str(tmp_path / "chi2.csv")
        assert main(["analytic", "chi", "--d", "4", "--d", "6", "--t-max", "1",
                     "--dt", "0.5", "--out", out]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "chi_d4", "chi_d6"]

    def test_rho_columns(self, tmp_path):
        out = str(tmp_path / "rho.csv")
        assert main(["analytic", "rho", "--dA", "2", "--dB", "3", "--t-max", "1",
                     "--dt", "0.5", "--out", out]) == 0
        p1 = column(out, "rho_p1_dA2_dB3")
        pmix = column(out, "rho_pmix_dA2_dB3")
        assert abs(p1[0] - 1.0) < 1e-12 and abs(pmix[0]) < 1e-12

    def test_xi_small_d_is_argument_error(self, tmp_path):
        out = str(tmp_path / "xi.csv")
        code = main(["analytic", "xi", "--d", "3", "--t-max", "1",
                     "--dt", "0.5", "--out", out])
        assert code == 2
        assert not os.path.exists(out)

    def test_non_finite_curve_is_numerical_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_h_stack",
                            lambda d, times, buf=None: np.full((len(times), d, d), np.nan))
        out = str(tmp_path / "chi.csv")
        code = main(["analytic", "chi", "--d", "6", "--t-max", "1",
                     "--dt", "0.5", "--out", out])
        assert code == 3
        assert not os.path.exists(out)

    def test_large_d_and_time(self, tmp_path):
        # reference from an all-mpmath evaluation of F (chi_trace_mp in
        # test_spectral.py)
        out = str(tmp_path / "chi.csv")
        assert main(["analytic", "chi", "--d", "400", "--t-max", "38",
                     "--dt", "1", "--out", out]) == 0
        assert abs(column(out, "chi_d400")[-1] - 394.67427564265677) <= 1e-10 * 394.7

    def test_missing_d_is_argument_error(self, tmp_path):
        assert main(["analytic", "chi", "--t-max", "1", "--dt", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["chi", "--d", "4", "--d", "6", "--d", "4"], "--d is given 4 twice"),
        (["xi-poisson", "--d", "5", "--d", "5"], "--d is given 5 twice"),
        (["rho", "--dA", "2", "--dB", "3", "--dA", "2", "--dB", "3"],
         "--dA/--dB is given (2, 3) twice"),
        (["purity", "--dA", "1", "--dB", "4", "--dA", "1", "--dB", "4"],
         "--dA/--dB is given (1, 4) twice"),
    ])
    def test_repeated_dimension_is_argument_error(self, tmp_path, capsys, monkeypatch,
                                                  argv, message):
        for name in ("chi_curve", "xi_curve", "rho_curve", "purity_curve"):
            monkeypatch.setattr(spectral, name, _not_computed)
        out = str(tmp_path / "x.csv")
        assert main(["analytic", *argv, "--t-max", "1", "--dt", "0.5", "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,message", [
        (["chi", "--d", "4", "--dA", "2", "--dB", "3"], "analytic chi does not read --dA, --dB"),
        (["xi-poisson", "--d", "6", "--dB", "3"], "analytic xi-poisson does not read --dB"),
        (["purity", "--d", "9", "--dA", "2", "--dB", "3"], "analytic purity does not read --d"),
        (["rho", "--d", "4", "--dA", "2", "--dB", "2"], "analytic rho does not read --d"),
        (["purity-poisson", "--d", "6", "--dA", "2", "--dB", "3"],
         "analytic purity-poisson does not read --d"),
        (["bessel", "--d", "9"], "analytic bessel does not read --d"),
        (["bessel", "--dA", "2", "--dB", "3"], "analytic bessel does not read --dA, --dB"),
        (["chi", "--d", "4", "--power", "4"], "analytic chi does not read --power"),
        (["rho", "--dA", "2", "--dB", "2", "--power", "4"], "analytic rho does not read --power"),
    ])
    def test_unread_dimension_is_argument_error(self, tmp_path, capsys, monkeypatch,
                                                argv, message):
        for name in ("chi_curve", "xi_curve", "rho_curve", "purity_curve", "bessel_limit"):
            monkeypatch.setattr(spectral, name, _not_computed)
        out = str(tmp_path / "x.csv")
        assert main(["analytic", *argv, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_unread_dimension_from_config_is_argument_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [4], "dA": [2], "dB": [3]}))
        out = str(tmp_path / "x.csv")
        assert main(["analytic", "purity", "--config", str(cfg), "--out", out]) == 2
        assert "analytic purity does not read --d" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unread_power_from_config_is_argument_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [4], "power": 4}))
        out = str(tmp_path / "x.csv")
        assert main(["analytic", "chi", "--config", str(cfg), "--out", out]) == 2
        assert "analytic chi does not read --power" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_json_format(self, tmp_path):
        out = str(tmp_path / "chi.json")
        assert main(["analytic", "chi", "--d", "4", "--t-max", "1", "--dt", "0.5",
                     "--format", "json", "--out", out]) == 0
        with open(out) as fh:
            blob = json.load(fh)
        assert blob["data"]["chi_d4"][0] == 16.0


class TestMonteCarlo:
    def test_deterministic_across_threads(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["montecarlo", "--model", "GUE", "--dA", "2", "--dB", "2",
                "--samples", "40", "--seed", "7", "--t-max", "2", "--dt", "0.5"]
        assert main(argv + ["--threads", "1", "--out", a]) == 0
        assert main(argv + ["--threads", "3", "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_manifest_replay(self, tmp_path):
        first = str(tmp_path / "run.csv")
        assert main(["montecarlo", "--model", "GUE", "--samples", "25",
                     "--seed", "3", "--t-max", "1", "--dt", "0.25",
                     "--out", first]) == 0
        replay = str(tmp_path / "replay.csv")
        assert main(["montecarlo", "--config", first + ".manifest.json",
                     "--out", replay]) == 0
        with open(first, "rb") as fa, open(replay, "rb") as fb:
            assert fa.read() == fb.read()

    def test_columns_and_t0(self, tmp_path):
        out = str(tmp_path / "mc.csv")
        assert main(["montecarlo", "--model", "GUE", "--dA", "2", "--dB", "3",
                     "--samples", "30", "--t-max", "1", "--dt", "0.5",
                     "--out", out]) == 0
        header, _ = read_csv(out)
        assert header[:3] == ["t", "rho11_mean", "rho11_stderr"]
        assert "purity_mean" in header and "purity_stderr" in header
        rho11 = column(out, "rho11_mean")
        assert abs(rho11[0] - 1.0) < 1e-9  # product initial state

    def test_spin_model_manifest_scale(self, tmp_path):
        out = str(tmp_path / "xxz.csv")
        assert main(["montecarlo", "--model", "XXZ", "--dA", "2", "--dB", "4",
                     "--samples", "12", "--t-max", "1", "--dt", "0.5",
                     "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["summary"]["energy_scale"] != 1.0

    def test_zero_threads_is_argument_error(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["montecarlo", "--model", "GUE", "--samples", "2",
                     "--threads", "0", "--out", out]) == 2
        assert not os.path.exists(out)

    def test_bad_dimension_is_argument_error(self, tmp_path):
        assert main(["montecarlo", "--model", "TFIM", "--dA", "3", "--dB", "2",
                     "--samples", "2", "--out", str(tmp_path / "x.csv")]) == 2

    def test_single_spin_chain_is_argument_error(self, tmp_path):
        out = str(tmp_path / "x.csv")
        assert main(["montecarlo", "--model", "SG", "--dA", "2", "--dB", "1",
                     "--samples", "2", "--out", out]) == 2
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest.json")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coupling_is_argument_error(self, tmp_path, capsys, value):
        out = str(tmp_path / "x.csv")
        assert main(["montecarlo", "--model", "XXZ", "--dA", "2", "--dB", "2",
                     "--J", value, "--samples", "2", "--out", out]) == 2
        assert f"coupling J must be finite, got {value}" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest.json")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,coupling", [("SYK", "--J2"), ("CS", "--J"), ("CS", "--B")])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_coupling_exits_3(self, tmp_path, capsys, model, coupling, threads):
        # the draw overflowed with RuntimeWarnings from the worker threads
        # before the pilot's NumericalError
        out = str(tmp_path / "x.csv")
        assert main(["montecarlo", "--model", model, "--dA", "2", "--dB", "4",
                     coupling, "1e308", "--samples", "4", "--threads", threads,
                     "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite Tr H or Tr H^2" in err
        assert os.listdir(tmp_path) == []

    def test_coupling_the_family_does_not_read_is_argument_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # GUE is drawn at lambda = 1 and reads no coupling; --J used to be
        # dropped without a word
        monkeypatch.setattr(models, "ensemble_dynamics", _not_computed)
        out = str(tmp_path / "x.csv")
        assert main(["montecarlo", "--model", "GUE", "--J", "2", "--samples", "2",
                     "--out", out]) == 2
        assert "GUE does not read coupling J (its couplings: none)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestGaps:
    def test_histogram_weights_sum_to_one(self, tmp_path):
        out = str(tmp_path / "gaps.csv")
        assert main(["gaps", "--model", "GUE", "--dA", "4", "--dB", "4",
                     "--samples", "60", "--bins", "12", "--seed", "1",
                     "--out", out]) == 0
        weights = column(out, "weight")
        assert abs(sum(weights) - 1.0) < 1e-12
        with open(out + ".manifest.json") as fh:
            summary = json.load(fh)["summary"]
        assert 0.0 < summary["mean_ratio"] < 1.0
        assert summary["n_gaps"] > 0

    def test_spin_model_with_couplings(self, tmp_path):
        out = str(tmp_path / "gx.csv")
        assert main(["gaps", "--model", "XXZ", "--dA", "2", "--dB", "4",
                     "--samples", "20", "--bins", "5", "--J", "0.5",
                     "--B", "2.0", "--seed", "2", "--out", out]) == 0
        weights = column(out, "weight")
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_syk_sectors_counted_apart(self, tmp_path):
        # N = 10 Majoranas: the two parity sectors carry the same levels, so
        # one sector per sample enters, with GUE level repulsion
        out = str(tmp_path / "syk.csv")
        assert main(["gaps", "--model", "SYK", "--dA", "4", "--dB", "8", "--samples", "40",
                     "--seed", "3", "--out", out]) == 0
        with open(out + ".manifest.json") as fh:
            summary = json.load(fh)["summary"]
        assert summary["n_gaps"] == 40 * 15
        assert 0.5 < summary["mean_ratio"] < 0.7

    def test_broken_degeneracy_exits_3(self, tmp_path, monkeypatch, capsys):
        out = str(tmp_path / "syk.csv")
        monkeypatch.setattr(models, "build_model", lambda spec, rng: np.diag(
            np.arange(spec.d, dtype=float)))
        assert main(["gaps", "--model", "SYK", "--dA", "4", "--dB", "8", "--samples", "2",
                     "--out", out]) == 3
        assert "parity sectors" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coupling_exits_3(self, tmp_path, capsys):
        # J = 1e308 assembles an inf H, which used to print overflow
        # warnings and exit 2 when eigvalsh did not converge
        out = str(tmp_path / "tfim.csv")
        assert main(["gaps", "--model", "TFIM", "--dA", "2", "--dB", "4", "--J", "1e308",
                     "--out", out]) == 3
        assert "non-finite Hamiltonian" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_spacings_exit_3(self, tmp_path, capsys):
        # J = 1e308 at two samples gives a finite H whose level spacings sum
        # past the float range; that used to warn and exit 2 on a NaN histogram
        out = str(tmp_path / "tfim.csv")
        assert main(["gaps", "--model", "TFIM", "--dA", "2", "--dB", "4", "--J", "1e308",
                     "--samples", "2", "--out", out]) == 3
        assert "non-finite level spacing" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_coupling_the_family_does_not_read_is_argument_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["gaps", "--model", "SYK", "--dA", "2", "--dB", "4", "--J", "2",
                     "--samples", "2", "--out", out]) == 2
        assert "SYK does not read coupling J (its couplings: J2)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestDistance:
    def test_ratios_normalized(self, tmp_path):
        out = str(tmp_path / "dist.csv")
        assert main(["distance", "--models", "GUE", "POISSON", "XXZ",
                     "--dA", "2", "--dB", "4", "--samples", "40",
                     "--seed", "5", "--out", out]) == 0
        header, rows = read_csv(out)
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert abs(table["GUE"][0] - 1.0) < 1e-12  # normalized to itself
        assert abs(table["POISSON"][1] - 1.0) < 1e-12
        assert table["XXZ"][0] > 0

    @pytest.mark.parametrize("fam", ["SYK", "GUE"])
    def test_repeated_model_is_argument_error(self, tmp_path, capsys, monkeypatch, fam):
        for name in ("analytic_gue_trace", "analytic_poisson_trace", "ensemble_dynamics"):
            monkeypatch.setattr(models, name, _not_computed)
        out = str(tmp_path / "x.csv")
        assert main(["distance", "--models", fam, "XXZ", fam, "--dA", "2", "--dB", "4",
                     "--samples", "2", "--out", out]) == 2
        captured = capsys.readouterr()
        assert f"--models is given {fam} twice" in captured.err
        assert "sampled" not in captured.out
        assert os.listdir(tmp_path) == []

    def test_stdout_is_one_line(self, tmp_path, capsys):
        out = str(tmp_path / "dist.csv")
        assert main(["distance", "--models", "XXZ", "--dA", "2", "--dB", "4",
                     "--samples", "4", "--dt", "0.5", "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"wrote {out} (1 rows)\n"
        assert captured.err.splitlines() == [f"{fam}: sampled 4 systems"
                                             for fam in ("GUE", "POISSON", "XXZ")]

    def test_overflowing_coupling_exits_3_before_sampling(self, tmp_path, capsys):
        # the GUE and POISSON Monte Carlo used to run before the SYK pilot
        out = str(tmp_path / "x.csv")
        assert main(["distance", "--dA", "2", "--dB", "4", "--samples", "2", "--dt", "0.5",
                     "--models", "SYK", "--J2", "1e308", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "non-finite Tr H or Tr H^2" in err
        assert "sampled" not in err
        assert os.listdir(tmp_path) == []

    def test_unknown_model(self, tmp_path):
        assert main(["distance", "--models", "NOPE", "--samples", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_coupling_no_family_reads_is_argument_error(self, tmp_path, capsys, monkeypatch):
        for name in ("analytic_gue_trace", "analytic_poisson_trace", "ensemble_dynamics"):
            monkeypatch.setattr(models, name, _not_computed)
        out = str(tmp_path / "x.csv")
        assert main(["distance", "--models", "XXZ", "SYK", "--dA", "2", "--dB", "4",
                     "--J1", "0.5", "--J", "2", "--samples", "2", "--out", out]) == 2
        assert "no family of --models XXZ SYK reads --J1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_each_family_gets_the_couplings_it_reads(self, tmp_path, monkeypatch):
        seen = {}
        real = models.ensemble_dynamics

        def recording(spec, *args, **kwargs):
            seen[spec.family] = spec.couplings
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(models, "ensemble_dynamics", recording)
        assert main(["distance", "--models", "XXZ", "SYK", "--dA", "2", "--dB", "4",
                     "--J2", "0.5", "--J", "2", "--samples", "2", "--dt", "0.5",
                     "--out", str(tmp_path / "x.csv")]) == 0
        assert seen == {"GUE": {}, "POISSON": {}, "XXZ": {"J": 2.0}, "SYK": {"J2": 0.5}}


class TestSelfcheck:
    def test_exit_zero_and_report(self, capsys):
        assert main(["selfcheck"]) == 0
        report = capsys.readouterr().out
        assert "table1 q=2: exact" in report
        assert "table1 q=4: exact" in report
        assert "d=4 <chi> closed form" in report
        assert "selfcheck:" in report

    def test_full_reports_each_check_time(self, capsys):
        assert main(["selfcheck", "--full"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("third-moment average identity (n=3): ")
                   for line in lines)
        assert lines[-1] == "selfcheck: 11/11 passed"
        for line in lines[:-1]:
            assert re.fullmatch(r".+: .+ \[PASS\] \d+\.\d{3} s", line), line


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [4], "t-max": 2.0, "dt": 1.0}))
        out = str(tmp_path / "c.csv")
        assert main(["analytic", "chi", "--config", str(cfg), "--dt", "0.5",
                     "--out", out]) == 0
        ts = column(out, "t")
        assert ts == [0.0, 0.5, 1.0, 1.5, 2.0]  # dt from flag, t-max from file

    def test_float_roundtrip_precision(self, tmp_path):
        out = str(tmp_path / "chi.csv")
        main(["analytic", "chi", "--d", "4", "--t-max", "1", "--dt", "0.25",
              "--out", out])
        from guedyn.spectral import chi_mean

        values = column(out, "chi_d4")
        for t, value in zip([0.0, 0.25, 0.5, 0.75, 1.0], values):
            assert value == chi_mean(4, t)  # 17 significant digits round-trip


    @pytest.mark.parametrize("cfg,message", [
        ({"d": [4], "format": "xml"}, "--format must be one of"),
        ({"d": [4], "dt": "0.5"}, "--dt must be a number"),
        ([4], "must hold a JSON object"),
    ])
    def test_bad_file_values_are_argument_errors(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "c.csv")
        assert main(["analytic", "chi", "--config", str(path), "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)
    @pytest.mark.parametrize("argv,cfg", [
        (["analytic", "chi", "--d", "4", "--dt", "nan"], None),
        (["analytic", "chi", "--d", "4"], '{"t-max": NaN}'),
        (["montecarlo", "--samples", "2", "--t-max", "inf"], None),
    ])
    def test_non_finite_time_grid_is_argument_error(self, tmp_path, capsys, argv, cfg):
        out = str(tmp_path / "c.csv")
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(cfg)
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--out", out]) == 2
        assert "--t-max and --dt must be finite" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".manifest.json")


class TestAtomicOutput:
    def test_failed_manifest_dump_leaves_no_partial_file(self, tmp_path, monkeypatch):
        out = str(tmp_path / "chi.csv")
        argv = ["analytic", "chi", "--d", "4", "--t-max", "1", "--out", out]
        assert main(argv) == 0
        with open(out + ".manifest.json") as fh:
            manifest = fh.read()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"tool": ')
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(RuntimeError, match="disk full"):
            main(argv)
        with open(out + ".manifest.json") as fh:
            assert fh.read() == manifest
        assert sorted(os.listdir(tmp_path)) == ["chi.csv", "chi.csv.manifest.json"]
        os.unlink(out + ".manifest.json")
        with pytest.raises(RuntimeError, match="disk full"):
            main(argv)
        assert sorted(os.listdir(tmp_path)) == ["chi.csv"]

    def test_unusable_out_or_config_path_is_argument_error(self, tmp_path, capsys):
        folder = tmp_path / "folder"
        folder.mkdir()
        (folder / "keep.txt").write_text("kept")
        argv = ["analytic", "chi", "--d", "4", "--t-max", "1", "--dt", "0.5"]
        for extra in (["--out", str(folder)],
                      ["--config", str(folder), "--out", str(tmp_path / "c.csv")]):
            assert main(argv + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert os.listdir(tmp_path) == ["folder"]
            assert os.listdir(folder) == ["keep.txt"]
            assert (folder / "keep.txt").read_text() == "kept"


class TestFormats:
    """A CSV run and a JSON run of the same arguments hold the same table."""

    @pytest.mark.parametrize("argv", [
        ["analytic", "chi", "--d", "4", "--d", "6", "--t-max", "1", "--dt", "0.25"],
        ["analytic", "rho", "--dA", "2", "--dB", "3", "--t-max", "1", "--dt", "0.25"],
        ["analytic", "bessel", "--power", "4", "--t-max", "1", "--dt", "0.25"],
        ["montecarlo", "--model", "XXZ", "--dA", "2", "--dB", "4", "--samples", "6",
         "--t-max", "1", "--dt", "0.25"],
        ["gaps", "--model", "SYK", "--dA", "2", "--dB", "8", "--samples", "6",
         "--bins", "4"],
        ["distance", "--models", "SYK", "XXZ", "--dA", "2", "--dB", "4",
         "--samples", "4", "--dt", "0.5"],
    ])
    def test_csv_and_json_hold_the_same_table(self, tmp_path, capsys, argv):
        wrote = {}
        for fmt in ("csv", "json"):
            out = str(tmp_path / f"run.{fmt}")
            assert main(argv + ["--format", fmt, "--out", out]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            wrote[fmt] = int(re.fullmatch(r"wrote .+ \((\d+) rows\)", last).group(1))
        header, rows = read_csv(str(tmp_path / "run.csv"))
        with open(tmp_path / "run.json") as fh:
            blob = json.load(fh)
        with open(tmp_path / "run.json.manifest.json") as fh:
            assert blob["columns"] == json.load(fh)["columns"]
        assert [col["name"] for col in blob["columns"]] == header
        assert list(blob["data"]) == header
        assert wrote == {"csv": len(rows), "json": len(rows)}
        for j, name in enumerate(header):
            cells = [row[j] for row in rows]
            want = cells if name == "model" else [float(c) for c in cells]
            assert blob["data"][name] == want, name


class TestRunReproducibility:
    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--model", "SYK", "--dA", "2", "--dB", "4", "--samples", "9",
         "--t-max", "1", "--dt", "0.25"],
        ["distance", "--models", "GUE", "POISSON", "XXZ", "--dA", "2", "--dB", "4",
         "--samples", "6", "--dt", "0.5"],
        ["montecarlo", "--dA", "2", "--dB", "2", "--samples", "20", "--t-max", "1",
         "--dt", "0.25"],
    ])
    def test_threads_change_only_timings(self, tmp_path, argv):
        out = str(tmp_path / "run.csv")
        runs = []
        for threads in (1, 2):
            assert main(argv + ["--threads", str(threads), "--out", out]) == 0
            with open(out, "rb") as fh:
                data = fh.read()
            with open(out + ".manifest.json") as fh:
                manifest = json.load(fh)
            stages = manifest["summary"].pop("stages_s")
            assert set(stages) == {"draw", "evolve", "reduce"}
            assert all(v >= 0.0 for v in stages.values())
            assert manifest.pop("wall_clock_s") >= 0.0
            assert manifest["config"].pop("threads") == threads
            assert manifest["environment"].pop("threads") == threads
            runs.append((data, manifest))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--dA", "2", "--dB", "4", "--samples", "20"],
        ["montecarlo", "--dA", "8", "--dB", "32", "--samples", "2", "--t-max", "1",
         "--dt", "0.25"],
        ["gaps", "--dA", "8", "--dB", "32", "--samples", "6"],
    ])
    def test_bytes_independent_of_openblas_threads(self, tmp_path, argv):
        src = os.path.dirname(os.path.dirname(guedyn.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = []
        for n in ("1", "2"):
            out = str(tmp_path / f"blas{n}.csv")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "guedyn.cli", *argv, "--model", "SYK",
                 "--seed", "3", "--out", out],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            with open(out, "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]


# Run in a fresh interpreter: the commands below must not load scipy, then
# ``analytic bessel`` must load it and write the bytes it always wrote.
_IMPORT_PATH_SCRIPT = """
import contextlib, io, json, os, sys
import guedyn.cli

out = sys.argv[1]
grid = ["--t-max", "1", "--dt", "0.25"]
pair = ["--dA", "2", "--dB", "2"]
commands = [
    ["analytic", "chi", "--d", "4", *grid], ["analytic", "xi", "--d", "5", *grid],
    ["analytic", "rho", *pair, *grid], ["analytic", "purity", *pair, *grid],
    ["analytic", "chi-poisson", "--d", "4", *grid],
    ["analytic", "xi-poisson", "--d", "5", *grid],
    ["analytic", "purity-poisson", *pair, *grid],
    ["montecarlo", *pair, "--samples", "5", *grid],
    ["selfcheck", "--full"],
]
report = {"codes": []}
with contextlib.redirect_stdout(io.StringIO()):
    for i, argv in enumerate(commands):
        if argv[0] != "selfcheck":
            argv = [*argv, "--out", os.path.join(out, f"run{i}.csv")]
        report["codes"].append(guedyn.cli.main(argv))
    report["scipy_before_bessel"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    for power in (2, 4):
        report["codes"].append(guedyn.cli.main(
            ["analytic", "bessel", "--power", str(power), *grid,
             "--out", os.path.join(out, f"bessel{power}.csv")]))
print(json.dumps(report))
"""


class TestImportPath:
    # The files written while spectral imported j1 at module level.
    BESSEL = {
        2: ("tau,bessel_pow2\n0,1\n0.25,0.9391040893465944\n0.5,0.77457807205783646\n"
            "0.75,0.5534100388602966\n1,0.33261150388220256\n"),
        4: ("tau,bessel_pow4\n0,1\n0.25,0.88191649062749644\n0.5,0.59997118971283492\n"
            "0.75,0.30626267111135497\n1,0.11063041251478047\n"),
    }

    def test_only_bessel_loads_scipy(self, tmp_path):
        src = os.path.dirname(os.path.dirname(guedyn.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PATH_SCRIPT, str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["codes"] == [0] * 11
        assert report["scipy_before_bessel"] == []
        with open(tmp_path / "run7.csv.manifest.json") as fh:
            assert "scipy" not in json.load(fh)["environment"]
        for power, want in self.BESSEL.items():
            out = tmp_path / f"bessel{power}.csv"
            assert out.read_text() == want
            with open(f"{out}.manifest.json") as fh:
                assert "scipy" in json.load(fh)["environment"]

    def test_bessel_without_scipy_is_argument_error(self, tmp_path):
        src = os.path.dirname(os.path.dirname(guedyn.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        out = tmp_path / "bessel.csv"
        script = ("import sys; sys.modules['scipy'] = None; import guedyn.cli; "
                  "sys.exit(guedyn.cli.main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "analytic", "bessel", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "scipy" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert os.listdir(tmp_path) == []


class TestReplay:
    """The manifest alone reproduces the data file: every option resolves
    command line > config file > default, the same way for every flag."""

    @pytest.mark.parametrize("argv", [
        ["montecarlo", "--model", "SYK", "--dA", "2", "--dB", "4", "--scramble",
         "--J2", "0.5", "--samples", "8", "--seed", "4", "--t-max", "1", "--dt", "0.25"],
        ["gaps", "--model", "XXZ", "--dA", "2", "--dB", "4", "--bins", "5",
         "--samples", "20", "--seed", "2"],
        ["distance", "--models", "XXZ", "--dA", "2", "--dB", "4", "--dt", "0.5",
         "--samples", "6", "--seed", "5"],
        ["analytic", "purity", "--dA", "2", "--dB", "3", "--dA", "2", "--dB", "2",
         "--t-max", "1", "--dt", "0.5"],
        # the manifest records the default --power, which chi does not read
        ["analytic", "chi", "--d", "4", "--t-max", "1", "--dt", "0.5"],
    ])
    def test_manifest_alone_reproduces_bytes(self, tmp_path, argv):
        first = str(tmp_path / "run.csv")
        assert main(argv + ["--out", first]) == 0
        positional = argv[1:2] if argv[0] == "analytic" else []
        replay = str(tmp_path / "replay.csv")
        assert main([argv[0], *positional, "--config", first + ".manifest.json",
                     "--out", replay]) == 0
        with open(first, "rb") as fa, open(replay, "rb") as fb:
            assert fa.read() == fb.read()

    def test_flag_replaces_config_list(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [4]}))
        out = str(tmp_path / "c.csv")
        assert main(["analytic", "chi", "--config", str(cfg), "--d", "6",
                     "--t-max", "1", "--dt", "0.5", "--out", out]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "chi_d6"]

    @pytest.mark.parametrize("argv", [
        ["gaps", "--threads", "2"],
        ["gaps", "--t-max", "3"],
        ["gaps", "--dt", "0.5"],
        ["distance", "--t-max", "3"],
    ])
    def test_flags_that_do_not_act_are_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_old_gaps_manifest_keys_are_ignored(self, tmp_path):
        first = str(tmp_path / "g.csv")
        assert main(["gaps", "--model", "GUE", "--dA", "2", "--dB", "3",
                     "--samples", "10", "--bins", "4", "--out", first]) == 0
        with open(first + ".manifest.json") as fh:
            manifest = json.load(fh)
        manifest["config"].update({"t-max": 3.0, "dt": 0.5, "threads": 2})
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay = str(tmp_path / "replay.csv")
        assert main(["gaps", "--config", str(edited), "--out", replay]) == 0
        with open(first, "rb") as fa, open(replay, "rb") as fb:
            assert fa.read() == fb.read()

    @pytest.mark.parametrize("argv", [
        ["analytic", "chi"], ["montecarlo"], ["gaps"], ["distance"],
    ])
    def test_absent_options_parse_to_none(self, argv):
        args = build_parser().parse_args(argv)
        unset = {k: v for k, v in vars(args).items() if k not in ("command", "kind")}
        assert set(unset.values()) == {None}

    def test_zero_gap_samples_is_count_error(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        assert main(["gaps", "--samples", "0", "--out", out]) == 2
        assert "n_samples must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)
