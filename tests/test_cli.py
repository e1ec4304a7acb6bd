"""End-to-end tests of the command-line runner: exit codes, config
merging, output formats, and reproducibility of seeded runs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadmeas import cli, scheme
from quadmeas.cli import main, parse_grid_spec, resolve_config
from quadmeas.scheme import GaussianSchemeOracle, SchemeParams


def run_cli(args, monkeypatch=None, epoch=None):
    if epoch is not None and monkeypatch is not None:
        monkeypatch.setenv("SOURCE_DATE_EPOCH", str(epoch))
    return main(args)


def read_csv(path):
    """(meta, header, rows, stats) from one of our CSV artifacts."""
    meta, rows, stats = {}, [], {}
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                (stats if header is not None else meta)[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows, stats


def column(header, rows, name, cast=float):
    idx = header.index(name)
    return [cast(r[idx]) if r[idx] != "" else None for r in rows]


# ---------------------------------------------------------------------------
# configuration resolution


class TestConfigResolution:
    def test_defaults_applied(self):
        cfg = resolve_config(["verify"])
        assert cfg.values["eta"] == 0.5
        assert cfg.values["cutoff"] == 40
        assert cfg.values["identity_tol"] == 1e-6
        # the tolerance PipelineResult.check applies
        assert cfg.values["pom_tol"] == 1e-10
        assert "eta" not in cfg.provided

    def test_config_file_then_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eta = 0.3\nsigma = 2.0\ncutoff = 24\n")
        cfg = resolve_config(["pom", "--config", str(cfgfile),
                              "--eta", "0.7"])
        assert cfg.values["eta"] == 0.7     # flag wins
        assert cfg.values["sigma"] == 2.0   # file wins over default
        assert cfg.values["cutoff"] == 24
        assert {"eta", "sigma", "cutoff"} <= cfg.provided

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["verify", "--nope"], ["--eta"],
        ["sample", "--format", "xml"], ["pom", "sample"],
    ], ids=["no-command", "bad-command", "unknown-flag", "flag-no-value",
            "bad-choice", "two-commands"])
    def test_parse_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: quadmeas")

    def test_flags_may_precede_the_command(self):
        flags = ["--cutoff", "20", "--eta", "0.3", "--repeat"]
        before = resolve_config(flags + ["sample"])
        after = resolve_config(["sample"] + flags)
        assert before.command == after.command == "sample"
        assert before.values == after.values
        assert before.provided == after.provided == {"cutoff", "eta",
                                                     "repeat"}

    def test_command_help_is_the_one_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        top = capsys.readouterr().out
        with pytest.raises(SystemExit) as sample:
            main(["sample", "--help"])
        assert exc.value.code == sample.value.code == 0
        assert capsys.readouterr().out == top
        assert "sample: emit seeded trial records" in top and "--eta" in top

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("lambda_max = 3\n")
        assert main(["verify", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "lambda_max" in err and "valid keys" in err

    def test_malformed_config_line_exits_2(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("eta 0.5\n")
        assert main(["verify", "--config", str(cfgfile)]) == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# a comment\n\n  eta = 0.25  \n")
        cfg = resolve_config(["pom", "--config", str(cfgfile)])
        assert cfg.values["eta"] == 0.25

    def test_out_of_range_eta_exits_2(self, capsys):
        assert main(["verify", "--eta", "1.0", "--sigma", "1.0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_grid_spec_exits_2(self):
        assert main(["pom", "--grid", "0:5"]) == 2
        assert main(["pom", "--grid", "3:-3:0.25"]) == 2

    def test_finite_lo_without_beta_exits_2(self):
        assert main(["sample", "--feedback", "finite-lo",
                     "--trials", "1"]) == 2

    def test_negative_trials_exits_2(self):
        assert main(["sample", "--trials", "-5"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
    def test_bad_margin_exits_2(self, value, capsys):
        assert main(["verify", "--eta", "0.5", "--sigma", "1.0",
                     "--margin", value]) == 2
        assert "configuration error: working-space margin" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("identity_tol", "nan"), ("pom_tol", "-1e-10"), ("bch_tol", "inf"),
        ("completeness_tol", "-inf"), ("su2_tol", "nan"),
        ("generator_tol", "inf")])
    def test_bad_tolerance_exits_2(self, key, value, tmp_path, capsys):
        cfgfile = tmp_path / "tol.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        assert main(["verify", "--eta", "0.5", "--sigma", "1.0",
                     "--format", "json", "--config", str(cfgfile)]) == 2
        assert f"configuration error: {key} must be a finite number" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_phi_exits_2(self, value, capsys):
        assert main(["pom", "--phi", value]) == 2
        assert "configuration error: quadrature phase phi" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_beta_exits_2(self, value, capsys):
        assert main(["sample", "--feedback", "finite-lo", "--beta", value,
                     "--trials", "1"]) == 2
        assert "configuration error: local-oscillator amplitude" \
            in capsys.readouterr().err

    def test_grid_spec_roundtrip(self):
        grid = parse_grid_spec("-2:2:0.5")
        assert_allclose(grid.points, np.arange(-2.0, 2.001, 0.5))


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_single_preset_green(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--eta", "0.5", "--sigma", "1.0",
                     "--out", str(out)]) == 0
        meta, header, rows, _ = read_csv(out)
        names = column(header, rows, "check", str)
        assert names == ["pipeline-identity", "pom-identity",
                         "completeness", "bch-factorization", "bch-su2",
                         "generator-form"]
        assert all(s == "pass" for s in column(header, rows, "status", str))
        vals = column(header, rows, "value")
        tols = column(header, rows, "tolerance")
        assert all(v <= t for v, t in zip(vals, tols))
        assert meta["eta"] == "0.5"
        assert meta["rng_algorithm"] == "philox4x64"

    def test_tampered_tolerance_exits_1_naming_check(self, tmp_path,
                                                     capsys):
        cfgfile = tmp_path / "tight.cfg"
        cfgfile.write_text("identity_tol = 1e-12\neta = 0.8\n"
                           "sigma = 2.0\n")
        out = tmp_path / "verify.csv"
        assert main(["verify", "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        assert "pipeline-identity" in capsys.readouterr().err
        _, header, rows, _ = read_csv(out)
        by_name = dict(zip(column(header, rows, "check", str),
                           column(header, rows, "status", str)))
        assert by_name["pipeline-identity"] == "FAIL"
        assert by_name["completeness"] == "pass"

    def test_json_report_shape(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--eta", "0.5", "--sigma", "1.0",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == ["checks", "meta", "results"]
        assert doc["results"]["n_failed"] == 0
        assert {"name", "value", "tolerance", "passed"} <= \
            set(doc["checks"][0])
        # every config key is echoed, defaults included
        for key in ("eta", "sigma", "phi", "cutoff", "grid", "feedback",
                    "seed", "trials", "identity_tol", "timestamp",
                    "artifact_version"):
            assert key in doc["meta"]

    def test_check_values_do_not_depend_on_the_working_phase(self,
                                                              tmp_path):
        # every stage is covariant with the working quadrature, so each
        # check reads the same at any phi
        values = {}
        for phi in ("0", "0.4", "2.5"):
            out = tmp_path / f"verify-{phi}.csv"
            assert main(["verify", "--eta", "0.2", "--sigma", "0.5",
                         "--phi", phi, "--out", str(out)]) == 0
            _, header, rows, _ = read_csv(out)
            assert all(s == "pass"
                       for s in column(header, rows, "status", str))
            values[phi] = np.array(column(header, rows, "value"))
        for phi in ("0.4", "2.5"):
            assert np.max(np.abs(values[phi] - values["0"])) < 1e-14

    @pytest.mark.slow
    def test_default_preset_grid_green(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        # 9 presets x 3 checks + 3 etas x 3 operator checks
        assert len(rows) == 9 * 3 + 3 * 3
        assert all(s == "pass" for s in column(header, rows, "status", str))


# ---------------------------------------------------------------------------
# pom


class TestPom:
    def test_fitted_width_and_delta_columns(self, tmp_path):
        out = tmp_path / "pom.csv"
        assert main(["pom", "--eta", "0.25", "--sigma", "1.0",
                     "--cutoff", "40", "--out", str(out)]) == 0
        _, header, rows, stats = read_csv(out)
        fit_var = column(header, rows, "fit_var")
        assert all(v == fit_var[0] for v in fit_var)
        # vacuum signal: outcome variance 1/4 + delta^2 = 0.3125
        assert abs(fit_var[0] - 0.3125) < 1e-6
        delta = column(header, rows, "delta")
        assert_allclose(delta, math.sqrt(0.25 * 1.0) / 2, rtol=0, atol=0)
        dev = column(header, rows, "deviation")
        assert max(dev) < 1e-10
        assert float(stats["normalization_defect"]) < 1e-6

    def test_grid_auto_widened_for_mass_coverage(self, tmp_path):
        out = tmp_path / "pom.csv"
        assert main(["pom", "--eta", "0.25", "--sigma", "1.0",
                     "--cutoff", "40", "--grid=-1:1:0.25",
                     "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        xs = column(header, rows, "x")
        assert min(xs) < -3.0 and max(xs) > 3.0

    def test_numeric_columns_byte_identical_across_runs(self, tmp_path):
        args = ["pom", "--eta", "0.5", "--sigma", "1.0", "--cutoff", "30"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        body1 = [l for l in out1.read_text().splitlines()
                 if not l.startswith("# timestamp")]
        body2 = [l for l in out2.read_text().splitlines()
                 if not l.startswith("# timestamp")]
        assert body1 == body2

    def test_density_meets_the_oracle_at_any_width(self, tmp_path):
        # edge parameters at the CLI cutoff and the presets at cutoff 100:
        # the density is exact, so no grid is widened past the oracle's
        out = tmp_path / "pom.json"
        edges = [(0.99, 1.0), (0.5, 1e-6), (0.05, 0.01), (0.95, 1.0)]
        cases = [(eta, sigma, "40") for eta, sigma in edges] \
            + [(eta, sigma, "100") for eta in (0.2, 0.5, 0.8)
               for sigma in (0.5, 1.0, 2.0)]
        for eta, sigma, cutoff in cases:
            assert main(["pom", "--eta", repr(eta), "--sigma", repr(sigma),
                         "--cutoff", cutoff, "--format", "json",
                         "--out", str(out)]) == 0
            res = json.loads(out.read_text())["results"]
            assert max(res["deviation"]) <= 1e-14, (eta, sigma)
            if (eta, sigma) in edges:
                assert len(res["x"]) == 37

    def test_json_results_include_density(self, tmp_path):
        out = tmp_path / "pom.json"
        assert main(["pom", "--cutoff", "30", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        res = doc["results"]
        assert len(res["x"]) == len(res["density"])
        assert res["normalization_defect"] < 1e-6


# ---------------------------------------------------------------------------
# sample


class TestSample:
    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "sample.csv"
        for repeat in ([], ["--repeat"]):
            assert main(["sample", "--trials", "0", "--out", str(out)]
                        + repeat) == 0
            _, header, rows, stats = read_csv(out)
            assert header[0] == "trial"
            assert rows == [] and stats == {}

    def test_seeded_run_reproducible_bytewise(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["sample", "--trials", "40", "--seed", "11"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_different_seed_changes_outcomes(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            assert main(["sample", "--trials", "25", "--seed", seed,
                         "--out", str(out)]) == 0
            _, header, rows, _ = read_csv(out)
            outs.append(column(header, rows, "outcome"))
        assert outs[0] != outs[1]

    def test_repeat_mode_emits_stats_block(self, tmp_path):
        out = tmp_path / "sample.csv"
        assert main(["sample", "--trials", "150", "--repeat",
                     "--seed", "5", "--out", str(out)]) == 0
        _, header, rows, stats = read_csv(out)
        assert column(header, rows, "second_outcome")[0] is not None
        for key in ("diff_mean", "diff_variance", "slope",
                    "diff_mean_halfwidth", "diff_variance_halfwidth",
                    "slope_halfwidth"):
            assert math.isfinite(float(stats[key]))
        assert int(stats["n_trials"]) == 150

    def test_posterior_columns_match_conjugate_update(self, tmp_path):
        out = tmp_path / "sample.csv"
        assert main(["sample", "--trials", "60", "--seed", "2",
                     "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        outcome = np.array(column(header, rows, "outcome"))
        post_mean = np.array(column(header, rows, "post_mean"))
        post_var = np.array(column(header, rows, "post_variance"))
        # eta=0.5, sigma=1: gain 2/3, conditional variance 1/12
        assert_allclose(post_mean, outcome * (2.0 / 3.0), atol=1e-6)
        assert_allclose(post_var, 1.0 / 12.0, atol=1e-6)

    def test_margin_reaches_the_engine(self, tmp_path, monkeypatch):
        margins = []

        class SpyEngine(cli.TrialEngine):
            def __init__(self, *args, **kwargs):
                margins.append(kwargs.get("margin"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "TrialEngine", SpyEngine)
        assert main(["sample", "--trials", "3", "--cutoff", "20",
                     "--margin", "3.5",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert margins == [3.5]

    @pytest.mark.parametrize("eta", ["0.95", "0.99"])
    def test_post_moments_meet_the_oracle_near_full_transmission(self, eta,
                                                                 tmp_path):
        out = tmp_path / "sample.json"
        assert main(["sample", "--eta", eta, "--trials", "500", "--repeat",
                     "--seed", "4", "--format", "json",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())["results"]
        oracle = GaussianSchemeOracle(
            SchemeParams(eta=float(eta), sigma=1.0, cutoff=40))
        for x, mean, var in zip(res["outcome"], res["post_mean"],
                                res["post_variance"]):
            want = oracle.post_quadrature_moments(x)
            assert max(abs(mean - want[0]), abs(var - want[1])) <= 1e-12

    def test_infeasible_feedback_exits_1(self, capsys):
        assert main(["sample", "--feedback", "finite-lo", "--beta", "2.0",
                     "--trials", "5"]) == 1
        assert "local-oscillator" in capsys.readouterr().err

    def test_json_stats_in_results(self, tmp_path):
        out = tmp_path / "sample.json"
        assert main(["sample", "--trials", "120", "--repeat",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["stats"]["n_trials"] == 120
        assert len(doc["results"]["outcome"]) == 120
        assert doc["meta"]["repeat"] is True


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_eta_sweep_identity_deviation_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep-eta", "0.2,0.5,0.8",
                     "--cutoff", "40", "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        assert len(rows) == 3
        assert all(m == "identity-deviation"
                   for m in column(header, rows, "metric", str))
        assert all(v <= 1e-6 for v in column(header, rows, "value"))
        assert all(s == "ok" for s in column(header, rows, "status", str))

    def test_beta_sweep_feedback_error_decreasing(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep-beta", "10,20,40",
                     "--out", str(out)]) == 0
        _, header, rows, _ = read_csv(out)
        feed = [(b, v) for b, v, m in zip(column(header, rows, "beta"),
                                          column(header, rows, "value"),
                                          column(header, rows, "metric",
                                                 str))
                if m == "feedback-error"]
        assert [b for b, _ in feed] == [10.0, 20.0, 40.0]
        errs = [v for _, v in feed]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_beta_cell_errors_and_exits_1(self, value, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep-beta", f"{value},10",
                     "--out", str(out)]) == 1
        _, header, rows, _ = read_csv(out)
        feed = [s for s, m in zip(column(header, rows, "status", str),
                                  column(header, rows, "metric", str))
                if m == "feedback-error"]
        assert feed == ["error:ParameterError", "ok"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_beta_row_is_written_in_both_formats(self, fmt,
                                                            tmp_path):
        # JSON holds no NaN: the failed cell's beta is null (an empty CSV
        # field), the sweep list in meta too, and its status the error
        out = tmp_path / f"sweep.{fmt}"
        assert main(["sweep", "--sweep-beta", "nan,10", "--cutoff", "12",
                     "--format", fmt, "--out", str(out)]) == 1
        if fmt == "json":
            doc = json.loads(out.read_text())
            res = doc["results"]
            assert doc["meta"]["sweep_beta"] == [None, 10.0]
            beta, status = res["beta"], res["status"]
        else:
            _, header, rows, _ = read_csv(out)
            beta = column(header, rows, "beta")
            status = column(header, rows, "status", str)
        assert status == ["ok", "error:ParameterError", "ok"]
        assert beta == [None, None, 10.0]

    def test_empty_range_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("sweep_eta =\n")
        assert main(["sweep", "--config", str(cfgfile)]) == 2
        assert "sweep_eta" in capsys.readouterr().err

    def test_cell_error_status_and_exit_1(self, tmp_path):
        out = tmp_path / "sweep.csv"
        # sigma=0 invalid for that cell only; eta cells still evaluated
        code = main(["sweep", "--sweep-sigma", "1.0,-1.0",
                     "--cutoff", "24", "--out", str(out)])
        assert code == 1
        _, header, rows, _ = read_csv(out)
        status = column(header, rows, "status", str)
        assert status[0] == "ok"
        assert status[1].startswith("error:ParameterError")


class TestWarnings:
    """Warnings the constructors attach reach stderr once each, and change
    neither the exit code nor the artifact."""

    PROBE = ("warning: squeeze parameter r = -1.96 for sigma = 0.02 "
             "populates the top of a cutoff-105 basis")
    NARROW = ["--sigma", "0.02", "--cutoff", "30", "--margin", "3.5"]

    @staticmethod
    def run_twice(args, tmp_path, monkeypatch, capsys):
        """Exit code, stderr lines of the first run, and whether the two
        runs wrote the same bytes."""
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        codes, errs = [], []
        for out in outs:
            codes.append(main(args + ["--out", str(out)]))
            errs.append(capsys.readouterr().err.splitlines())
        assert codes[0] == codes[1] and errs[0] == errs[1]
        assert "warning" not in outs[0].read_text()
        return codes[0], errs[0], outs[0].read_bytes() == outs[1].read_bytes()

    def test_verify_below_the_grid_step_prints_nothing(self, tmp_path,
                                                       monkeypatch, capsys):
        # the target is exact on any grid, so a kernel width of 0.158
        # below the grid step 0.25 warns of nothing
        code, err, same = self.run_twice(
            ["verify", "--eta", "0.2", "--sigma", "0.5"], tmp_path,
            monkeypatch, capsys)
        assert code == 0 and same
        assert err == []

    def test_pom_builds_no_probe_and_prints_nothing(self, tmp_path,
                                                    monkeypatch, capsys):
        # the density is exact at any cutoff: no truncated probe is built
        code, err, same = self.run_twice(["pom"] + self.NARROW, tmp_path,
                                         monkeypatch, capsys)
        assert code == 0 and same
        assert err == []

    def test_sample_prints_the_truncated_post_state(self, tmp_path,
                                                    monkeypatch, capsys):
        # no probe is built, but at Delta 0.05 a cutoff-30 post state keeps
        # only part of its exact probability, and that is reported
        code, err, same = self.run_twice(
            ["sample", "--trials", "20", "--seed", "3"] + self.NARROW,
            tmp_path, monkeypatch, capsys)
        assert code == 0 and same
        assert err == ["warning: the reduced state at outcome -1 loses a "
                       "fraction 0.279813 of its probability beyond 30 "
                       "levels"]

    def test_sweep_prints_each_distinct_warning_once(self, tmp_path,
                                                     monkeypatch, capsys):
        # four cells, two probes: each probe warning is attached twice
        code, err, same = self.run_twice(
            ["sweep", "--sweep-eta", "0.2,0.5", "--sweep-sigma", "0.02,0.03"]
            + self.NARROW, tmp_path, monkeypatch, capsys)
        assert code == 0 and same
        assert err == [self.PROBE,
                       "warning: squeeze parameter r = -1.75 for sigma = "
                       "0.03 populates the top of a cutoff-105 basis"]

    def test_clean_run_prints_nothing(self, tmp_path, monkeypatch, capsys):
        code, err, same = self.run_twice(
            ["verify", "--eta", "0.5", "--sigma", "1.0"], tmp_path,
            monkeypatch, capsys)
        assert code == 0 and same and err == []


def test_pom_and_sample_build_no_working_space(tmp_path, monkeypatch):
    # at phi_probe = phi both read the exact composition alone, finite-lo
    # feedback included
    def refuse(*args, **kwargs):
        raise AssertionError("a working-space builder was constructed")

    monkeypatch.setattr(scheme.SchemeFamilyBuilder, "__init__", refuse)
    out = str(tmp_path / "out.csv")
    for argv in (["pom", "--cutoff", "100"],
                 ["sample", "--trials", "200", "--repeat"],
                 ["sample", "--trials", "200", "--phi", "0.6",
                  "--feedback", "finite-lo", "--beta", "50"]):
        assert main(argv + ["--out", out]) == 0, argv


def _repeat_arrays(doc, rows):
    """The document with each 1-D array's values repeated ``rows`` times."""
    if isinstance(doc, np.ndarray):
        return np.tile(doc, rows) if doc.ndim == 1 else doc
    if isinstance(doc, dict):
        return {key: _repeat_arrays(v, rows) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_repeat_arrays(v, rows) for v in doc)
    return doc


class TestJsonWriter:
    """The JSON writer against json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False), byte for byte, with each array read as its
    tolist()."""

    @staticmethod
    def reference(doc):
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False,
                          default=lambda a: a.tolist())

    @staticmethod
    def written(doc):
        return "".join(cli._json_pieces(doc))

    @pytest.mark.parametrize("args", [
        ["verify", "--eta", "0.5", "--sigma", "1.0"],
        ["pom", "--cutoff", "20"],
        ["sample", "--trials", "150", "--seed", "3"],
        ["sample", "--trials", "150", "--seed", "3", "--repeat"],
        ["sample", "--trials", "600", "--seed", "3", "--repeat"],
        ["sample", "--trials", "10000", "--seed", "3", "--repeat"],
        ["sweep", "--sweep-eta", "0.3,0.6", "--sweep-beta", "5,10",
         "--cutoff", "20"],
    ], ids=["verify", "pom", "sample", "sample-repeat", "sample-repeat-600",
            "sample-repeat-10000", "sweep"])
    def test_command_documents(self, args, tmp_path, monkeypatch):
        docs = []
        writer = cli._json_pieces

        def spy(obj, indent=""):
            if indent == "":
                docs.append(obj)
            return writer(obj, indent)

        monkeypatch.setattr(cli, "_json_pieces", spy)
        out = tmp_path / "doc.json"
        assert main(args + ["--format", "json", "--out", str(out)]) == 0
        assert len(docs) == 1
        assert out.read_bytes() == (self.reference(docs[0]) + "\n").encode()

    @pytest.mark.parametrize("doc", [
        {}, [], None, True, False, 0, -7, 2.5, -0.0, 1e300, "plain",
        "non-ASCII \u00e9\u20ac\U0001d11e \"quoted\"\n\ttabbed",
        [{}], [[]], [{"b": 1, "a": [1, 2]}, {"c": None}],
        {"z": {"y": [True, None, -0.0, "\u00fc"]}, "a": [[1, [2, []]], {}]},
        {"\u00e9": (1, 2.5), "b": [1, [2], {"k": []}, 3], "a": ()},
        {"ints": list(range(-3, 3)), "floats": [0.1, -0.0, 5e-324]},
    ])
    def test_edge_documents(self, doc):
        assert self.written(doc) == self.reference(doc)

    @pytest.mark.parametrize("rows", [1, cli._DISTINCT_MIN_ROWS])
    @pytest.mark.parametrize("doc", [
        np.array([0.0, -0.0, 0.0, 1.5, -0.0, 1.5, 5e-324, 1e300, -5e-324]),
        np.array([2.5] * 7), np.array([-0.0]), np.array([]),
        np.array([3, -1, 3, 0, 2 ** 62], dtype=np.int64),
        np.array([True, False, True, True]), np.array([], dtype=bool),
        np.arange(12), np.arange(6.0).reshape(2, 3)[:, 1],
        np.arange(6.0).reshape(2, 3), np.array(0.25),
        {"a": np.array([1.0, -0.0]), "b": [np.array([7]), np.array([])],
         "c": (np.array([False]), {"d": np.array([0.1, 0.1, 0.2])})},
    ], ids=["signed-zeros", "repeated", "one", "empty", "int64", "bool",
            "empty-bool", "arange", "strided", "2-d", "0-d", "nested"])
    def test_array_documents(self, doc, rows):
        # rows repeats each 1-D array's values, so that each array also
        # takes the path that encodes its distinct values once
        doc = _repeat_arrays(doc, rows)
        assert self.written(doc) == self.reference(doc)

    @pytest.mark.parametrize("column,distinct", [
        (np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e300],
                         np.linspace(-3.0, 3.0, 501)[1::2]]), True),
        (np.concatenate([np.arange(-100, 150, dtype=np.int64),
                         [2 ** 62, -2 ** 63]]), True),
        (np.tile(np.array([True, False, False]), 80), False),
        (np.tile(np.array([0.0, -0.0, 0.5]), 80), False),
    ], ids=["floats-signed-zeros", "int64", "bool", "floats-repeated"])
    def test_long_array_columns(self, column, distinct):
        # from _DISTINCT_MIN_ROWS rows on, an all-distinct column is
        # encoded whole and one that repeats a value by its distinct values
        assert len(column) >= cli._DISTINCT_MIN_ROWS
        assert (cli._repeats(column) is None) == distinct
        doc = {"col": column, "nested": [{"x": column}]}
        assert self.written(doc) == self.reference(doc)

    @pytest.mark.parametrize("column", [
        ["ideal"] * 300, [None] * 300, ["\u00e9 \"q\"\n"] * 3, [None],
        ["ideal"] * 299 + [None], [None] * 299 + ["ideal"],
        ["a"] * 150 + ["b"] * 150, [1, 1.0, True, 1], [0.0, -0.0] * 150,
        [None, np.array([1.0, 2.0])], ["a", np.arange(3.0)],
    ], ids=["str", "none", "escaped-str", "one-none", "str-then-none",
            "none-then-str", "two-strs", "equal-numbers", "signed-zeros",
            "none-then-array", "str-then-array"])
    def test_list_columns_repeating_one_value(self, column):
        doc = {"col": column, "t": tuple(column)}
        assert self.written(doc) == self.reference(doc)

    @pytest.mark.parametrize("doc", [
        math.nan, [1.0, math.inf], {"a": {"b": [-math.inf]}},
        [{"a": math.nan}], {"x": math.nan}, np.array([0.0, math.nan, 0.0]),
        {"a": np.array([1.0, math.inf])}, [np.array([-math.inf])],
        _repeat_arrays(np.array([0.0, math.nan, 0.0]), 100),
        {"a": _repeat_arrays(np.array([1.0, math.inf]), 100)},
        [_repeat_arrays(np.array([-math.inf, 2.0]), 100)],
    ])
    def test_non_finite_floats_raise(self, doc):
        with pytest.raises(ValueError):
            self.reference(doc)
        with pytest.raises(ValueError):
            self.written(doc)


@pytest.mark.parametrize("rows", [1, cli._DISTINCT_MIN_ROWS])
def test_csv_columns_match_the_row_writer(tmp_path, rows):
    """The column writer against ",".join(_fmt(v) for v in row) over the
    zipped tolist() columns, short and long enough that each array column
    encodes its distinct values once."""
    columns = {
        "x": np.array([0.0, -0.0, 1.5, 0.0, -0.0, math.nan, 1.5, 5e-324]),
        "k": np.array([3, 3, -1, 0, 3, 2, 2, 7], dtype=np.int64),
        "flag": np.array([True, False, False, True, True, False, True,
                          False]),
        "none": [None] * 8,
        "mode": ["ideal"] * 8,
        "y": [0.1, -0.0, 2, None, "s", True, 1e300, -5e-324],
    }
    columns = {key: np.tile(c, rows) if isinstance(c, np.ndarray)
               else c * rows for key, c in columns.items()}
    out = tmp_path / "table.csv"
    cli._emit_csv(resolve_config(["sample", "--out", str(out)]), columns)
    lines = [line for line in out.read_text(encoding="utf-8").splitlines()
             if not line.startswith("# ")]
    table = zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                  for c in columns.values()))
    assert lines == [",".join(columns)] + [
        ",".join(cli._fmt(v) for v in row) for row in table]
    assert lines[1].startswith("0,3,true,,ideal,")
    assert lines[2].startswith("-0,3,false,,ideal,")
    assert lines[6].startswith("nan,")


class TestAtomicWrite:
    def test_no_partial_file_on_runtime_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        assert main(["sample", "--feedback", "finite-lo", "--beta", "2.0",
                     "--trials", "5", "--out", str(out)]) == 1
        assert not out.exists()
        assert not list(tmp_path.glob(".quadmeas-*"))


# ---------------------------------------------------------------------------
# dependencies


def test_package_and_cli_commands_load_no_scipy(tmp_path):
    # scipy.linalg was 0.25 s of a 0.43 s package import; a lazy import in
    # a command would only move that cost into the first run
    import quadmeas

    src = os.path.dirname(os.path.dirname(os.path.abspath(quadmeas.__file__)))
    out = str(tmp_path / "out.json")
    script = f"""
import sys
import quadmeas
from quadmeas import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy_modules())
for argv in (["pom", "--cutoff", "20"],
             ["sample", "--trials", "200", "--repeat", "--cutoff", "20"],
             ["verify", "--eta", "0.5", "--sigma", "1"],
             ["sweep", "--sweep-eta", "0.5", "--cutoff", "20",
              "--sweep-beta", "20"]):
    assert cli.main(argv + ["--format", "json", "--out", {out!r}]) == 0, argv
print(scipy_modules())
"""
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split("\n")[:2] == ["[]", "[]"]
