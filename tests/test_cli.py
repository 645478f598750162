"""Command-line behavior: exit codes, config precedence, output layout."""

import json
import re
import time
from pathlib import Path

import pytest

import mvfbm.cli
import mvfbm.study
from mvfbm.cli import COMMANDS, ConfigError, main, parse_config
from mvfbm.model import PRESET_NAMES
from mvfbm.simulator import SNAPSHOT_POLICIES, _snapshot_plan

DESK_DELTAS = (2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfig:
    def test_defaults(self):
        config = parse_config(["--command", "simulate"])
        assert config.hurst == 0.7
        assert config.deltas == DESK_DELTAS
        assert config.reference_delta == 2.0**-10
        assert config.particles == 200
        assert config.replications == 50

    def test_paper_profile(self):
        config = parse_config(["--command", "convergence", "--profile", "paper-fig1", "--hurst", "0.7"])
        assert config.particles == 1000
        assert config.replications == 100
        assert config.deltas == DESK_DELTAS
        assert config.reference_delta == 2.0**-12

    def test_flags_override_profile(self):
        config = parse_config(
            ["--command", "convergence", "--profile", "paper-fig1", "--particles", "64"]
        )
        assert config.particles == 64
        assert config.replications == 100

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = convergence\nhurst = 0.6\nparticles = 99\n# note\n")
        config = parse_config(["--config", str(cfg), "--hurst", "0.8"])
        assert config.hurst == 0.8
        assert config.particles == 99

    def test_exponent_notation(self):
        config = parse_config(
            ["--command", "convergence", "--deltas", "2^-4,2^-5", "--reference-delta", "2^-8"]
        )
        assert config.deltas == (0.0625, 0.03125)
        assert config.reference_delta == 2.0**-8

    def test_unknown_file_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command = simulate\nwidget = 3\n")
        with pytest.raises(ConfigError, match="widget"):
            parse_config(["--config", str(cfg)])

    def test_repeated_file_key(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("command = simulate\nhurst = 0.3\nhurst = 0.7\n")
        for flags in ([], ["--hurst", "0.5"]):  # a flag does not mend the file
            with pytest.raises(ConfigError, match=re.escape(f"{cfg}:3: config key 'hurst' is set twice")):
                parse_config(["--config", str(cfg), *flags])

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config(["--hurst", "0.5"])

    @pytest.mark.parametrize(
        "flags,key",
        [
            # numbers that are not finite reals
            (["--horizon", "0^-1"], "horizon"),
            (["--horizon", "10^400"], "horizon"),
            (["--horizon", "inf"], "horizon"),
            (["--hurst=-2^0.5"], "hurst"),
            (["--xi=-4^0.5"], "xi"),
            (["--deltas", ","], r"deltas: ',' \(empty list\)"),
            (["--particle-counts", ","], r"particle-counts: ',' \(empty list\)"),
            # a label names one directory under --outdir, never a parent or the outdir itself
            (["--label", ".."], "label"),
            (["--label", "."], "label"),
            (["--label", "nested/run"], "label"),
        ],
        # fixed ids: a row keeps its name when rows before it are removed
        ids=["flags5-horizon", "flags6-horizon", "flags7-horizon", "flags8-hurst", "flags9-xi",
             r"flags12-deltas: ',' \(empty list\)", "empty-count-list", "flags14-label", "flags15-label",
             "flags16-label"],
    )
    def test_validation_names_field(self, flags, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(["--command", "simulate"] + flags)

    @pytest.mark.parametrize(
        "config_text,message",
        [
            ("command = simulate\nemit-plot = maybe\n", "emit-plot: 'maybe' (not a boolean)"),
            ("command = simulate\nhurst 0.5\n", "run.cfg:2: expected 'key = value', got 'hurst 0.5'"),
            (None, "cannot read config file"),
        ],
        ids=["not-a-boolean", "no-equals-sign", "missing-file"],
    )
    def test_malformed_config_file(self, tmp_path, config_text, message):
        cfg = tmp_path / "run.cfg"
        if config_text is not None:
            cfg.write_text(config_text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(["--config", str(cfg)])

    def test_help_lists_every_choice(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # unwrapped: no choice is broken at a hyphen
        text = mvfbm.cli._build_parser().format_help()
        for flag, choices in [("--command", COMMANDS), ("--model", PRESET_NAMES),
                              ("--snapshots", SNAPSHOT_POLICIES), ("--profile", mvfbm.cli._PROFILE_SETTINGS)]:
            option_help = text.split(f"\n  {flag} ", 1)[1].split("\n  --", 1)[0]
            assert all(choice in option_help for choice in choices), option_help


class TestMainExitCodes:
    def test_empty_args_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert "usage" in err

    def test_config_failure(self, capsys):
        code, _, err = run_cli(["--command", "convergence", "--hurst", "1.5"], capsys)
        assert code == 2
        assert "Hurst parameter" in err

    @pytest.mark.parametrize("key,value", [("model", "bogus"), ("snapshots", "all"), ("profile", "huge"),
                                           ("hurst", "1.5"), ("particles", "0")])
    def test_flag_and_file_fail_alike(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"command = simulate\n{key} = {value}\n")
        outdir = str(tmp_path / "runs")
        from_file = run_cli(["--config", str(cfg), "--outdir", outdir], capsys)
        from_flag = run_cli(["--command", "simulate", f"--{key}", value, "--outdir", outdir], capsys)
        assert from_flag == from_file
        code, _, err = from_flag
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: "), err
        assert not (tmp_path / "runs").exists()

    def test_numerical_failure(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "--command", "simulate", "--model", "mean-deviation", "--initial-spread", "0.5",
                "--horizon", "2^133", "--steps", "16", "--particles", "2",
                "--outdir", str(tmp_path), "--label", "boom",
            ],
            capsys,
        )
        assert code == 1
        assert err.startswith("numerical failure: non-finite state at step 8,")

    def test_regime_violation_is_config_failure(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "--command", "simulate", "--model", "mean-deviation", "--hurst", "0.3",
                "--outdir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 2
        assert "constant diffusion" in err

    @pytest.mark.parametrize(
        "module,name,command",
        [
            (mvfbm.cli, "strong_error_study", "convergence"),
            (mvfbm.cli, "preset_by_name", "simulate"),
            (mvfbm.cli, "UniformMesh", "simulate"),
            (mvfbm.study, "UniformMesh", "fbm-check"),
            (mvfbm.study, "check_count", "convergence"),
        ],
        ids=["study-convergence", "preset-simulate", "mesh-simulate", "mesh-fbm-check",
             "count-convergence"],
    )
    def test_unexpected_value_error_is_not_a_config_failure(self, monkeypatch, tmp_path, module, name,
                                                            command):
        def broken(*args, **kwargs):
            raise ValueError(f"a defect inside {name}")

        monkeypatch.setattr(module, name, broken)
        # only typed rejections exit 2; a bare ValueError surfaces as itself
        with pytest.raises(ValueError, match=f"a defect inside {name}") as caught:
            main(["--command", command, "--outdir", str(tmp_path)])
        assert type(caught.value) is ValueError
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config_text,flags,expected_code",
        [
            ("command = simulate\nmodel = bogus\n", [], 2),
            ("command = simulate\nmodel = unstable-cubic\n", [], 2),  # a test fixture, not a preset
            ("command = fbm-check\nsampler = cholesky\n", [], 2),
            (None, ["--command", "convergence", "--deltas", "2^-5,0.03"], 2),
            (None, ["--command", "chaos", "--particle-counts", "100,50"], 2),
            (None, ["--command", "chaos", "--particle-counts", "50"], 2),
            (None, ["--command", "moments", "--deltas", "2^-5"], 2),
            (None, ["--command", "moments", "--deltas", "2^-5,2^-5"], 2),
            (None, ["--command", "convergence", "--deltas", "2^-3,2^-3,2^-4"], 2),
            (None, ["--command", "moments", "--deltas", "2^-3,2^-4,2^-4"], 2),
            ("command = simulate\nhurst = 0.3\nhurst = 0.7\n", [], 2),
            (None, ["--command", "convergence", "--deltas", ","], 2),
            ("command = simulate\nemit-plot = maybe\n", [], 2),
            ("command = simulate\nhurst 0.5\n", [], 2),
            (None, ["--config", "no-such-directory/run.cfg"], 2),
            (
                None,
                [
                    "--command", "simulate", "--model", "mean-deviation", "--initial-spread", "0.5",
                    "--horizon", "2^133", "--steps", "16", "--particles", "2",
                ],
                1,
            ),
            (
                None,
                [
                    "--command", "convergence", "--model", "mean-deviation",
                    "--initial-spread", "0.5", "--horizon", "2^133", "--reference-delta", "2^127",
                    "--deltas", "2^130,2^129", "--particles", "4", "--replications", "4",
                    "--workers", "2",
                ],
                1,
            ),
            (None, ["--command", "simulate", "--horizon", "1e308", "--steps", "4", "--particles", "3"], 1),
            (
                None,
                ["--command", "fbm-check", "--horizon", "1e200", "--hurst", "0.9", "--steps", "4",
                 "--paths", "2"],
                1,
            ),
            (
                None,
                [
                    "--command", "convergence", "--horizon", "1e200", "--hurst", "0.9",
                    "--particles", "3", "--replications", "2", "--deltas", "2.5e199,1.25e199",
                    "--reference-delta", "6.25e198",
                ],
                1,
            ),
            (
                None,
                ["--command", "simulate", "--model", "mean-reverting", "--horizon", "1e-300",
                 "--hurst", "0.9", "--steps", "4", "--particles", "3"],
                1,
            ),
            (
                None,
                ["--command", "fbm-check", "--horizon", "1e-300", "--hurst", "0.9", "--steps", "4",
                 "--paths", "2"],
                1,
            ),
            (
                None,
                ["--command", "fbm-check", "--horizon", "1e160", "--hurst", "0.9", "--steps", "4",
                 "--paths", "2"],
                1,
            ),
            (
                None,
                ["--command", "fbm-check", "--horizon", "1e-100", "--hurst", "0.9", "--steps", "4",
                 "--paths", "2"],
                1,
            ),
            (
                None,
                [
                    "--command", "moments", "--model", "mean-reverting", "--rate", "0",
                    "--horizon", "1e100", "--hurst", "0.9", "--deltas", "2.5e99,1.25e99",
                    "--particles", "8",
                ],
                1,
            ),
            (
                None,
                [
                    "--command", "simulate", "--model", "mean-reverting", "--rate", "1e20",
                    "--horizon", "4", "--steps", "16", "--particles", "2", "--hurst", "0.5",
                ],
                1,
            ),
            # 2^57 steps need 1 EiB, more than any 64-bit address space: numpy refuses to allocate
            (
                None,
                ["--command", "convergence", "--particles", "1", "--replications", "2",
                 "--deltas", "2^-1,2^-2", "--reference-delta", "2^-57"],
                2,
            ),
            (
                None,
                ["--command", "convergence", "--particles", "1", "--replications", "2",
                 "--deltas", "2^-1,2^-2", "--reference-delta", "2^-57", "--workers", "2"],
                2,
            ),
            (None, ["--command", "simulate", "--steps", "144115188075855872"], 2),
            (None, ["--command", "fbm-check", "--steps", "144115188075855872", "--paths", "2"], 2),
            (None, ["--command", "moments", "--deltas", "2^-1,2^-57", "--particles", "1"], 2),
            (
                None,
                ["--command", "chaos", "--steps", "144115188075855872", "--particle-counts", "1,2",
                 "--replications", "1"],
                2,
            ),
            # 2^62 or 1e300 steps: the sampler's 2n + 2 float modes pass numpy's largest array size
            (
                None,
                ["--command", "convergence", "--particles", "1", "--replications", "2",
                 "--deltas", "2^-1,2^-2", "--reference-delta", "2^-62"],
                2,
            ),
            (None, ["--command", "fbm-check", "--steps", "4611686018427387904"], 2),
            (None, ["--command", "simulate", "--steps", "4611686018427387904"], 2),
            (None, ["--command", "chaos", "--steps", "4611686018427387904"], 2),
            (None, ["--command", "convergence", "--horizon", "1e300", "--reference-delta", "1",
                    "--deltas", "2,4"], 2),
            # 1e310 steps: the ratio of horizon to reference delta leaves the float range
            (None, ["--command", "convergence", "--horizon", "1e300", "--reference-delta", "1e-10",
                    "--deltas", "2e-10,4e-10"], 2),
            # factors 3, 2 and 1: the factor-2 mesh would step where the factor-3 mesh does not
            (None, ["--command", "moments", "--horizon", "0.6", "--deltas", "0.3,0.2,0.1"], 2),
            # finite terminal states whose gaps overflow in the study's reduction
            (None, ["--command", "convergence", "--model", "mean-deviation", "--initial-spread", "0.5",
                    "--horizon", "300", "--reference-delta", "0.25", "--deltas", "1,0.5",
                    "--particles", "4", "--replications", "2"], 1),
            (None, ["--command", "chaos", "--model", "mean-deviation", "--initial-spread", "0.5",
                    "--horizon", "300", "--steps", "1200", "--particle-counts", "2,4",
                    "--replications", "2"], 1),
            # each delta over the reference delta leaves the float range
            (None, ["--command", "convergence", "--deltas", "1e300,2e300", "--reference-delta", "1e-10"], 2),
            # each range is checked by the library call of the command that reads the value
            (None, ["--command", "simulate", "--hurst", "1.5"], 2),
            (None, ["--command", "simulate", "--hurst", "0"], 2),
            (None, ["--command", "simulate", "--particles", "0"], 2),
            (None, ["--command", "chaos", "--theta", "1.0"], 2),
            (None, ["--command", "convergence", "--workers", "0"], 2),
            (None, ["--command", "simulate", "--initial-spread=-0.5"], 2),
            (None, ["--command", "simulate", "--seed", "-1"], 2),
            (None, ["--command", "fbm-check", "--paths", "0"], 2),
            (None, ["--command", "convergence", "--replications", "1"], 2),
            (None, ["--command", "simulate", "--horizon=-1"], 2),
            # a choice from a flag is parsed as from a file: one error line, no usage dump
            (None, ["--command", "simulate", "--model", "bogus"], 2),
            # every list option is parsed by one rule: an empty list is rejected at parse time
            (None, ["--command", "simulate", "--particle-counts", ","], 2),
        ],
        ids=[
            "unknown-model-in-file", "fixture-model-in-file", "sampler-key-in-file", "delta-off-reference-mesh",
            "decreasing-counts", "one-count", "one-delta", "one-distinct-delta",
            "repeated-delta-convergence", "repeated-delta-moments", "repeated-key-in-file",
            "empty-delta-list", "not-a-boolean-in-file", "no-equals-sign-in-file",
            "missing-config-file",
            "blow-up", "blow-up-in-worker", "variance-overflow-simulate",
            "variance-overflow-fbm-check", "variance-overflow-convergence",
            "variance-underflow-simulate", "variance-underflow-fbm-check",
            "stderr-overflow-fbm-check", "stderr-underflow-fbm-check",
            "non-finite-moments", "non-finite-simulate-std",
            "no-memory-convergence", "no-memory-in-worker", "no-memory-simulate",
            "no-memory-fbm-check", "no-memory-moments", "no-memory-chaos",
            "oversize-convergence", "oversize-fbm-check", "oversize-simulate", "oversize-chaos",
            "oversize-horizon-convergence", "overflowing-steps-convergence", "non-nested-moments",
            "gap-overflow-convergence", "gap-overflow-chaos", "overflowing-delta-convergence",
            "hurst-above-one-simulate", "hurst-zero-simulate", "no-particles-simulate", "low-theta-chaos",
            "no-workers-convergence", "negative-spread-simulate", "negative-seed-simulate",
            "no-paths-fbm-check", "one-replication-convergence", "negative-horizon-simulate",
            "unknown-model-flag", "empty-count-list-simulate",
        ],
    )
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, config_text, flags, expected_code):
        outdir = tmp_path / "runs"
        if config_text is not None:
            (tmp_path / "run.cfg").write_text(config_text)
            flags = ["--config", str(tmp_path / "run.cfg"), *flags]
        code, _, err = run_cli([*flags, "--outdir", str(outdir), "--label", "failed"], capsys)
        assert code == expected_code, err
        assert err.count("\n") == 1 and err.startswith(("error: ", "numerical failure: "))
        assert list(outdir.glob("**/*")) == []

    def test_unwritable_outdir_is_config_failure(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        outdir = tmp_path / "file" / "runs"  # below a regular file: no directory can be made
        code, _, err = run_cli(["--command", "simulate", "--steps", "2", "--outdir", str(outdir)],
                               capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write the run directory under {outdir}: ")
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""

    def test_default_run_directories_never_overwrite(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(time, "strftime", lambda *_: "20260101-000000")
        args = [
            "--command", "fbm-check", "--hurst", "0.5", "--steps", "4", "--paths", "10",
            "--outdir", str(tmp_path),
        ]
        for seed in ("1", "2", "3"):
            assert run_cli([*args, "--seed", seed], capsys)[0] == 0
        stamp = "fbm-check-20260101-000000"
        directories = [stamp, f"{stamp}-2", f"{stamp}-3"]
        assert sorted(p.name for p in tmp_path.iterdir()) == directories
        for seed, name in zip(("1", "2", "3"), directories):
            assert f"# seed={seed}\n" in (tmp_path / name / "report.csv").read_text()


def _small_convergence_args(outdir, label, extra=()):
    return [
        "--command", "convergence", "--model", "mean-reverting", "--hurst", "0.3",
        "--particles", "12", "--replications", "3", "--deltas", "2^-3,2^-4",
        "--reference-delta", "2^-6", "--seed", "11", "--outdir", str(outdir),
        "--label", label, *extra,
    ]


class TestOutputs:
    def test_convergence_artifacts(self, tmp_path, capsys):
        code, out, _ = run_cli(
            _small_convergence_args(tmp_path, "conv", ["--emit-plot"]), capsys
        )
        assert code == 0
        run_dir = tmp_path / "conv"
        assert (run_dir / "report.csv").exists()
        assert (run_dir / "report.json").exists()
        assert (run_dir / "plot.svg").exists()
        assert (run_dir / "config.echo").exists()
        assert "slope" in out
        csv_lines = (run_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "# schema_version=1"
        payload = json.loads((run_dir / "report.json").read_text())
        assert payload["report"] == "convergence"
        echo = (run_dir / "config.echo").read_text()
        assert "hurst = 0.3" in echo

    def test_rerun_with_same_label_leaves_no_stale_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "same"
        assert run_cli(_small_convergence_args(tmp_path, "same", ["--emit-plot"]), capsys)[0] == 0
        assert (run_dir / "plot.svg").exists()
        (run_dir / "notes.txt").write_text("kept\n")
        assert run_cli(_small_convergence_args(tmp_path, "same", ["--seed", "7"]), capsys)[0] == 0
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "config.echo", "notes.txt", "report.csv", "report.json"
        ]
        assert "# seed=7\n" in (run_dir / "report.csv").read_text()
        assert json.loads((run_dir / "report.json").read_text())["seed"] == 7
        assert "seed = 7\n" in (run_dir / "config.echo").read_text()

    def test_byte_identical_reports_across_invocations_and_workers(self, tmp_path, capsys):
        run_cli(_small_convergence_args(tmp_path, "a"), capsys)
        run_cli(_small_convergence_args(tmp_path, "b"), capsys)
        run_cli(_small_convergence_args(tmp_path, "c", ["--workers", "2"]), capsys)
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        c = (tmp_path / "c" / "report.csv").read_bytes()
        assert a == b == c

    def test_fbm_check_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "--command", "fbm-check", "--hurst", "0.5", "--paths", "2000",
                "--steps", "16", "--outdir", str(tmp_path), "--label", "fc",
            ],
            capsys,
        )
        assert code == 0
        assert "standard errors" in out
        lines = (tmp_path / "fc" / "report.csv").read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "lag,expected_cov,empirical_cov,max_abs_z"

    def test_fbm_check_accepts_one_path(self, tmp_path, capsys):
        # one path is a valid audit: its z-scores use the exact standard error
        code, _, err = run_cli(
            [
                "--command", "fbm-check", "--hurst", "0.7", "--steps", "8", "--paths", "1",
                "--seed", "3", "--outdir", str(tmp_path), "--label", "one",
            ],
            capsys,
        )
        assert code == 0, err
        report = json.loads((tmp_path / "one" / "report.json").read_text())
        assert report["paths"] == 1 and report["max_abs_z"] == pytest.approx(0.979, abs=5e-4)

    def test_simulate_trajectory(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "--command", "simulate", "--model", "mean-reverting", "--hurst", "0.5",
                "--particles", "4", "--steps", "8", "--outdir", str(tmp_path),
                "--label", "sim", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "sim" / "report.csv").read_text().splitlines()
        assert lines[1] == "k,t,particle,component_1"
        assert len(lines) == 2 + 4
        assert "terminal mean" in out

    def test_snapshot_policies_are_rows_of_the_full_export(self, tmp_path, capsys):
        args = ["--command", "simulate", "--model", "mean-reverting", "--hurst", "0.6",
                "--particles", "3", "--steps", "130", "--seed", "4", "--outdir", str(tmp_path)]
        exports = {}
        for policy in ("full", "thin", "terminal"):
            assert run_cli(args + ["--snapshots", policy, "--label", policy], capsys)[0] == 0
            exports[policy] = (tmp_path / policy / "report.csv").read_bytes().splitlines(keepends=True)
        full = exports["full"]
        assert full[1] == b"k,t,particle,component_1\n"
        for policy in ("thin", "terminal"):
            plan = _snapshot_plan(130, policy)
            kept = [row for row in full[2:] if int(row.split(b",")[0]) in plan]
            assert exports[policy] == full[:2] + kept
        assert {int(row.split(b",")[0]) for row in exports["terminal"][2:]} == {130}

    def test_moments_and_chaos_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "--command", "moments", "--model", "mean-reverting", "--hurst", "0.3",
                "--deltas", "2^-3,2^-4", "--particles", "16", "--order", "2",
                "--outdir", str(tmp_path), "--label", "mom",
            ],
            capsys,
        )
        assert code == 0 and "ratios" in out
        code, out, _ = run_cli(
            [
                "--command", "chaos", "--model", "mean-reverting", "--hurst", "0.7",
                "--particle-counts", "8,16", "--replications", "3", "--steps", "16",
                "--outdir", str(tmp_path), "--label", "ch",
            ],
            capsys,
        )
        assert code == 0 and "trend" in out
        lines = (tmp_path / "ch" / "report.csv").read_text().splitlines()
        header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_at] == "particles,distance,stderr"


# Every artifact of one small run per command, recorded byte for byte.  The
# runs use a relative --outdir, so the paths in config.echo and in the
# printed summary line are the same in any working directory.  report.json
# is compared without its volatile wall_time_seconds.  To re-record after an
# intended change, run ``python tests/record_golden.py`` and review the diff.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONFIG = """# convergence run read from a file
command = convergence
model = mean-reverting
hurst = 0.3
particles = 12
replications = 3
deltas = 2^-3, 2^-4, 2^-5
reference-delta = 2^-6
seed = 11
emit-plot = true
"""
GOLDEN_RUNS = {
    "simulate": [
        "--command", "simulate", "--model", "mean-reverting", "--hurst", "0.5",
        "--particles", "4", "--steps", "8", "--snapshots", "full", "--seed", "3",
    ],
    "convergence": ["--config", "run.cfg"],
    "chaos": [
        "--command", "chaos", "--model", "mean-reverting", "--hurst", "0.7",
        "--particle-counts", "8,16", "--replications", "3", "--steps", "16", "--emit-plot",
    ],
    "moments": [
        "--command", "moments", "--model", "mean-reverting", "--hurst", "0.3",
        "--deltas", "2^-3,2^-4,2^-5", "--particles", "16", "--order", "2",
    ],
    "fbm-check": [
        "--command", "fbm-check", "--hurst", "0.7", "--paths", "300", "--steps", "8",
        "--seed", "5",
    ],
}


def _artifacts(run_dir, printed):
    """File name -> bytes of one run, plus the printed summary line."""
    got = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    payload = json.loads(got["report.json"])
    payload.pop("wall_time_seconds", None)
    got["report.json"] = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    got["summary.txt"] = printed.encode()
    return got


def _golden_run(name, workdir, printed):
    """The artifacts of golden run ``name``, made in the current directory
    ``workdir``; ``printed()`` returns what the run printed."""
    (workdir / "run.cfg").write_text(GOLDEN_CONFIG)
    code = main(GOLDEN_RUNS[name] + ["--outdir", "out", "--label", name])
    assert code == 0
    return _artifacts(workdir / "out" / name, printed())


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_golden_artifacts(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = _golden_run(name, tmp_path, lambda: capsys.readouterr().out)
    expected = {path.name: path.read_bytes() for path in (GOLDEN / name).iterdir()}
    assert sorted(got) == sorted(expected)
    for file_name, content in expected.items():
        assert got[file_name] == content, f"{name}/{file_name} differs from the recorded bytes"
