"""Command-line behavior: exit codes, config precedence, output layout."""

import json
import re
import time
from pathlib import Path

import pytest

import mvfbm.cli
from mvfbm.cli import ConfigError, main, parse_config
from mvfbm.simulator import _snapshot_plan

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
            (["--hurst", "1.5"], "hurst"),
            (["--hurst", "0"], "hurst"),
            (["--particles", "0"], "particles"),
            (["--theta", "1.0"], "theta"),
            (["--workers", "0"], "workers"),
            # numbers that are not finite reals
            (["--horizon", "0^-1"], "horizon"),
            (["--horizon", "10^400"], "horizon"),
            (["--horizon", "inf"], "horizon"),
            (["--hurst=-2^0.5"], "hurst"),
            (["--xi=-4^0.5"], "xi"),
            (["--initial-spread=-0.5"], "initial-spread"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_validation_names_field(self, flags, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(["--command", "simulate"] + flags)


class TestMainExitCodes:
    def test_empty_args_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 2
        assert "usage" in err

    def test_config_failure(self, capsys):
        code, _, err = run_cli(["--command", "convergence", "--hurst", "1.5"], capsys)
        assert code == 2
        assert "hurst" in err

    def test_numerical_failure(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "--command", "simulate", "--model", "unstable-cubic", "--initial", "2.0",
                "--horizon", "4.0", "--steps", "16", "--particles", "2", "--hurst", "0.5",
                "--outdir", str(tmp_path), "--label", "boom",
            ],
            capsys,
        )
        assert code == 1
        assert "step" in err

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

    def test_unexpected_value_error_is_not_a_config_failure(self, monkeypatch, tmp_path):
        def broken(*args, **kwargs):
            raise ValueError("a defect inside the study")

        monkeypatch.setattr(mvfbm.cli, "strong_error_study", broken)
        # only typed rejections exit 2; a bare ValueError surfaces as itself
        with pytest.raises(ValueError, match="a defect inside the study"):
            main(["--command", "convergence", "--outdir", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config_text,flags,expected_code",
        [
            ("command = simulate\nmodel = bogus\n", [], 2),
            ("command = fbm-check\nsampler = cholesky\n", [], 2),
            (None, ["--command", "convergence", "--deltas", "2^-5,0.03"], 2),
            (None, ["--command", "chaos", "--particle-counts", "100,50"], 2),
            (None, ["--command", "chaos", "--particle-counts", "50"], 2),
            (None, ["--command", "moments", "--deltas", "2^-5"], 2),
            (None, ["--command", "moments", "--deltas", "2^-5,2^-5"], 2),
            (None, ["--command", "convergence", "--deltas", "2^-3,2^-3,2^-4"], 2),
            (None, ["--command", "moments", "--deltas", "2^-3,2^-4,2^-4"], 2),
            ("command = simulate\nhurst = 0.3\nhurst = 0.7\n", [], 2),
            (
                None,
                [
                    "--command", "simulate", "--model", "unstable-cubic", "--initial", "2.0",
                    "--horizon", "4.0", "--steps", "16", "--particles", "2", "--hurst", "0.5",
                ],
                1,
            ),
            (
                None,
                [
                    "--command", "convergence", "--model", "unstable-cubic", "--initial", "2.0",
                    "--particles", "4", "--replications", "4", "--deltas", "2^-3,2^-4",
                    "--reference-delta", "2^-6", "--hurst", "0.5", "--workers", "2",
                ],
                1,
            ),
        ],
        ids=[
            "unknown-model-in-file", "sampler-key-in-file", "delta-off-reference-mesh",
            "decreasing-counts", "one-count", "one-delta", "one-distinct-delta",
            "repeated-delta-convergence", "repeated-delta-moments", "repeated-key-in-file",
            "blow-up", "blow-up-in-worker",
        ],
    )
    def test_failed_run_leaves_no_directory(self, tmp_path, capsys, config_text, flags, expected_code):
        outdir = tmp_path / "runs"
        if config_text is not None:
            (tmp_path / "run.cfg").write_text(config_text)
            flags = ["--config", str(tmp_path / "run.cfg"), *flags]
        code, _, err = run_cli([*flags, "--outdir", str(outdir), "--label", "failed"], capsys)
        assert code == expected_code, err
        assert list(outdir.glob("**/*")) == []

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
