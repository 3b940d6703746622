"""Command-line interface: subcommands, output files, exit codes, and the
command lines of README."""

import json
import os
import re
import shlex
import stat
from pathlib import Path

import numpy as np
import pytest

import sigpca.cli as cli
from sigpca import NumericalError, SyntheticSpec, ValidationRun, csv_table, generate
from sigpca.ingest import load_matrix_csv


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def synth_file(tmp_path, rows=30, cols=10, significant=2, seed=7):
    out_dir = tmp_path / f"synth_{rows}x{cols}"
    assert (
        run_cli(
            [
                "synth",
                "--rows", str(rows),
                "--cols", str(cols),
                "--significant", str(significant),
                "--seed", str(seed),
                "--out-dir", str(out_dir),
            ]
        )
        == 0
    )
    return out_dir / f"synth_{rows}x{cols}_w{significant}_r0.csv"


class TestSynth:
    def test_explicit_spec_writes_csv_and_manifest(self, tmp_path):
        path = synth_file(tmp_path, rows=20, cols=8, significant=2, seed=5)
        assert path.exists()
        matrix = load_matrix_csv(path)
        assert matrix.shape == (20, 8)
        assert matrix.mask.all()
        manifest = json.loads((path.parent / "manifest.json").read_text())
        assert len(manifest) == 1
        assert manifest[0]["data"] == path.name
        spec = manifest[0]["spec"]
        assert (spec["n_rows"], spec["n_cols"], spec["n_significant"]) == (20, 8, 2)
        assert spec["seed"] == 5

    def test_data_file_is_the_csv_table_of_its_rows(self, tmp_path):
        path = synth_file(tmp_path, rows=20, cols=8, significant=2, seed=5)
        values = generate(SyntheticSpec(20, 8, 2, seed=5)).values
        rows = [{f"c{j}": x for j, x in enumerate(row)} for row in values.tolist()]
        assert b"\r" not in path.read_bytes()
        assert path.read_text() == csv_table(rows)
        assert load_matrix_csv(path).values.tobytes() == values.tobytes()

    def test_written_files_get_the_mode_of_a_plain_open(self, tmp_path):
        path = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)
        report = tmp_path / "report.json"
        assert run_cli(["analyze", str(path), "--null-samples", "100", "--out", str(report)]) == 0
        umask = os.umask(0)
        os.umask(umask)
        for written in (path, path.parent / "manifest.json", report):
            assert stat.S_IMODE(written.stat().st_mode) == 0o666 & ~umask, written.name

    def test_failed_write_leaves_no_data_file(self, tmp_path, monkeypatch, capsys):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        out_dir = tmp_path / "x"
        argv = ["synth", "--rows", "20", "--cols", "6", "--significant", "2"]
        assert run_cli(argv + ["--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "sigpca: error: disk full\n"
        assert list(out_dir.iterdir()) == []

    def test_grid_failing_midway_leaves_no_file_of_the_run(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "grid"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept\n")
        replace = os.replace
        calls = []

        def fail_fourth(src, dst):
            calls.append(dst)
            if len(calls) == 4:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", fail_fourth)
        argv = ["synth", "--scenario", "i", "--replicates", "1", "--out-dir", str(out_dir)]
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == "sigpca: error: disk full\n"
        assert len(calls) == 4
        assert [path.name for path in out_dir.iterdir()] == ["notes.txt"]
        assert (out_dir / "notes.txt").read_text() == "kept\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        first = synth_file(tmp_path / "a", rows=15, cols=6, significant=2, seed=9)
        second = synth_file(tmp_path / "b", rows=15, cols=6, significant=2, seed=9)
        assert first.read_bytes() == second.read_bytes()

    def test_scenario_grid_file_count(self, tmp_path):
        out_dir = tmp_path / "grid"
        code = run_cli(
            ["synth", "--scenario", "i", "--replicates", "1", "--out-dir", str(out_dir)]
        )
        assert code == 0
        files = sorted(out_dir.glob("*.csv"))
        assert len(files) == 28
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest) == 28

    def test_missing_shape_flags_fail(self, tmp_path):
        code = run_cli(["synth", "--rows", "10", "--out-dir", str(tmp_path / "x")])
        assert code == 1

    def test_invalid_spec_fails(self, tmp_path):
        code = run_cli(
            [
                "synth",
                "--rows", "10",
                "--cols", "5",
                "--significant", "5",
                "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--weak-var", "--loading-var"])
    def test_non_finite_variance_fails_before_writing(self, tmp_path, capsys, flag):
        out_dir = tmp_path / "x"
        argv = ["synth", "--rows", "20", "--cols", "6", "--significant", "2"]
        assert run_cli(argv + [flag, "nan", "--out-dir", str(out_dir)]) == 1
        field = flag[2:].replace("-", "_")
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"sigpca: error: {field} must be a finite number, got nan"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--scenario", "i", "--weak-var", "0.5", "--seed", "5", "--rows", "7"],
                "synth: --rows, --weak-var, --seed not allowed with --scenario",
            ),
            (
                ["--rows", "20", "--cols", "6", "--significant", "2", "--base-seed", "3"],
                "synth: --base-seed allowed only with --scenario",
            ),
        ],
        ids=["spec-flags-with-scenario", "grid-flag-without-scenario"],
    )
    def test_flags_of_the_other_route_fail_before_writing(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "x"
        assert run_cli(["synth", *flags, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"sigpca: error: {message}"]
        assert not out_dir.exists()


class TestAnalyze:
    def test_matrix_route_report(self, tmp_path, capsys):
        data = synth_file(tmp_path, rows=30, cols=10, significant=2, seed=7)
        code = run_cli(
            ["analyze", str(data), "--null-samples", "150", "--seed", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dataset"] == data.stem
        assert report["rows"] == 30 and report["cols"] == 10
        assert report["n_significant"] <= report["n_components"]

    def test_low_count_benchmark_recovered(self, tmp_path, capsys):
        data = synth_file(tmp_path, rows=150, cols=55, significant=2, seed=0)
        code = run_cli(
            ["analyze", str(data), "--null-samples", "500", "--seed", "42"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # The line README prints for this round trip: 54 2 <0.002
        assert report["n_components"] == 54
        assert report["n_significant"] == 2
        assert report["ranks"][0]["raw_p_display"] == "<0.002"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        data = synth_file(tmp_path, rows=20, cols=8, significant=2, seed=1)
        args = ["analyze", str(data), "--null-samples", "100", "--seed", "2"]
        assert run_cli(args) == 0
        stdout_text = capsys.readouterr().out
        out_path = tmp_path / "report.json"
        assert run_cli(args + ["--out", str(out_path)]) == 0
        assert out_path.read_text() == stdout_text

    def test_report_written_without_touching_the_umask(self, tmp_path, monkeypatch):
        data = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)
        umask = os.umask(0)
        os.umask(umask)

        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        report = tmp_path / "report.json"
        assert run_cli(["analyze", str(data), "--null-samples", "100", "--out", str(report)]) == 0
        assert stat.S_IMODE(report.stat().st_mode) == 0o666 & ~umask
        assert json.loads(report.read_text())["rows"] == 12

    @pytest.mark.parametrize("flag", ["--out", "--csv-out"])
    def test_unwritable_path_is_named_as_given(self, tmp_path, monkeypatch, capsys, flag):
        data = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", str(data), "--null-samples", "100", flag, "missing_dir/r.json"]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sigpca: error: ")
        assert "No such file or directory: 'missing_dir/r.json'" in err
        assert ".tmp" not in err
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("shape", [(100, 2), (2, 100)], ids=["two-cols", "two-rows"])
    def test_two_rows_or_columns_name_the_default_count_rule(self, tmp_path, capsys, shape):
        values = np.random.default_rng(5).standard_normal(shape)
        path = tmp_path / "small.csv"
        path.write_text(csv_table([{f"c{j}": x for j, x in enumerate(row)} for row in values.tolist()]))
        assert run_cli(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"shape {shape}" in err
        assert "min(rows - 1, cols - 1, 60)" in err
        assert "n_components=1" not in err

    def test_csv_format_and_csv_out(self, tmp_path, capsys):
        data = synth_file(tmp_path, rows=20, cols=8, significant=2, seed=1)
        csv_path = tmp_path / "ranks.csv"
        code = run_cli(
            [
                "analyze", str(data),
                "--null-samples", "100",
                "--format", "csv",
                "--csv-out", str(csv_path),
            ]
        )
        assert code == 0
        stdout_text = capsys.readouterr().out
        assert stdout_text.splitlines()[0].startswith("rank,eigenvalue")
        assert csv_path.read_text() == stdout_text

    def test_id_flag_overrides_dataset_name(self, tmp_path, capsys):
        data = synth_file(tmp_path, rows=20, cols=8, significant=2, seed=1)
        code = run_cli(
            ["analyze", str(data), "--null-samples", "100", "--id", "custom-name"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["dataset"] == "custom-name"

    def test_schema_route(self, tmp_path, capsys):
        gen = np.random.default_rng(4)
        n = 24
        base = gen.standard_normal(n)
        rows = []
        for i in range(n):
            rows.append(
                f"{base[i] + 0.1 * gen.standard_normal():.6f},"
                f"{base[i] + 0.1 * gen.standard_normal():.6f},"
                f"{'yes' if base[i] > 0 else 'no'}"
            )
        data_path = tmp_path / "mixed.csv"
        data_path.write_text("\n".join(["a,b,flag"] + rows) + "\n")
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text("a continuous\nb continuous\nflag binary no,yes\n")
        code = run_cli(
            [
                "analyze", str(data_path),
                "--schema", str(schema_path),
                "--null-samples", "100",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cols"] == 4  # two continuous + two indicator columns

    def test_extra_missing_tokens_do_not_leak_between_runs(self, tmp_path, capsys):
        data_path = tmp_path / "gaps.csv"
        data_path.write_text(
            "c0,c1,c2\n"
            + "\n".join(
                f"{v:.3f},{w:.3f},{'?' if i % 7 == 0 else f'{u:.3f}'}"
                for i, (v, w, u) in enumerate(
                    np.random.default_rng(5).standard_normal((25, 3))
                )
            )
            + "\n"
        )
        args = [
            "analyze", str(data_path),
            "--missing-token", "?",
            "--null-samples", "100",
        ]
        assert run_cli(args) == 0
        capsys.readouterr()
        # A second parse must not inherit the first run's extra token.
        parser = cli.build_parser()
        parsed = parser.parse_args(["analyze", str(data_path)])
        assert parsed.missing_token is None


class TestValidate:
    def test_summary_and_runs_files(self, tmp_path, monkeypatch):
        canned = [
            ValidationRun("i", 150, 15, 2, 0, 11, 14, 2),
            ValidationRun("i", 150, 15, 2, 1, 12, 14, 2),
        ]
        monkeypatch.setattr(cli, "run_validation", lambda *a, **k: canned)
        summary_path = tmp_path / "summary.csv"
        runs_path = tmp_path / "runs.csv"
        code = run_cli(
            [
                "validate",
                "--scenario", "i",
                "--replicates", "2",
                "--out", str(summary_path),
                "--runs-out", str(runs_path),
            ]
        )
        assert code == 0
        summary_lines = summary_path.read_text().splitlines()
        assert summary_lines[0].startswith("scenario,rows,cols,true_significant")
        assert len(summary_lines) == 2
        runs_lines = runs_path.read_text().splitlines()
        assert runs_lines[0] == (
            "scenario,rows,cols,true_significant,replicate,seed,"
            "n_components,estimated_significant"
        )
        assert runs_lines[1] == "i,150,15,2,0,11,14,2"

    def test_base_seed_is_the_options_seed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_validation", lambda *a, **k: calls.append(k) or [])
        monkeypatch.setattr(cli, "summarize_validation", lambda runs: [{"cell": 1}])
        assert run_cli(["validate", "--scenario", "i", "--base-seed", "7"]) == 0
        assert calls[0]["options"].seed == 7
        assert "base_seed" not in calls[0]

    def test_zero_replicates_rejected(self, tmp_path):
        code = run_cli(
            [
                "validate",
                "--scenario", "i",
                "--replicates", "0",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1


class TestExitCodes:
    def test_missing_file(self):
        assert run_cli(["analyze", "/nonexistent/file.csv"]) == 1

    def test_unknown_flag_rejected(self, tmp_path):
        data = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)
        assert run_cli(["analyze", str(data), "--bogus"]) == 1
        # flags that were removed
        assert run_cli(["analyze", str(data), "--conv-tol", "1e-3"]) == 1
        assert run_cli(["validate", "--scenario", "i", "--conv-tol", "1e-3"]) == 1
        assert run_cli(["validate", "--scenario", "i", "--seed", "3"]) == 1
        assert run_cli(["synth", "--spec-json", "f", "--out-dir", str(tmp_path / "x")]) == 1

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1

    def test_invalid_settings(self, tmp_path):
        data = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)
        assert run_cli(["analyze", str(data), "--null-samples", "0"]) == 1
        assert run_cli(["analyze", str(data), "--alpha", "2.0"]) == 1
        assert run_cli(["analyze", str(data), "--q-max", "1"]) == 1
        assert run_cli(["analyze", str(data), "--workers", "0"]) == 1

    def test_numerical_failure_exits_2_without_partial_report(self, tmp_path, monkeypatch):
        data = synth_file(tmp_path, rows=12, cols=5, significant=2, seed=1)

        def explode(*args, **kwargs):
            raise NumericalError("simulated divergence")

        monkeypatch.setattr(cli, "analyze_numeric", explode)
        out_path = tmp_path / "report.json"
        code = run_cli(["analyze", str(data), "--out", str(out_path)])
        assert code == 2
        assert not out_path.exists()

    def test_bad_cell_in_matrix_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0,c1\n1.0,oops\n")
        assert run_cli(["analyze", str(path)]) == 1


def test_readme_command_lines_parse():
    # Every sigpca line of README's sh blocks, with "$ " prompts stripped
    # and backslash continuations joined, so that a renamed or removed
    # flag fails here and not in a reader's shell.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = cli.build_parser()
    commands = set()
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.removeprefix("$ ")
            if line.startswith("sigpca "):
                commands.add(parser.parse_args(shlex.split(line)[1:]).command)
    assert commands == {"analyze", "synth", "validate"}
