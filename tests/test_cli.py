"""End-to-end command-line checks through fresh interpreter processes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from prhc import cli
from prhc.harness import CSV_HEADER, load_report


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "prhc", *[str(a) for a in args]],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout:\n{proc.stdout}"
        f"\nstderr:\n{proc.stderr}"
    )
    return proc


class TestRun:
    def test_stdout_schema(self):
        proc = run_cli("run", "--T", 8, "--N", 4)
        lines = proc.stdout.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[1] == "quadratic" and cells[2] == "overlap"

    def test_repeat_is_byte_identical(self):
        a = run_cli("run", "--T", 8, "--N", 4, "--seed", 2)
        b = run_cli("run", "--T", 8, "--N", 4, "--seed", 2)
        assert a.stdout == b.stdout

    def test_m_rule_standard(self, tmp_path):
        out = tmp_path / "std.csv"
        run_cli("run", "--T", 8, "--N", 4, "--m-rule", "standard",
                "--out", out)
        row = load_report(out).rows[0]
        assert row.policy == "standard" and row.M == 3

    def test_explicit_overlap_wins_over_rule(self, tmp_path):
        out = tmp_path / "custom.csv"
        run_cli("run", "--T", 10, "--N", 5, "--M", 3, "--m-rule", "half",
                "--out", out)
        row = load_report(out).rows[0]
        assert row.M == 3 and row.policy == "custom"

    def test_json_config_echo(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--T", 8, "--N", 4, "--seed", 5, "--cost", "setdist",
                "--format", "json", "--out", out)
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "run"
        assert doc["config"]["seed"] == 5
        assert doc["rows"][0]["cost_kind"] == "set_distance"
        assert doc["rows"][0]["certified"] is False

    def test_long_preview_certifies_a_finite_satisfied_bound(self, tmp_path):
        # the default protocol's certified rows all have an infinite bound;
        # this configuration reaches the regime where the bound is finite,
        # so a change that made every certificate vacuous fails here
        out = tmp_path / "cert.csv"
        run_cli("run", "--seed", 0, "--T", 100, "--N", 60, "--out", out)
        row = load_report(out).rows[0]
        assert row.policy == "overlap" and row.certified
        assert math.isfinite(row.bound) and row.satisfied
        assert 0 < row.J <= row.bound

    def test_nonconvex_cost_runs(self, tmp_path):
        out = tmp_path / "nc.csv"
        run_cli("run", "--T", 6, "--N", 3, "--cost", "nonconvex",
                "--sample-budget", 8, "--out", out)
        row = load_report(out).rows[0]
        assert row.cost_kind == "nonconvex" and row.J > 0


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("seed=3\nT=10\nN=5\n# comment line\n\nm_rule=standard\n")
        proc = run_cli("run", "--config", cfg, "--N", 6)
        row = proc.stdout.splitlines()[1].split(",")
        assert row[0] == "3"          # seed from file
        assert row[5] == "10"         # T from file
        assert row[6] == "6"          # N overridden by flag
        assert row[2] == "standard"   # m_rule from file

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("flux_capacitor=1\n")
        proc = run_cli("run", "--config", cfg, expect=2)
        assert "unknown config keys" in proc.stderr

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("just a bare line\n")
        proc = run_cli("run", "--config", cfg, expect=2)
        assert "key=value" in proc.stderr

    def test_file_keys_are_every_commands_options(self):
        _, _, keys = cli.build_parser()
        assert keys == {"seed", "cost", "n", "m", "T", "N", "M", "m_rule", "out",
                        "format", "sample_budget", "iters", "N_list", "grid_res",
                        "u_box", "infile"}

    @pytest.mark.parametrize("command,line,message", [
        ("run", "seed = abc", "argument --seed: invalid int value: 'abc'"),
        ("table1", "N-list = 4,x", "argument --N-list: N list must be "
                                   "comma-separated integers, got '4,x'"),
        ("oracle", "grid_res = fine", "argument --grid-res: invalid float value: 'fine'"),
    ])
    def test_bad_file_value_names_its_flag(self, tmp_path, command, line, message):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(line + "\n")
        proc = run_cli(command, "--config", cfg, expect=2)
        assert f"prhc {command}: error: {message}" in proc.stderr

    def test_one_file_serves_run_and_oracle(self, tmp_path):
        # each command ignores the keys of the others (iters, grid_res, N)
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("seed=4\nn=1\nT=2\nN=2\niters=3\ngrid_res=0.05\n")
        row = run_cli("run", "--config", cfg).stdout.splitlines()[1].split(",")
        assert row[0] == "4" and row[3] == "1" and row[5] == "2"
        oracle = run_cli("oracle", "--config", cfg).stdout
        direct = run_cli("oracle", "--seed", 4, "--n", 1, "--T", 2,
                         "--grid-res", 0.05).stdout
        assert oracle == direct and re.search(r"^J_grid=", oracle, re.M)

    def test_bad_cost_alias_from_file(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("cost=fancy\n")
        proc = run_cli("run", "--config", cfg, expect=2)
        assert "cost must be one of" in proc.stderr


class TestStoredReports:
    def test_certify_consistent_report(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--T", 8, "--N", 4, "--seed", 1, "--format", "json",
                "--out", out)
        proc = run_cli("certify", "--in", out)
        assert "recheck=ok" in proc.stdout
        assert "0 mismatches" in proc.stdout

    def test_certify_flags_tampered_cost(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--T", 8, "--N", 4, "--format", "json", "--out", out)
        doc = json.loads(out.read_text())
        doc["rows"][0]["J"] *= 10
        out.write_text(json.dumps(doc))
        proc = run_cli("certify", "--in", out, expect=1)
        assert "MISMATCH" in proc.stdout

    def test_audit_total_over_stored_rows(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--T", 8, "--N", 4, "--format", "json", "--out", out)
        proc = run_cli("audit", "--in", out)
        assert "0 failures" in proc.stdout
        assert re.search(r"(pass|skipped)", proc.stdout)

    def test_missing_input_fails(self, tmp_path):
        run_cli("certify", "--in", tmp_path / "absent.json", expect=2)

    @staticmethod
    def nonconvex_report(tmp_path, **row):
        """A one-row nonconvex JSON report, with its row's fields replaced."""
        out = tmp_path / "nc.json"
        run_cli("run", "--T", 6, "--N", 3, "--cost", "nonconvex",
                "--format", "json", "--out", out)
        doc = json.loads(out.read_text())
        doc["rows"][0].update(row)
        out.write_text(json.dumps(doc))
        return out

    def test_audit_skips_rows_without_envelope(self, tmp_path):
        proc = run_cli("audit", "--in", self.nonconvex_report(tmp_path))
        assert re.search(r"^row 0: .* skipped: no envelope for NonConvexCost",
                         proc.stdout, re.M)
        assert proc.stdout.splitlines()[-1] == "audit: 1 rows, 0 failures"

    def test_audit_skips_run_without_a_pair_of_full_windows(self, tmp_path):
        # N = T is one window, and M = 29 passes the stability threshold
        # (1/beta^2 is about 22), so only the missing pair leaves nothing
        # to check
        out = tmp_path / "one.csv"
        run_cli("run", "--T", 30, "--N", 30, "--M", 29, "--out", out)
        proc = run_cli("audit", "--in", out)
        assert re.search(r"^row 0: .* M=29 skipped: no pair of full-length "
                         r"windows$", proc.stdout, re.M)
        assert proc.stdout.splitlines()[-1] == "audit: 1 rows, 0 failures"

    def test_audit_fails_a_row_whose_audit_raises(self, tmp_path, monkeypatch, capsys):
        # only a missing envelope and the stability threshold skip a row; any
        # other error, such as a law rollout's stage-cost error, fails it
        out = tmp_path / "run.csv"
        assert cli.main(["run", "--seed", "0", "--T", "100", "--N", "60",
                         "--out", str(out)]) == 0
        assert load_report(out).rows[0].satisfied

        def broken(*args):
            raise ValueError("stage cost at step 3 is not finite (inf)")

        monkeypatch.setattr(cli, "recursion_audit", broken)
        capsys.readouterr()
        assert cli.main(["audit", "--in", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert re.search(r"^row 0: .* M=30 FAIL: stage cost at step 3 is not "
                         r"finite \(inf\)$", lines[0])
        assert lines[-1] == "audit: 1 rows, 1 failures"

    def test_certify_rejects_sampled_finite_bound(self, tmp_path):
        # a report written when the non-quadratic envelope was sampled
        out = self.nonconvex_report(tmp_path, beta=0.5, gamma_bar_sq=2.0,
                                    omega_op=8.75, bound=1e3, satisfied=True)
        proc = run_cli("certify", "--in", out, expect=1)
        assert "recheck=MISMATCH: bound inf != stored 1000.0" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "certify: 1 rows, 1 mismatches"

    def test_certify_accepts_old_infinite_bound(self, tmp_path):
        # the same kind of row whose preconditions failed: its bound was
        # already infinite, and it still replays
        out = self.nonconvex_report(tmp_path, beta=0.5, gamma_bar_sq=2.0,
                                    omega_op=math.nan, bound=math.inf,
                                    satisfied=False)
        proc = run_cli("certify", "--in", out)
        assert "recheck=ok" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "certify: 1 rows, 0 mismatches"

    def test_certify_malformed_row_is_usage_error(self, tmp_path):
        out = tmp_path / "run.json"
        run_cli("run", "--T", 8, "--N", 4, "--format", "json", "--out", out)
        doc = json.loads(out.read_text())
        del doc["rows"][0]["J"]
        out.write_text(json.dumps(doc))
        proc = run_cli("certify", "--in", out, expect=2)
        assert proc.stderr.startswith("error: JSON row 0: missing keys ['J']")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["certify", "audit"])
    @pytest.mark.parametrize("config,message", [
        (None, "JSON config is not an object"),
        ([], "JSON config is not an object"),
    ])
    def test_bad_config_is_usage_error(self, tmp_path, command, config, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": config, "rows": []}))
        proc = run_cli(command, "--in", path, expect=2)
        assert proc.stderr.startswith("error: JSON config")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSampleBudget:
    """--sample-budget and a config file's sample_budget are accepted with
    any value and ignored, so older scripts, config files and reports keep
    working; no report carries the key."""

    SMALL = {"run": ["run", "--T", "8", "--N", "4"],
             "table1": ["table1", "--iters", "1", "--N-list", "4", "--T", "8"]}

    @pytest.mark.parametrize("command", ["run", "table1"])
    def test_flag_changes_no_byte(self, tmp_path, command):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        args = self.SMALL[command] + ["--format", "json", "--out"]
        assert cli.main(args + [str(plain)]) == 0
        assert cli.main(args + [str(flagged), "--sample-budget", "-3"]) == 0
        assert flagged.read_bytes() == plain.read_bytes()
        assert "sample_budget" not in json.loads(plain.read_text())["config"]

    @pytest.mark.parametrize("command", ["certify", "audit"])
    def test_replay_accepts_flag(self, tmp_path, command):
        out = tmp_path / "r.json"
        assert cli.main(self.SMALL["run"] + ["--format", "json", "--out", str(out)]) == 0
        assert cli.main([command, "--in", str(out), "--sample-budget", "abc"]) == 0

    @pytest.mark.parametrize("command", ["run", "table1"])
    def test_config_file_value_ignored(self, tmp_path, command):
        keys = {"run": "T=8\nN=4\n", "table1": "iters=1\nN_list=4\nT=8\n"}
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"sample_budget=-3\n{keys[command]}")
        out = tmp_path / "r.json"
        assert cli.main([command, "--config", str(cfg), "--format", "json",
                         "--out", str(out)]) == 0
        assert "sample_budget" not in json.loads(out.read_text())["config"]

    def test_stored_budget_replays(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert cli.main(self.SMALL["run"] + ["--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["config"]["sample_budget"] = 1  # as older reports wrote it
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["certify", "--in", str(out)]) == 0
        assert "0 mismatches" in capsys.readouterr().out


class TestReplay:
    @pytest.mark.parametrize("command,summary", [("certify", "0 mismatches"),
                                                 ("audit", "0 failures")])
    def test_envelope_built_once_per_scenario(self, tmp_path, monkeypatch,
                                              capsys, command, summary):
        # a table1 report holds an overlap and a standard row per scenario
        out = tmp_path / "t1.json"
        assert cli.main(["table1", "--iters", "1", "--N-list", "4", "--T", "8",
                         "--sample-budget", "8", "--format", "json",
                         "--out", str(out)]) == 0
        calls = []
        real = cli.scenario_params

        def counting(sc, **kwargs):
            calls.append((sc.seed, sc.cost_kind, sc.N))
            return real(sc, **kwargs)

        monkeypatch.setattr(cli, "scenario_params", counting)
        capsys.readouterr()
        assert cli.main([command, "--in", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(load_report(out).rows) == 6
        assert len(calls) == len(set(calls)) == 3
        assert len(lines) == 7 and lines[-1] == f"{command}: 6 rows, {summary}"


class TestOracle:
    def test_full_preview_matches_grid(self):
        proc = run_cli("oracle", "--T", 3, "--n", 1, "--grid-res", 0.02,
                       "--seed", 0)
        values = dict(re.findall(r"(J_grid|J_policy|diff)=([-\d.e]+)",
                                 proc.stdout))
        assert abs(float(values["diff"])) <= 1e-3
        assert float(values["J_grid"]) > 0

    @pytest.mark.parametrize("flags", [("--cost", "quad"),
                                       ("--cost", "setdist", "--n", 2)])
    def test_one_step_task(self, flags):
        # T = 1 is one full-preview window with nothing to overlap
        proc = run_cli("oracle", "--T", 1, *flags)
        assert "diff=0.0\n" in proc.stdout

    def test_sample_budget_flag_rejected(self):
        proc = run_cli("oracle", "--T", 2, "--n", 1, "--grid-res", 0.05,
                       "--sample-budget", 10, expect=2)
        assert "unrecognized arguments: --sample-budget" in proc.stderr

    def test_sample_budget_in_config_file_still_loads(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("sample_budget=10\nT=2\nn=1\ngrid_res=0.05\n")
        proc = run_cli("oracle", "--config", cfg)
        assert re.search(r"^J_grid=", proc.stdout, re.M)


def test_negative_seed_names_the_seed():
    proc = run_cli("run", "--seed", -1, "--T", 8, "--N", 4, expect=2)
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


class TestTable1:
    def test_tiny_protocol_layout(self, tmp_path):
        out = tmp_path / "t1.csv"
        proc = run_cli("table1", "--iters", 1, "--N-list", "4", "--T", 8,
                       "--sample-budget", 8, "--out", out)
        report = load_report(out)
        assert len(report.rows) == 6  # 3 cost kinds x 2 policies x 1 seed
        kinds = {r.cost_kind for r in report.rows}
        assert kinds == {"quadratic", "nonconvex", "set_distance"}
        cell_lines = [ln for ln in proc.stderr.splitlines()
                      if re.match(r"\s+\w+ +\w+ +N=", ln)]
        assert len(cell_lines) == 6

    def test_repeated_preview_rejected(self):
        proc = run_cli("table1", "--iters", 1, "--N-list", "4,6,4", "--T", 8, expect=2)
        assert ("prhc table1: error: argument --N-list: N list repeats 4, "
                "got '4,6,4'") in proc.stderr
        assert proc.stdout == ""

    def test_cell_lines_count_finite_bounds(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        assert cli.main(["table1", "--iters", "2", "--N-list", "4", "--T", "8",
                         "--out", str(out)]) == 0
        rows = load_report(out).rows
        cells = re.findall(r"^\s+(\w+) +(\w+) +N=(\d+) .* over (\d+) runs "
                           r"finite_bounds=(\d+)/(\d+)$",
                           capsys.readouterr().err, re.M)
        assert len(cells) == 6
        for kind, policy, N, count, finite, total in cells:
            mine = [r for r in rows if (r.cost_kind, r.policy, r.N) == (kind, policy, int(N))]
            assert int(count) == int(total) == len(mine) == 2
            assert int(finite) == sum(math.isfinite(r.bound) for r in mine)
            if kind != "quadratic":
                assert int(finite) == 0


class TestNList:
    @pytest.mark.parametrize("text,message", [
        ("abc", "N list must be comma-separated integers, got 'abc'"),
        ("", "N list must not be empty, got ''"),
    ])
    def test_bad_flag_is_usage_error(self, text, message):
        proc = run_cli("table1", "--N-list", text, expect=2)
        assert f"argument --N-list: {message}" in proc.stderr
        assert "_parse_n_list" not in proc.stderr


def test_console_script_installed(tmp_path):
    """Install the checkout into a throwaway prefix and run its `prhc`."""
    pytest.importorskip("setuptools")
    repo = Path(__file__).resolve().parents[1]
    record = tmp_path / "record.txt"
    # setuptools' own installer works offline and needs no `wheel`; the
    # egg and build bases keep the checkout clean.
    subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "build"),
         "install", "--prefix", str(tmp_path / "prefix"),
         "--single-version-externally-managed", "--record", str(record)],
        cwd=repo, check=True, timeout=600,
    )
    # The record names what was installed, whatever the platform's layout.
    installed = [Path(line) for line in record.read_text().splitlines()]
    scripts = [p for p in installed if p.stem == "prhc"]
    assert scripts, "install produced no prhc console script"
    exe = shutil.which("prhc", path=str(scripts[0].parent))
    assert exe, f"installed prhc script is not executable: {scripts[0]}"
    packages = [p.parent for p in installed
                if p.parts[-2:] == ("prhc", "__init__.py")]
    assert packages, "install produced no prhc package"
    # PYTHONPATH names only the installed copy, so src/ cannot answer and
    # the copy shadows any other install of prhc.
    env = {**os.environ, "PYTHONPATH": str(packages[0].parent)}
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: prhc ")
    assert "table1" in proc.stdout
