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
        ({"sample_budget": None}, "sample_budget must be an integer >= 1"),
        ([], "JSON config is not an object"),
    ])
    def test_bad_config_is_usage_error(self, tmp_path, command, config, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"config": config, "rows": []}))
        proc = run_cli(command, "--in", path, expect=2)
        assert proc.stderr.startswith("error: JSON config")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_sample_budget_flag_rejected(self):
        proc = run_cli("oracle", "--T", 2, "--n", 1, "--grid-res", 0.05,
                       "--sample-budget", 10, expect=2)
        assert "unrecognized arguments: --sample-budget" in proc.stderr

    def test_sample_budget_in_config_file_still_loads(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("sample_budget=10\nT=2\nn=1\ngrid_res=0.05\n")
        proc = run_cli("oracle", "--config", cfg)
        assert re.search(r"^J_grid=", proc.stdout, re.M)


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
