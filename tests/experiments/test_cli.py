"""End-to-end tests of the sweep CLI (python -m repro.experiments.cli)."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.cli import main
from repro.trace.serialization import iter_jsonl


def grid_args(*extra):
    return [
        "--workloads", "microbench",
        "--managers", "ideal", "nexus#2",
        "--cores", "1", "2",
        "--seeds", "2015",
        *extra,
    ]


class TestSweepCommand:
    def test_sweep_writes_jsonl_and_reports_counts(self, tmp_path, capsys):
        output = tmp_path / "rows.jsonl"
        code = main(["sweep", *grid_args("--output", str(output), "--cache-dir", str(tmp_path / "cache"))])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 points, 4 executed, 0 cached" in out
        assert "microbench" in out
        rows = list(iter_jsonl(output))
        assert len(rows) == 4
        assert {row["point"]["manager"] for row in rows} == {"Ideal", "Nexus# 2TG"}

    def test_second_sweep_is_fully_cached(self, tmp_path, capsys):
        args = ["sweep", *grid_args("--cache-dir", str(tmp_path / "cache"), "--quiet")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "4 points, 0 executed, 4 cached" in capsys.readouterr().out

    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["sweep", *grid_args("--output", str(serial), "--quiet")]) == 0
        assert main(["sweep", *grid_args("--output", str(parallel), "--quiet", "--n-jobs", "2")]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_distributed_sweep_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        dist = tmp_path / "dist.jsonl"
        assert main(["sweep", *grid_args("--output", str(serial), "--quiet")]) == 0
        assert main(["sweep", *grid_args("--output", str(dist), "--quiet",
                                         "--workers", "2")]) == 0
        assert serial.read_bytes() == dist.read_bytes()

    def test_auto_worker_counts_resolve_to_cpu_count(self, capsys):
        assert main(["sweep", *grid_args("--quiet", "--n-jobs", "auto")]) == 0
        assert "4 points, 4 executed" in capsys.readouterr().out

    def test_bad_worker_counts_are_rejected(self):
        with pytest.raises(ConfigurationError, match="n_jobs"):
            main(["sweep", *grid_args("--n-jobs", "bogus")])
        with pytest.raises(ConfigurationError, match="n_jobs"):
            main(["sweep", *grid_args("--n-jobs", "0")])
        with pytest.raises(ConfigurationError, match="workers"):
            main(["sweep", *grid_args("--workers", "0")])
        with pytest.raises(ConfigurationError, match="workers"):
            main(["sweep", *grid_args("--workers", "some")])

    def test_nanos_max_cores_cap(self, capsys):
        code = main([
            "sweep", "--workloads", "microbench", "--managers", "nanos",
            "--cores", "1", "64", "--nanos-max-cores", "32", "--quiet",
        ])
        assert code == 0
        assert "1 points" in capsys.readouterr().out


class TestOtherCommands:
    def test_spec_hash_is_printed_and_stable(self, capsys):
        assert main(["spec-hash", *grid_args()]) == 0
        first = capsys.readouterr().out.strip()
        assert main(["spec-hash", *grid_args()]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64

    def test_workloads_lists_registry(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "microbench" in out and "c-ray" in out

    def test_report_disambiguates_multi_seed_sweeps(self, tmp_path, capsys):
        output = tmp_path / "multiseed.jsonl"
        code = main([
            "sweep", "--workloads", "microbench", "--managers", "ideal",
            "--cores", "1", "2", "--seeds", "1", "2",
            "--output", str(output), "--quiet",
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["report", str(output)]) == 0
        out = capsys.readouterr().out
        assert "microbench#seed=1" in out and "microbench#seed=2" in out
        # Each per-seed table has exactly the two swept core columns.
        for line in out.splitlines():
            if line.startswith("Ideal"):
                assert len(line.split()) == 3  # name + two speedup cells

    def test_report_renders_speedup_tables(self, tmp_path, capsys):
        output = tmp_path / "rows.jsonl"
        assert main(["sweep", *grid_args("--output", str(output), "--quiet")]) == 0
        capsys.readouterr()
        assert main(["report", str(output)]) == 0
        out = capsys.readouterr().out
        assert "microbench" in out
        assert "Ideal" in out and "Nexus# 2TG" in out
        assert "1 cores" in out and "2 cores" in out


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_scale_exits_with_one_line_error(scale):
    """``--scale nan``/``inf`` stop at the spec with a typed one-line error,
    not inside a generator with a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "sweep", "--workloads", "sparselu",
         "--managers", "ideal", "--cores", "4", "--scale", scale],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"ConfigurationError: scale must be finite and > 0, got {scale}"]
