"""TuneReport round-trip, frontier rendering and the CLI entry point."""

from __future__ import annotations

import json

import pytest

from repro.analysis.frontier import frontier_table, render_tune_report
from repro.common.errors import ConfigurationError, TraceError
from repro.experiments.runner import SweepRunner
from repro.tune.cli import main
from repro.tune.report import TUNE_REPORT_VERSION, TuneReport
from repro.tune.search import SuccessiveHalving, TuneResult
from repro.tune.space import SearchSpace


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tune-report")
    space = SearchSpace(
        managers=("ideal", "nexus#2@100"),
        workloads=("microbench",),
        core_counts=(2,),
        seeds=(1, 2),
        scale=0.05,
        name="report-test",
    )
    runner = SweepRunner(cache_dir=tmp / "cache")
    return SuccessiveHalving(space, "makespan", runner=runner).run()


class TestTuneReport:
    def test_roundtrip(self, finished, tmp_path):
        path = TuneReport(finished).write(tmp_path / "tune.jsonl")
        document = TuneReport.load(path)
        assert document["header"]["version"] == TUNE_REPORT_VERSION
        assert document["header"]["objective"] == "makespan"
        assert len(document["rungs"]) == len(finished.rungs)
        best = document["best"]
        assert best["best"]["candidate"]["display"] == finished.best.candidate.display
        assert best["total_cells"] == finished.total_cells

    def test_lines_are_canonical_json(self, finished):
        for line in TuneReport(finished).lines():
            assert json.loads(line)["type"] in ("header", "rung", "best")

    def test_rung_records_carry_the_frontier(self, finished, tmp_path):
        path = TuneReport(finished).write(tmp_path / "tune.jsonl")
        rung0 = TuneReport.load(path)["rungs"][0]
        assert [entry["candidate"]["display"] for entry in rung0["frontier"]]
        assert rung0["cells"] == rung0["executed"] + rung0["cache_hits"]

    def test_unfinished_result_rejected(self, finished):
        unfinished = TuneResult(space=finished.space, objective_name="makespan",
                                eta=2, budget=None)
        with pytest.raises(ConfigurationError):
            TuneReport(unfinished)

    def test_incomplete_file_rejected(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text('{"type": "header", "version": 1}\n')
        with pytest.raises(ConfigurationError):
            TuneReport.load(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, finished, tmp_path, token):
        path = TuneReport(finished).write(tmp_path / "report.jsonl")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][:-1] + ',"score":%s}' % token
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="JSON domain"):
            TuneReport.load(path)


class TestFrontierRendering:
    def test_frontier_table_ranks_and_labels(self, finished):
        table = frontier_table(
            [entry.describe() for entry in finished.rungs[0].frontier],
            title="rung 0")
        assert "rung 0" in table
        assert "Ideal" in table and "Nexus# 2TG@100MHz" in table
        assert "geomean_makespan_us" in table

    def test_render_tune_report_names_the_winner(self, finished, tmp_path):
        path = TuneReport(finished).write(tmp_path / "tune.jsonl")
        text = render_tune_report(TuneReport.load(path))
        assert "best: " in text
        assert finished.best.candidate.display in text
        assert "rung 0" in text


class TestCli:
    def test_search_writes_a_report(self, tmp_path, capsys):
        report_path = tmp_path / "cli.jsonl"
        code = main([
            "search", "--workloads", "microbench",
            "--managers", "ideal", "nexus#2@100",
            "--cores", "2", "--scale", "0.05", "--seeds", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--report", str(report_path), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final frontier" in out and "best:" in out
        document = TuneReport.load(report_path)
        assert document["best"]["best"]["candidate"]["display"] == "Ideal"

    def test_tg_geometry_flags_compile_the_axis(self, tmp_path, capsys):
        code = main([
            "search", "--workloads", "microbench",
            "--tg", "1", "2", "--geometries", "256x8", "16x2",
            "--frequency", "100",
            "--cores", "2", "--scale", "0.05", "--seeds", "1",
            "--cache-dir", str(tmp_path / "cache"), "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Nexus# 1TG@100MHz" in out or "Nexus# 2TG@100MHz" in out

    def test_report_subcommand_renders(self, tmp_path, capsys):
        report_path = tmp_path / "cli.jsonl"
        assert main([
            "search", "--workloads", "microbench", "--managers", "ideal",
            "--cores", "2", "--scale", "0.05", "--seeds", "1",
            "--report", str(report_path), "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(report_path)]) == 0
        assert "best: Ideal" in capsys.readouterr().out

    def test_configuration_errors_exit_2(self, tmp_path, capsys):
        code = main([
            "search", "--workloads", "microbench",
            "--managers", "nexus#lots", "--quiet",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_chaos_needs_the_fabric(self, capsys):
        code = main([
            "search", "--workloads", "microbench", "--managers", "ideal",
            "--chaos-seed", "7", "--quiet",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
