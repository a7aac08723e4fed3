"""The ``TuneReport`` JSONL artifact.

One canonical-JSON line per record, in search order:

* a ``header`` line — report version, search space, objective, budget;
* one ``rung`` line per ladder rung — units, cell accounting and the
  full ranked frontier;
* a ``best`` line — the winner with its score and metrics, plus the
  whole-search cell totals.

The format is append-streamable (like the sweep runner's JSONL) and
diff-stable: byte-identical for byte-identical searches, which is what
lets CI keep a committed tuning report under drift surveillance.
:mod:`repro.analysis.frontier` renders these documents as tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.common.errors import ConfigurationError, reject_non_finite
from repro.trace.serialization import canonical_json_line
from repro.tune.search import TuneResult

__all__ = ["TUNE_REPORT_VERSION", "TuneReport"]

TUNE_REPORT_VERSION = 1


class TuneReport:
    """Serialise a :class:`~repro.tune.search.TuneResult` to JSONL."""

    def __init__(self, result: TuneResult) -> None:
        if result.best is None:
            raise ConfigurationError("cannot report an unfinished search")
        self.result = result

    def documents(self) -> List[Dict[str, Any]]:
        """The report's records, in order (header, rungs, best)."""
        result = self.result
        header: Dict[str, Any] = {
            "type": "header",
            "version": TUNE_REPORT_VERSION,
            "space": result.space.describe(),
            "objective": result.objective_name,
            "eta": result.eta,
            "budget": result.budget,
        }
        documents: List[Dict[str, Any]] = [header]
        documents.extend(dict(rung.describe(), type="rung")
                         for rung in result.rungs)
        documents.append({
            "type": "best",
            "best": result.best.describe(),
            "budget_exhausted": result.budget_exhausted,
            "total_cells": result.total_cells,
            "total_executed": result.total_executed,
            "total_cache_hits": result.total_cache_hits,
        })
        return documents

    def lines(self) -> List[str]:
        """Canonical JSONL lines (no trailing newlines)."""
        return [canonical_json_line(document) for document in self.documents()]

    def write(self, path: Union[str, Path]) -> Path:
        """Write the report to ``path``, creating parent directories."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(line + "\n" for line in self.lines()),
                        encoding="utf-8")
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> Dict[str, Any]:
        """Parse a report file into ``{header, rungs, best}``."""
        header: Dict[str, Any] = {}
        rungs: List[Dict[str, Any]] = []
        best: Dict[str, Any] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            document = json.loads(line, parse_constant=reject_non_finite)
            kind = document.get("type")
            if kind == "header":
                header = document
            elif kind == "rung":
                rungs.append(document)
            elif kind == "best":
                best = document
            else:
                raise ConfigurationError(
                    f"unknown tune-report record type {kind!r} in {path}")
        if not header or not best:
            raise ConfigurationError(f"{path} is not a complete tune report")
        return {"header": header, "rungs": rungs, "best": best}
