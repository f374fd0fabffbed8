"""JSON export of experiment reports.

Benchmarks write human-readable reports; this module serialises the same
content as JSON so plots or regression dashboards can consume the
reproduction's output without scraping text.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.experiments.harness import ExperimentReport


def report_to_dict(report: ExperimentReport) -> Dict[str, Any]:
    """Full, loss-free dictionary form of a report."""
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "series": {
            key: {
                "unit": s.unit,
                "n": s.n,
                "mean": s.mean,
                "median": s.median,
                "p25": s.p25,
                "p75": s.p75,
                "stdev": s.stdev,
                "min": s.minimum,
                "max": s.maximum,
            }
            for key, s in report.series.items()
        },
        "derived": dict(report.derived),
        "rows": [dict(row) for row in report.rows],
        "checks": [
            {
                "name": c.name,
                "measured": c.measured,
                "low": c.low,
                "high": c.high,
                "paper_value": c.paper_value,
                "ok": c.ok,
            }
            for c in report.checks
        ],
        "all_checks_ok": report.all_checks_ok,
        "notes": report.notes,
    }


def report_to_json(report: ExperimentReport, indent: int = 2) -> str:
    return json.dumps(report_to_dict(report), indent=indent, sort_keys=True)
