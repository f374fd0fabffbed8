"""JSON export and Table IV regeneration."""

import json

from repro.experiments.export import report_to_dict, report_to_json
from repro.experiments.harness import BandCheck, ExperimentReport
from repro.experiments.stats import summarize


def make_report():
    report = ExperimentReport("E0/Test", "export test")
    report.series["a/LT"] = summarize("a", [1.0, 2.0, 3.0], "us")
    report.derived["ratio"] = 1.5
    report.rows.append({"module": "eudm", "value": 7})
    report.checks.append(BandCheck("c", 1.5, 1.0, 2.0, paper_value=1.4))
    report.notes = "note"
    return report


def test_round_trips_through_json():
    report = make_report()
    data = json.loads(report_to_json(report))
    assert data["experiment_id"] == "E0/Test"
    assert data["series"]["a/LT"]["median"] == 2.0
    assert data["derived"]["ratio"] == 1.5
    assert data["rows"][0]["module"] == "eudm"
    assert data["checks"][0]["ok"] is True
    assert data["all_checks_ok"] is True


def test_failed_checks_serialise(tmp_path):
    report = make_report()
    report.checks.append(BandCheck("bad", 10.0, 0.0, 1.0))
    path = tmp_path / "report.json"
    path.write_text(report_to_json(report) + "\n")
    data = json.loads(path.read_text())
    assert data["all_checks_ok"] is False
    assert any(not c["ok"] for c in data["checks"])


def test_dict_is_json_safe():
    # No bytes or exotic objects leak through.
    json.dumps(report_to_dict(make_report()))


def test_table_iv_rows(sgx_testbed):
    from repro.ran.sdr import UsrpX310, table_iv_configuration

    rows = table_iv_configuration(sgx_testbed, UsrpX310())
    by_key = {(r["section"], r["key"]): r["value"] for r in rows}
    assert by_key[("Server", "CPUs")] == "2 x Intel Xeon Silver 4314"
    assert by_key[("Server", "RAM / EPC")] == "512 GB DDR4 - 16 GB EPC"
    assert by_key[("Network", "MCC / MNC")] == "001 / 01"
    assert by_key[("Radio", "PRBs")] == "106"
    assert by_key[("Radio", "Frequency")] == "3.6192 GHz"
    assert by_key[("UE", "Model")] == "OnePlus 8"
    assert "11.0.11.11.IN21DA" in by_key[("UE", "OS")]
