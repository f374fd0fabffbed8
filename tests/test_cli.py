"""CLI surface: argument handling and experiment dispatch."""

import pytest

from repro.cli import _EXPERIMENTS, COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_register_monolithic(capsys):
    assert main(["register", "--isolation", "monolithic", "--count", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/2 registrations succeeded" in out


def test_register_sgx(capsys):
    assert main(["register", "--isolation", "sgx", "--count", "1"]) == 0
    assert "registered as 5g-guti" in capsys.readouterr().out


def test_table1_experiment(capsys):
    assert main(["table1"]) == 0
    assert "E9/TableI" in capsys.readouterr().out


def test_fig11_experiment(capsys):
    assert main(["fig11"]) == 0
    out = capsys.readouterr().out
    assert "OTA" in out and "[OK ]" in out


@pytest.mark.slow
def test_setup_experiment_small(capsys):
    assert main(["setup", "--registrations", "10"]) == 0
    assert "sgx_share_percent" in capsys.readouterr().out


def test_trace_command_monolithic(capsys):
    assert main(["trace", "--isolation", "monolithic", "--warmup", "0"]) == 0
    out = capsys.readouterr().out
    assert "registration [registration]" in out
    assert "[sbi.request]" in out


def test_trace_command_json(capsys):
    import json

    assert main(["trace", "--isolation", "monolithic", "--warmup", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"]["success"] is True
    assert payload["spans"]["kind"] == "registration"


def test_metrics_command_prom(capsys):
    assert main(["metrics", "--isolation", "monolithic", "--registrations", "1",
                 "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE http_requests_served_total counter" in out
    assert 'gnb_registrations_succeeded_total{gnb="gnb-0"} 1' in out


def test_metrics_command_json(capsys):
    import json

    assert main(["metrics", "--isolation", "monolithic", "--registrations", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"] and payload["histograms"]


def test_trace_and_metrics_parsers():
    parser = build_parser()
    args = parser.parse_args(["trace", "--seed", "3", "--json"])
    assert args.command == "trace" and args.seed == 3 and args.json
    args = parser.parse_args(["metrics", "--format", "prom"])
    assert args.command == "metrics" and args.format == "prom"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["not-a-command"])


def test_every_experiment_has_a_parser():
    parser = build_parser()
    for name in _EXPERIMENTS:
        args = parser.parse_args([name])
        assert args.command == name
        assert args.registrations > 0


def test_every_table_row_parses_with_defaults_and_has_a_handler():
    parser = build_parser()
    names = [name for name, *_ in COMMANDS]
    assert len(names) == len(set(names)) and set(_EXPERIMENTS) < set(names)
    for name, handler, help_text, *arguments in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name and args.func is handler
        assert callable(handler) and help_text
        for flags, _spec in arguments:
            assert hasattr(args, flags[0].lstrip("-").replace("-", "_"))
    # String defaults go through the same validators as typed input.
    assert parser.parse_args(["attack"]).rates == (0.0, 240.0, 400.0)


@pytest.mark.parametrize("argv", [
    ["attack", "--rates", "abc"],
    ["attack", "--rates", "0,-5"],
    ["capacity", "--ues", "0"],
    ["capacity", "--shards", "0"],
    ["capacity", "--monitor-cadence", "0"],
    ["monitor", "--cadence", "0"],
    ["monitor", "--cadence", "soon"],
    ["monitor", "--registrations", "0"],
    ["table3", "--max-ues", "0"],
    ["table3", "--max-ues", "1"],
    ["fig9", "--registrations", "0"],
    ["fig9", "--jobs", "-2"],
    ["capacity", "--jobs", "-3"],
    ["attack", "--legit", "0"],
    ["attack", "--horizon", "-1"],
    ["traces", "--legit", "0"],
    ["traces", "--horizon", "0"],
    ["attack", "--horizon", "inf"],
    ["attack", "--rates", "0,inf"],
    ["monitor", "--horizon", "-1"],
    ["monitor", "--horizon", "nan"],
    ["monitor", "--factor", "-1"],
    ["monitor", "--cadence", "inf"],
    ["traces", "--rate", "-5"],
    ["traces", "--rate", "nan"],
    ["traces", "--sample", "0"],
    ["traces", "--slowest", "-1"],
    ["register", "--count", "-1"],
    ["metrics", "--registrations", "0"],
    ["trace", "--warmup", "-1"],
    ["table3", "--iterations", "0"],
])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    """Outside input is rejected by the parser (exit 2 and a message
    naming the flag), never by a traceback from inside the campaign."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}: expected" in capsys.readouterr().err
