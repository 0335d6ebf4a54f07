"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_cli_requirements(capsys):
    assert main(["requirements"]) == 0
    out = capsys.readouterr().out
    assert "remote-surgery" in out
    assert "FAIL" in out          # 5G fails some rows
    assert "6G" in out


def test_cli_upf(capsys):
    assert main(["upf"]) == 0
    out = capsys.readouterr().out
    assert "edge" in out and "central-cloud" in out
    assert "9" in out             # ~92% reduction


def test_cli_cpf(capsys):
    assert main(["cpf"]) == 0
    out = capsys.readouterr().out
    assert "pdu-session-establishment" in out


def test_cli_peering(capsys):
    assert main(["peering", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "->" in out
    assert "km" in out and "ms" in out


def test_cli_evaluate(capsys):
    assert main(["evaluate", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "Urban Mean Round-trip Time Latency" in out
    assert "zetservers.peering.cz" in out
    assert "exceeds the 20 ms requirement" in out


def test_cli_upgrade(capsys):
    assert main(["upgrade"]) == 0
    out = capsys.readouterr().out
    assert "6G + edge breakout" in out
    assert "yes" in out


def test_cli_evaluate_named_scenario(capsys):
    assert main(["evaluate", "--scenario", "skopje", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "Urban Mean Round-trip Time Latency" in out
    assert "balkan-transit" in out


def test_cli_scenarios_lists_registry(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    assert "klagenfurt" in out and "skopje" in out
    assert "6x7" in out and "5x5" in out


def test_cli_scenarios_json_dump_round_trips(capsys):
    from repro.scenarios import ScenarioSpec, skopje

    assert main(["scenarios", "--scenario", "skopje", "--json"]) == 0
    out = capsys.readouterr().out
    assert ScenarioSpec.from_json(out) == skopje()


def test_cli_scenarios_dumps_spec_file(tmp_path, capsys):
    from repro.scenarios import ScenarioSpec, skopje

    path = tmp_path / "city.json"
    path.write_text(skopje().to_json())
    assert main(["scenarios", "--spec", str(path)]) == 0
    assert ScenarioSpec.from_json(capsys.readouterr().out) == skopje()


def test_cli_evaluate_spec_file(tmp_path, capsys):
    from repro.scenarios import skopje

    path = tmp_path / "city.json"
    path.write_text(skopje().to_json())
    assert main(["evaluate", "--spec", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Urban Mean Round-trip Time Latency" in out


def test_cli_unknown_scenario_is_clean_error(capsys):
    assert main(["evaluate", "--scenario", "atlantis"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'atlantis'" in err
    assert "klagenfurt" in err      # names the registered options


def test_cli_malformed_spec_file_is_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "a spec"}')
    assert main(["evaluate", "--spec", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("gateway_by_cell", [["A1", "atlantis"]],
     "cell A1 assigned to unknown gateway 'atlantis'"),
    ("default_targets", ["no-such-host"], "unknown node 'no-such-host'"),
], ids=["unknown-gateway", "unknown-target"])
def test_cli_spec_that_fails_to_build_is_clean_error(tmp_path, capsys,
                                                     field, value, message):
    # The file parses into a spec; building its world is what fails.
    from repro.scenarios import skopje

    spec = json.loads(skopje().to_json())
    spec["campaign"][field] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(spec))
    assert main(["evaluate", "--spec", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_evaluate_edge_breakout_spec(tmp_path, capsys):
    from repro.scenarios import klagenfurt

    path = tmp_path / "edge.json"
    path.write_text(klagenfurt(edge_breakout=True).to_json())
    assert main(["evaluate", "--spec", str(path)]) == 0
    assert "Fig. 4 detour: 501 km" in capsys.readouterr().out


def test_cli_detour_loop_end_off_the_trace_is_clean_error(tmp_path,
                                                          capsys):
    from repro.scenarios import klagenfurt

    spec = json.loads(klagenfurt().to_json())
    spec["detour_loop_end"] = "gw-kla"
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(spec))
    assert main(["evaluate", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: detour loop end 'gw-kla' is not a "
                            "hop of the reference trace\n")


@pytest.mark.parametrize("command", ["peering", "upgrade"])
@pytest.mark.parametrize("option", [["--scenario", "skopje"],
                                    ["--spec", "/nonexistent.json"]],
                         ids=["scenario", "spec"])
def test_cli_klagenfurt_only_studies_reject_a_world(capsys, command,
                                                     option):
    # These what-ifs name Klagenfurt's nodes and factory flags; another
    # world must be an error, not silently ignored.
    assert main([command] + option) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {command} studies Klagenfurt only; "
                            f"it takes no --scenario or --spec\n")


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_sweep_remote_reports_an_unreachable_server(monkeypatch,
                                                        capsys):
    from repro.fleet import executors

    # One attempt, so the test does not wait out the backoff.
    monkeypatch.setattr(executors, "REMOTE_RETRY", {"max_attempts": 1})
    assert main(["sweep", "--backend", "remote", "--density", "2",
                 "--server", "http://127.0.0.1:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "127.0.0.1:1" in err


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_cli_serve_rejects_a_port_out_of_range(tmp_path, capsys, port):
    assert main(["serve", "--root", str(tmp_path / "svc"),
                 "--port", port]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --port must be in 0..65535, "
                            f"got {port}\n")
