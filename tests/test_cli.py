"""Tests for the datagridflow CLI."""

import pytest

from repro.cli import main
from repro.dgl import (
    DataGridRequest,
    FlowStatusQuery,
    flow_builder,
    flow_to_moml,
    request_to_xml,
)


@pytest.fixture
def document(tmp_path):
    flow = (flow_builder("job")
            .step("a", "dgl.sleep", duration=1)
            .step("b", "srb.replicate", path="/x", resource="tape")
            .build())
    request = DataGridRequest(user="alice@sdsc",
                              virtual_organization="vo", body=flow)
    path = tmp_path / "request.xml"
    path.write_text(request_to_xml(request))
    return str(path)


def test_validate_ok(document, capsys):
    assert main(["validate", document]) == 0
    out = capsys.readouterr().out
    assert "OK: flow 'job' with 2 steps" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<dataGridRequest><gridUser>u</gridUser>"
                   "</dataGridRequest>")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.xml"]) == 2


def test_render(document, capsys):
    assert main(["render", document]) == 0
    out = capsys.readouterr().out
    assert "[flow] job (sequential)" in out
    assert "[step] b: srb.replicate" in out


def test_render_refuses_status_query(tmp_path, capsys):
    request = DataGridRequest(user="u@d", virtual_organization="",
                              body=FlowStatusQuery(request_id="r-1"))
    path = tmp_path / "query.xml"
    path.write_text(request_to_xml(request))
    assert main(["render", str(path)]) == 1


def test_structure(capsys):
    assert main(["structure", "Flow"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Flow")
    assert "children: Flow | Step*" in out
    assert main(["structure", "Nonsense"]) == 1


def test_moml_round_trip_via_cli(tmp_path, capsys):
    flow = flow_builder("ide-flow").step("s", "dgl.noop").build()
    moml_path = tmp_path / "model.moml"
    moml_path.write_text(flow_to_moml(flow))
    dgl_path = tmp_path / "out.xml"
    assert main(["moml2dgl", str(moml_path), "--user", "alice@sdsc",
                 "-o", str(dgl_path)]) == 0
    assert main(["validate", str(dgl_path)]) == 0
    back_path = tmp_path / "back.moml"
    assert main(["dgl2moml", str(dgl_path), "-o", str(back_path)]) == 0
    assert "datagridflow.Step" in back_path.read_text()


def test_demo_library(capsys):
    assert main(["demo", "library", "--files", "2"]) == 0
    out = capsys.readouterr().out
    assert "scenario 'library': completed" in out
    assert "provenance records" in out


def test_demo_bbsrc(capsys):
    assert main(["demo", "bbsrc", "--files", "2"]) == 0
    assert "completed" in capsys.readouterr().out


def test_demo_cms(capsys):
    assert main(["demo", "cms", "--files", "2"]) == 0
    assert "completed" in capsys.readouterr().out


# -- chaos and gateway sweeps ------------------------------------------------


def test_cli_chaos_grid_smoke(capsys, tmp_path):
    import json

    from repro.workloads import run_chaos_sweep, sweep_fingerprint

    out_path = tmp_path / "chaos.json"
    assert main(["chaos", "--seeds", "0,1", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "restarts" in out and "invariants" in out
    fingerprint = sweep_fingerprint(run_chaos_sweep(seeds=[0, 1]))
    assert f"2 grid seed(s); 0 invariant failure(s); " \
           f"fingerprint {fingerprint[:12]}" in out
    payload = json.loads(out_path.read_text())
    assert payload["scenario"] == "grid"
    assert payload["fingerprint_sha256"] == fingerprint
    assert [r["seed"] for r in payload["reports"]] == [0, 1]
    assert all(r["ok"] and r["executions"] for r in payload["reports"])


def test_cli_chaos_seed_count_form(capsys):
    assert main(["chaos", "--seeds", "3", "--no-faults"]) == 0
    out = capsys.readouterr().out
    assert "3 grid seed(s); 0 invariant failure(s)" in out


def test_cli_chaos_federation_text_and_json(capsys):
    import json

    assert main(["chaos", "--scenario", "federation", "--seeds", "1",
                 "--zones", "2", "--json", "-"]) == 0
    out = capsys.readouterr().out
    table, _, document = out.partition("\n{")
    assert "copies" in table and "stale" in table and "wrong" in table
    assert "1 federation seed(s); 0 invariant failure(s)" in table
    payload = json.loads("{" + document)
    assert payload["scenario"] == "federation"
    assert payload["n_zones"] == 2
    [report] = payload["reports"]
    assert report["ok"] and report["wrong_answers"] == 0
    assert report["copies_attempted"] == (report["copies_completed"]
                                          + report["copies_failed"])


def test_cli_chaos_grid_rejects_federation_options(capsys):
    assert main(["chaos", "--zones", "4", "--seeds", "1"]) == 2
    assert "federation only" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["chaos", "--scenario", "federation", "--zones", "1"], "--zones"),
    (["gateway", "--workers", "0"], "--workers"),
    (["gateway", "--queue-limit", "0"], "--queue-limit"),
])
def test_cli_rejects_bad_sizes_with_exit_2(argv, option, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {option}: must be at least" in capsys.readouterr().err


def test_cli_gateway_smoke(capsys):
    import json

    assert main(["gateway", "--loads", "1,2", "--horizon", "10",
                 "--json", "-"]) == 0
    out = capsys.readouterr().out
    table, _, document = out.partition("\n{")
    assert table.splitlines()[0].split()[:2] == ["offered/s", "goodput/s"]
    payload = json.loads("{" + document)
    assert [point["arrival_rate"] for point in payload["points"]] == [1, 2]
