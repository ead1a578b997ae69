"""The ``python -m repro.obs`` command-line interface."""

import hashlib
import json
import re

import pytest

from repro.obs.__main__ import MODELS, main
from repro.obs.ctf import validate_ctf


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_export_ctf_default_name(tmp_path, capsys):
    assert main(["export", "--ctf"]) == 0
    out = capsys.readouterr().out
    assert "fig3_arch.ctf.json" in out
    document = json.loads((tmp_path / "fig3_arch.ctf.json").read_text())
    assert validate_ctf(document) > 0


def test_export_all_outputs(tmp_path, capsys):
    code = main([
        "export", "--model", "fig3-spec", "--ctf", "out.ctf.json",
        "--vcd", "out.vcd", "--jsonl", "out.jsonl", "--gantt",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("out.ctf.json", "out.vcd", "out.jsonl"):
        assert (tmp_path / name).exists(), name
    assert "B2" in out  # gantt rows
    assert "|" in out


@pytest.mark.parametrize("model", MODELS)
def test_export_input_roundtrip(tmp_path, capsys, model):
    assert main(["export", "--model", model, "--jsonl", "t.jsonl",
                 "--ctf", "a.json"]) == 0
    assert main(["export", "--input", "t.jsonl", "--ctf", "b.json"]) == 0
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())
    assert a == b


#: sha256 of each bundled model's ``export --jsonl`` file: pins the
#: record stream and its JSONL encoding byte for byte
JSONL_SHA256 = {
    "fig3-arch":
        "072bfcba4109237a98a4a3c37724b67731c707d979dfc64e3525da740f421023",
    "fig3-spec":
        "a79740b95eee5773255fe625b053608a4eb452bb579be2fbb622f5333b44e12c",
    "pi-demo":
        "9d791d6318ab6e29be909d89e052c63be5923b2f610a878b48ae95671919d7a6",
    "pi-demo-pip":
        "3d9cba446294515cb29a6ed0cccf9565fd379f9f82ece9297d77622c6b67098c",
    "fault-demo":
        "e5de18ecd2f4caab7297dbc44117d3ec51d5e2b717f12c1eabdf81a5cec86607",
    "mc-demo":
        "0c547543a41f0cda5baec3d69a6e0131084ff5daebce33e468585e037122e624",
}


@pytest.mark.parametrize("model", MODELS)
def test_export_jsonl_bytes_pinned(tmp_path, capsys, model):
    assert main(["export", "--model", model, "--jsonl", "t.jsonl"]) == 0
    data = (tmp_path / "t.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == JSONL_SHA256[model]


def test_export_input_default_ctf_name(tmp_path, capsys):
    main(["export", "--model", "fig3-spec", "--jsonl", "t.jsonl"])
    assert main(["export", "--input", "t.jsonl", "--ctf"]) == 0
    assert (tmp_path / "t.jsonl.ctf.json").exists()


def test_export_without_outputs_prints_summary(capsys):
    assert main(["export", "--model", "fig3-spec"]) == 0
    out = capsys.readouterr().out
    assert "trace records" in out


def test_export_input_jsonl_conflict(capsys):
    assert main(["export", "--input", "x.jsonl", "--jsonl", "y.jsonl"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_export_missing_input_exits_2(capsys):
    assert main(["export", "--input", "nope.jsonl", "--ctf", "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trace nope.jsonl")


def test_export_corrupt_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    assert main(["export", "--input", str(bad), "--ctf", "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt JSONL trace {bad}")
    assert not (tmp_path / "x.json").exists()


def test_stats_prints_json(capsys):
    assert main(["stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "fig3-arch"
    assert payload["end_time"] > 0
    assert payload["trace_records"] > 0
    assert any(k.endswith(".ready_depth") for k in payload["metrics"])
    assert any(k.startswith("chan.") for k in payload["metrics"])
    rtos = payload["rtos"]
    assert rtos["context_switches"] > 0
    assert 0 <= rtos["overhead_ratio"] <= 1
    assert rtos["sim_time"] == payload["end_time"]


def test_stats_spec_model_has_no_rtos_block(capsys):
    assert main(["stats", "--model", "fig3-spec"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rtos" not in payload
    assert any(k.startswith("chan.") for k in payload["metrics"])


_PROFILE_ROW = re.compile(r"^ *[\d,]+ +\d+\.\d{6} +\d+\.\d{6}  \S")


@pytest.mark.parametrize("model", MODELS)
def test_profile_prints_top_functions(model, capsys):
    assert main(["profile", "--model", model, "--limit", "5"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if _PROFILE_ROW.match(line)]
    assert len(rows) == 5
    # the self-time ranking of a millisecond run is noisy, so the names
    # are checked on the full listing
    assert main(["profile", "--model", model, "--limit", "100000"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"repro/kernel/simulator\.py:\d+\(_step\)", out)
    if model != "fig3-spec":
        assert "repro/rtos/" in out
