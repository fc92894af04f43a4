"""The command-line interface (fast paths only)."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def exported_day(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "day"
    code = main([
        "run-day", "--profile", "tiny", "--seed", "5",
        "--duration", "120", "--attack", "dns-amp",
        "--out", str(out),
    ])
    assert code == 0
    return out


def test_ingest_streams_flushes_and_reopens(tmp_path, capsys):
    spill = tmp_path / "tiers"
    code = main([
        "ingest", "--profile", "tiny", "--seed", "3",
        "--duration", "60", "--attack", "scan",
        "--spill", str(spill), "--memtable", "1024", "--flush-cold",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cold" in out and "refused by the ingest queue" in out
    assert (spill / "registry.json").exists()

    # reopen from disk: checksums verified, records all in cold
    assert main(["ingest", "--spill", str(spill),
                 "--summary-only", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["hot"]["records"] == 0
    assert summary["warm"]["records"] == 0
    assert summary["cold"]["records"] > 100
    assert summary["compaction_debt"] == 0


def test_ingest_sharded_spill_reopens_every_shard(tmp_path, capsys):
    spill = tmp_path / "tiers"
    assert main([
        "ingest", "--profile", "tiny", "--seed", "3", "--duration", "60",
        "--attack", "scan", "--shards", "2", "--spill", str(spill),
        "--memtable", "1024", "--flush-cold", "--json",
    ]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cold"]["records"] > 100

    # the reopen finds both shard directories and verifies them
    assert main(["ingest", "--summary-only", "--spill", str(spill),
                 "--json"]) == 0
    reopened = json.loads(capsys.readouterr().out)
    assert reopened["cold"]["records"] == first["cold"]["records"]
    assert reopened["hot"]["records"] == reopened["warm"]["records"] == 0
    segments = sorted(spill.rglob("seg-*"))
    assert segments
    assert all(segment.parent.name in ("shard-0", "shard-1")
               for segment in segments)


def _stored_labels(spill):
    from repro.datastore import Query
    from repro.datastore.tiers import TieredDataStore

    store = TieredDataStore(spill_dir=spill)
    return {s.rid: s.label for s in store.query(Query("packets"))}


def test_ingest_resumed_spill_keeps_earlier_cold_labels(tmp_path, capsys):
    # a second run over the same spill directory, with another attack
    # and seed, labels its own packets and leaves the first run's cold
    # rows as they were curated
    spill = tmp_path / "tiers"
    run = ["ingest", "--profile", "tiny", "--duration", "60",
           "--spill", str(spill), "--memtable", "1024", "--flush-cold"]
    assert main(run + ["--seed", "3", "--attack", "scan"]) == 0
    first = _stored_labels(spill)
    assert "port-scan" in first.values()
    assert main(run + ["--seed", "4", "--attack", "dns-amp"]) == 0
    capsys.readouterr()
    both = _stored_labels(spill)
    assert {rid: both[rid] for rid in first} == first
    later = {label for rid, label in both.items() if rid not in first}
    assert "ddos-dns-amp" in later and "port-scan" not in later


def test_ingest_summary_only_requires_spill(capsys):
    assert main(["ingest", "--summary-only"]) == 2
    assert "--spill" in capsys.readouterr().err


def test_simulate_json_counts_overlay_flows(capsys):
    code = main([
        "simulate", "--profile", "tiny", "--seed", "2",
        "--duration", "120", "--users", "20000", "--tap-sample", "0.01",
        "--attack", "dns-amp", "--json",
    ])
    assert code == 0
    run = json.loads(capsys.readouterr().out)
    assert run["overlay_flows"] > 0
    assert 0 < run["tap_flows"] <= run["border_flows"]
    assert run["tap_packets"] > 0
    assert run["events"] == ["ddos-dns-amp"]


def test_profiles_lists_known(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out and "research" in out


def test_run_day_exports(exported_day, capsys):
    assert (exported_day / "manifest.json").exists()
    assert (exported_day / "packets.rpcp").exists()
    manifest = json.loads((exported_day / "manifest.json").read_text())
    assert manifest["counts"]["packets"] > 100


def test_inspect(exported_day, capsys):
    assert main(["inspect", "--store", str(exported_day)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["packets"]["records"] > 100


def test_train_from_store(exported_day, capsys):
    code = main(["train", "--store", str(exported_day),
                 "--model", "tree", "--positive", "ddos-dns-amp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out


def test_develop_emits_artifacts(exported_day, tmp_path, capsys):
    out_dir = tmp_path / "tool"
    code = main(["develop", "--store", str(exported_day),
                 "--positive", "ddos-dns-amp", "--teacher", "tree",
                 "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "tool.p4").read_text().startswith("/*")
    assert "THEN" in (out_dir / "rules.txt").read_text()


def test_develop_unknown_class_fails(exported_day, tmp_path, capsys):
    code = main(["develop", "--store", str(exported_day),
                 "--positive", "martians", "--out", str(tmp_path / "x")])
    assert code == 1


def test_verify_lint_green(capsys):
    assert main(["verify", "--lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_verify_lint_json(capsys):
    assert main(["verify", "--lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["subject"].startswith("lint:")


def test_verify_lint_flags_bad_tree(tmp_path, capsys):
    bad = tmp_path / "netsim"
    bad.mkdir()
    (bad / "mod.py").write_text("import time\nt = time.time()\n")
    assert main(["verify", "--lint", "--path", str(tmp_path)]) == 1
    assert "REP304" in capsys.readouterr().out


def test_verify_compiled_store_reports_clean(exported_day, capsys):
    code = main(["verify", "--store", str(exported_day),
                 "--positive", "ddos-dns-amp"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_verify_requires_mode_arguments(capsys):
    assert main(["verify"]) == 2


def test_verify_lint_rejects_missing_path(tmp_path):
    assert main(["verify", "--lint",
                 "--path", str(tmp_path / "nope")]) == 2


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verify_lint_json_includes_flow_trace(tmp_path, capsys):
    bad = tmp_path / "capture"
    bad.mkdir()
    (bad / "tap.py").write_text(
        "def export(r, out):\n    out.write(r.src_ip)\n")
    assert main(["verify", "--lint", "--json",
                 "--path", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.diagnostics/v1"
    finding = payload["diagnostics"][0]
    assert finding["code"] == "REP401"
    assert finding["trace"], "REP401 must carry its source->sink flow"


def test_verify_update_baseline_requires_lint(capsys):
    assert main(["verify", "--update-baseline"]) == 2


def test_verify_update_baseline_writes_and_gates(tmp_path, capsys):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint]\nbaseline = \"baseline.json\"\n"
        "taint-exempt-scope = []\n")
    bad = tmp_path / "capture"
    bad.mkdir()
    (bad / "tap.py").write_text(
        "def export(r, out):\n    out.write(r.src_ip)\n")

    assert main(["verify", "--lint", "--path", str(tmp_path)]) == 1
    capsys.readouterr()
    assert main(["verify", "--lint", "--path", str(tmp_path),
                 "--update-baseline"]) == 0
    assert "baseline updated" in capsys.readouterr().out
    assert (tmp_path / "baseline.json").is_file()
    # the recorded finding no longer fails the gate
    assert main(["verify", "--lint", "--path", str(tmp_path)]) == 0
    assert "1 baselined" in capsys.readouterr().out
