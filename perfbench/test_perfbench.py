"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["certify-scale", "train-attack", "lp-oracle"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5"]
    argv += ["--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: item["unit"] for name, item in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(item["value"] > 0 for item in result["metrics"].values())


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(m, u) for m, u, _, _ in tracer.LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)


def _flip_verdict(verb, out_dir, call):
    if verb == "certify":
        path = out_dir / "certificate.json"
        path.write_text(path.read_text().replace('"passed": true', '"passed": false', 1))


def _lower_last_risk(verb, out_dir, call):
    if verb == "attack":
        path = out_dir / "attack_report.json"
        doc = json.loads(path.read_text())
        doc["sweep"][-1]["adversarial_risk"] = -1.0
        path.write_text(json.dumps(doc))


def _fail_verify(verb, out_dir, call):
    if verb == "verify":
        path = out_dir / "verify_report.json"
        path.write_text(path.read_text().replace('"all_passed": true', '"all_passed": false'))


def _change_one_byte_later(verb, out_dir, call):
    if verb == "train" and call > 2:  # warm-up and first timed pass stay intact
        path = out_dir / "train_curves.csv"
        path.write_bytes(path.read_bytes() + b"\n")


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("certify-scale", _flip_verdict),
        ("train-attack", _lower_last_risk),
        ("lp-oracle", _fail_verify),
        ("train-attack", _change_one_byte_later),
    ],
)
def test_corrupted_report_counts_as_failed(monkeypatch, capsys, workload, corrupt):
    real_import = run._import_wasslip

    class CorruptingCli:
        def __init__(self, cli):
            self.cli = cli
            self.calls = {}

        def main(self, argv):
            code = self.cli.main(argv)
            if argv[0] != "gen-data":
                self.calls[argv[0]] = self.calls.get(argv[0], 0) + 1
                corrupt(argv[0], Path(argv[argv.index("--out") + 1]), self.calls[argv[0]])
            return code

    monkeypatch.setattr(run, "_import_wasslip", lambda: CorruptingCli(real_import()))
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2", "--scale", "tiny"])
    result = _result(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_reference_mismatch_is_a_reason():
    assert checks.reference_reasons({"robust_value": 1.0}, {"robust_value": 1.0 + 1e-9}) == []
    assert checks.reference_reasons({"robust_value": 1.0}, {"robust_value": 1.001})
    assert checks.reference_reasons({}, {"oracle_value": 0.5})


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "lp-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
