"""Output checks.  A command counts as failed when any check below reports a
reason; the failed commands over the commands attempted is the run's
failure ratio.

- the command exits with a nonzero code (or raises);
- a certificate verdict is false, or `robust_value` < `empirical_risk`;
- with the LP oracle, `oracle_gap` is missing or below -ORACLE_GAP_TOL;
- an attack `bound_holds` is false, or `adversarial_risk` falls as eps grows;
- `verify` reports `all_passed` false, or `train` reports `diverged`;
- a report differs by one byte from the same command's report in an
  earlier pass of the same seed;
- a certified value of `certify` or `train` is off the seed commit's value
  (reference.json, for the seeds it covers) by more than REFERENCE_RTOL
  relative.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ORACLE_GAP_TOL = 1e-9
# Certified values may move in their last bits when a later change reorders
# floating-point sums; anything beyond this relative distance is a different
# certificate.
REFERENCE_RTOL = 1e-6

REPORTS = {
    "certify": ("certificate.json",),
    "train": ("train_report.json", "train_curves.csv", "model.txt"),
    "attack": ("attack_report.json", "bound_curve.csv"),
    "verify": ("verify_report.json",),
}


def _load(out_dir: Path, name: str):
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _certificate_reasons(doc: dict, where: str) -> list:
    reasons = [f"{where}: verdict {v['check']} is false" for v in doc["verdicts"] if not v["passed"]]
    if doc["robust_value"] < doc["empirical_risk"]:
        reasons.append(f"{where}: robust_value {doc['robust_value']} < empirical_risk {doc['empirical_risk']}")
    return reasons


def _check_certify(out_dir: Path, config: dict) -> list:
    doc = _load(out_dir, "certificate.json")
    reasons = _certificate_reasons(doc, "certificate")
    if config["robust"].get("oracle_grid_side") is not None:
        gap = doc.get("oracle_gap")
        if gap is None or gap < -ORACLE_GAP_TOL:
            reasons.append(f"certificate: oracle_gap {gap} below -{ORACLE_GAP_TOL}")
    return reasons


def _check_train(out_dir: Path, config: dict) -> list:
    doc = _load(out_dir, "train_report.json")
    if doc["diverged"]:
        return ["train_report: diverged"]
    return _certificate_reasons(doc["certificate"], "train_report.certificate")


def _check_attack(out_dir: Path, config: dict) -> list:
    sweep = sorted(_load(out_dir, "attack_report.json")["sweep"], key=lambda s: s["epsilon"])
    reasons = [f"attack: bound fails at eps {s['epsilon']}" for s in sweep if not s["bound_holds"]]
    for lo, hi in zip(sweep, sweep[1:]):
        if hi["adversarial_risk"] < lo["adversarial_risk"]:
            reasons.append(f"attack: adversarial_risk falls from eps {lo['epsilon']} to {hi['epsilon']}")
    return reasons


def _check_verify(out_dir: Path, config: dict) -> list:
    doc = _load(out_dir, "verify_report.json")
    if doc["all_passed"]:
        return []
    return [f"verify: check {c['name']} failed" for c in doc["checks"] if not c["passed"]] or ["verify: all_passed false"]


_CHECKS = {"certify": _check_certify, "train": _check_train, "attack": _check_attack, "verify": _check_verify}


def check_outputs(verb: str, out_dir: Path, config: dict) -> list:
    """Reasons the reports of one successful command are wrong (empty if none)."""
    try:
        return _CHECKS[verb](out_dir, config)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{verb}: unreadable report ({type(exc).__name__}: {exc})"]


def report_digests(verb: str, out_dir: Path) -> dict:
    """SHA-256 of every byte-stable report (metadata.json is volatile)."""
    digests = {}
    for name in REPORTS[verb]:
        path = out_dir / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digests


def certified_values(verb: str, out_dir: Path) -> dict:
    """The certified numbers a command reports, keyed by a stable name."""
    if verb == "certify":
        doc = _load(out_dir, "certificate.json")
        values = {"robust_value": doc["robust_value"]}
        if doc.get("oracle_value") is not None:
            values["oracle_value"] = doc["oracle_value"]
        return values
    if verb == "train":
        return {"robust_value": _load(out_dir, "train_report.json")["certificate"]["robust_value"]}
    raise ValueError(f"{verb} has no reference values")


def reference_reasons(values: dict, reference: dict) -> list:
    reasons = []
    for name, ref in reference.items():
        got = values.get(name)
        if got is None or not math.isclose(got, ref, rel_tol=REFERENCE_RTOL, abs_tol=1e-12):
            reasons.append(f"{name} = {got} is off the reference {ref!r} by more than {REFERENCE_RTOL} relative")
    return reasons
