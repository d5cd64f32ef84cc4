"""Batch front end: dataset generation, training, certification, attacks,
and the verification suite, driven by a strict JSON config.

    wasslip <gen-data|train|certify|attack|verify> --config cfg.json [--out DIR] [--seed N]

Exit codes: 0 success/verified, 1 verification failure, 2 usage, config,
input-file or report-write error, 3 numerical failure.  Reports are byte-identical across reruns with
the same seed; wall-clock and other volatile facts go to metadata.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from wasslip import io
from wasslip.adversarial import AttackConfig, BallSpec, adversarial_risk, restart_draws
from wasslip.datasets import GENERATORS, dataset_fingerprint, gen_data, grid_side, load_dataset_csv, save_dataset_csv
from wasslip.measures import MetricSpec, TransportInfeasibleError, empirical_from_samples
from wasslip.models import (
    ActivationTag,
    MLP,
    accuracy,
    load_model,
    save_model,
)
from wasslip.numerics import NormTag, NumericalError, UnsupportedNormError, row_norms
from wasslip.robust import RobustInstance, certificate_table, certify_on_table, grid_targets, robust_certificate_for
from wasslip.seeding import derive_rng, derive_seed
from wasslip.suite import run_verification_suite, seeded_mlp
from wasslip.train import EpochRecord, ObjectiveKind, TrainConfig, train_loop


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config validation: every key is checked, unknown keys are rejected


def _fail(path: str, msg: str):
    raise ConfigError(f"config error at {path}: {msg}")


def _check_keys(obj: dict, path: str, allowed: set):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _get_int(obj: dict, path: str, key: str, default=None, lo=None, hi=None, required=False):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "required key missing")
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo}")
    if hi is not None and v > hi:
        _fail(f"{path}.{key}", f"must be <= {hi}")
    return v


def _get_float(obj: dict, path: str, key: str, default=None, lo=None, required=False, allow_inf=False):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "required key missing")
        return default
    v = obj[key]
    if allow_inf and v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    v = float(v)
    if math.isnan(v) or (not allow_inf and math.isinf(v)):
        _fail(f"{path}.{key}", "must be finite")
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo}")
    return v


def _get_str(obj: dict, path: str, key: str, default=None, choices=None, required=False):
    if key not in obj:
        if required:
            _fail(f"{path}.{key}", "required key missing")
        return default
    v = obj[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        _fail(f"{path}.{key}", f"must be one of {sorted(choices)}")
    return v


def _get_bool(obj: dict, path: str, key: str, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, bool):
        _fail(f"{path}.{key}", f"expected a boolean, got {v!r}")
    return v


def _get_kappa(obj: dict, path: str) -> float:
    kappa = _get_float(obj, path, "kappa", default=math.inf, allow_inf=True)
    if not kappa > 0.0:
        _fail(f"{path}.kappa", "must be positive (or \"inf\")")
    return kappa


_NORM_CHOICES = {t.value for t in NormTag}
# the envelope grid needs 2 points per axis to reach beyond its centre
_VERIFY_MINIMUMS = {
    "strong_duality_instances": 1,
    "envelope_points_per_dim": 2,
    "pushforward_triples": 1,
    "pushforward_cases": 1,
    "adversarial_tuples": 1,
    "chain_nets": 1,
}


def validate_config(raw: dict) -> dict:
    _check_keys(raw, "config", {"seed", "output_dir", "dataset", "model", "robust", "attack", "train", "verify"})
    cfg = {"seed": _get_int(raw, "config", "seed", required=True, lo=0)}
    if "output_dir" in raw:
        cfg["output_dir"] = _get_str(raw, "config", "output_dir", required=True)

    if "dataset" in raw:
        d = raw["dataset"]
        _check_keys(d, "dataset", {"path", "generator", "n", "k", "dim", "seed", "noise", "std", "lo", "hi"})
        if "path" in d:
            out = {"path": _get_str(d, "dataset", "path", required=True)}
            if len(d) > 1:
                _fail("dataset", "'path' cannot be combined with generator parameters")
        else:
            out = {
                "generator": _get_str(d, "dataset", "generator", choices=set(GENERATORS), required=True),
                "n": _get_int(d, "dataset", "n", required=True, lo=2),
                "k": _get_int(d, "dataset", "k", required=True, lo=2),
                "dim": _get_int(d, "dataset", "dim", required=True, lo=1),
                "seed": _get_int(d, "dataset", "seed", default=None, lo=0),
                "noise": _get_float(d, "dataset", "noise", default=0.15, lo=0.0),
                "std": _get_float(d, "dataset", "std", default=0.6, lo=0.0),
                "lo": _get_float(d, "dataset", "lo", default=-1.0),
                "hi": _get_float(d, "dataset", "hi", default=1.0),
            }
        cfg["dataset"] = out

    if "model" in raw:
        m = raw["model"]
        _check_keys(m, "model", {"path", "dims", "activation", "bias", "init_scale", "norm", "seed"})
        if "path" in m:
            out = {"path": _get_str(m, "model", "path", required=True)}
            if len(m) > 1:
                _fail("model", "'path' cannot be combined with architecture parameters")
        else:
            dims = m.get("dims")
            if not isinstance(dims, list) or len(dims) < 2 or not all(isinstance(v, int) and v >= 1 for v in dims):
                _fail("model.dims", "expected a list of >= 2 positive integers")
            out = {
                "dims": dims,
                "activation": _get_str(m, "model", "activation", default="RELU", choices={t.value for t in ActivationTag}),
                "bias": _get_bool(m, "model", "bias", default=True),
                "init_scale": _get_float(m, "model", "init_scale", default=1.0, lo=0.0),
                "norm": _get_str(m, "model", "norm", default="L2", choices=_NORM_CHOICES),
                "seed": _get_int(m, "model", "seed", default=None, lo=0),
            }
        cfg["model"] = out

    if "robust" in raw:
        r = raw["robust"]
        _check_keys(r, "robust", {"rho", "kappa", "oracle_grid_side"})
        cfg["robust"] = {
            "rho": _get_float(r, "robust", "rho", required=True, lo=0.0),
            "kappa": _get_kappa(r, "robust"),
            "oracle_grid_side": _get_int(r, "robust", "oracle_grid_side", default=None, lo=2),
        }

    if "attack" in raw:
        a = raw["attack"]
        _check_keys(a, "attack", {"epsilons", "norm", "method", "steps", "step_size", "restarts", "grid_points", "kappa"})
        eps = a.get("epsilons")
        if not isinstance(eps, list) or not eps or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v < math.inf for v in eps):
            _fail("attack.epsilons", "expected a non-empty list of finite numbers >= 0")
        cfg["attack"] = {
            "epsilons": [float(v) for v in eps],
            "norm": _get_str(a, "attack", "norm", default="LINF", choices=_NORM_CHOICES),
            "method": _get_str(a, "attack", "method", default="PGD", choices={"PGD", "FGSM", "GRID"}),
            "steps": _get_int(a, "attack", "steps", default=40, lo=1),
            "step_size": _get_float(a, "attack", "step_size", default=None, lo=1e-12),
            "restarts": _get_int(a, "attack", "restarts", default=3, lo=0),
            "grid_points": _get_int(a, "attack", "grid_points", default=41, lo=3),
            "kappa": _get_kappa(a, "attack"),
        }

    if "train" in raw:
        t = raw["train"]
        _check_keys(t, "train", {"objective", "rho", "kappa", "learning_rate", "epochs", "batch_size", "momentum", "layer_cap", "norm"})
        cfg["train"] = {
            "objective": _get_str(t, "train", "objective", required=True, choices={o.value for o in ObjectiveKind}),
            "rho": _get_float(t, "train", "rho", required=True, lo=0.0),
            "kappa": _get_kappa(t, "train"),
            "learning_rate": _get_float(t, "train", "learning_rate", default=0.1, lo=1e-12),
            "epochs": _get_int(t, "train", "epochs", default=100, lo=0),
            "batch_size": _get_int(t, "train", "batch_size", default=None, lo=1),
            "momentum": _get_float(t, "train", "momentum", default=0.0, lo=0.0),
            "layer_cap": _get_float(t, "train", "layer_cap", default=None, lo=1e-12),
            "norm": _get_str(t, "train", "norm", default="L2", choices=_NORM_CHOICES),
        }
        if cfg["train"]["rho"] > 0.0 and cfg["train"]["norm"] != "L2":
            _fail("train.norm", "the penalties need L2 when rho > 0")

    if "verify" in raw:
        v = raw["verify"]
        _check_keys(v, "verify", set(_VERIFY_MINIMUMS))
        cfg["verify"] = {key: _get_int(v, "verify", key, lo=lo) for key, lo in _VERIFY_MINIMUMS.items() if key in v}

    return cfg


# ---------------------------------------------------------------------------
# shared builders


def _load_points(cfg: dict, master_seed: int):
    """The command's points and the `dataset_sha256` of their CSV text."""
    section = cfg.get("dataset")
    if section is None:
        raise ConfigError("config error at dataset: section required for this command")
    if "path" in section:
        return load_dataset_csv(section["path"])
    points = _generate_points(section, master_seed)
    return points, dataset_fingerprint(points)


_GENERATOR_PARAMS = {"gaussian-blobs": ("std",), "two-moons": ("noise",), "grid": ("lo", "hi")}


def _generate_points(section: dict, master_seed: int):
    generator, n, k, dim = section["generator"], section["n"], section["k"], section["dim"]
    if n < k:
        _fail("dataset.n", f"must be >= dataset.k ({k})")
    if generator == "two-moons" and dim != 2:
        _fail("dataset.dim", "two-moons needs dim 2")
    if generator == "two-moons" and k != 2:
        _fail("dataset.k", "two-moons needs k 2")
    if generator == "grid" and grid_side(n, dim) is None:
        _fail("dataset.n", f"grid needs n = side**{dim} for an integer side, got {n}")
    params = {key: section[key] for key in _GENERATOR_PARAMS[generator]}
    seed = section["seed"] if section["seed"] is not None else derive_seed(master_seed, "dataset")
    return gen_data(generator, n, k, dim, 0 if generator == "grid" else seed, **params)


def _check_model_shape(key: str, input_dim: int, label_count: int, points) -> None:
    if input_dim != points.dim:
        raise ConfigError(f"config error at {key}: input dimension {input_dim} must equal the data dimension {points.dim}")
    if label_count != points.label_count:
        raise ConfigError(f"config error at {key}: label count {label_count} must equal the data's label count {points.label_count}")


def _build_model(cfg: dict, master_seed: int, points) -> tuple[MLP, NormTag]:
    section = cfg.get("model")
    if section is None:
        raise ConfigError("config error at model: section required for this command")
    if "path" in section:
        model, norm_tag = load_model(section["path"])
        _check_model_shape("model.path", model.input_dim, model.label_count, points)
        return model, norm_tag
    dims = section["dims"]
    _check_model_shape("model.dims", dims[0], dims[-1], points)
    seed = section["seed"] if section["seed"] is not None else derive_seed(master_seed, "model-init")
    rng = derive_rng(seed, "model-init")
    model = seeded_mlp(rng, dims, ActivationTag(section["activation"]), section["init_scale"], section["bias"])
    return model, NormTag(section["norm"])


def _fingerprint(cfg: dict, dataset_sha256: str, rho: float, kappa: float, norm_tag: NormTag) -> dict:
    # every certificate uses the certified loss constant; the key stays so
    # reports keep their layout
    return {
        "dataset_sha256": dataset_sha256,
        "seed": cfg["seed"],
        "rho": rho,
        "kappa": "inf" if math.isinf(kappa) else kappa,
        "norm": norm_tag.value,
        "bound_mode": "certified",
    }


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(cfg: dict, out_dir: Path) -> int:
    section = cfg.get("dataset")
    if section is None or "generator" not in section:
        raise ConfigError("config error at dataset.generator: gen-data needs a generator spec")
    points = _generate_points(section, cfg["seed"])
    save_dataset_csv(points, out_dir / "dataset.csv")
    return 0


def cmd_certify(cfg: dict, out_dir: Path) -> int:
    section = cfg.get("robust")
    if section is None:
        raise ConfigError("config error at robust: section required for certify")
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    model, norm_tag = _build_model(cfg, cfg["seed"], points)
    metric = MetricSpec(norm_tag, section["kappa"], points.label_count)
    instance = RobustInstance(empirical_from_samples(points), metric, section["rho"])
    if section["oracle_grid_side"] is not None:
        instance = RobustInstance(
            instance.empirical, metric, section["rho"], grid_targets(instance, section["oracle_grid_side"], pad=0.1)
        )
    cert = robust_certificate_for(model, instance)
    doc = cert.to_json_dict(_fingerprint(cfg, dataset_sha256, section["rho"], section["kappa"], norm_tag))
    io.dump_json(doc, out_dir / "certificate.json")
    failing = [name for name, ok in cert.verdicts if not ok]
    if failing:
        print(f"certificate verdicts FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_attack(cfg: dict, out_dir: Path) -> int:
    section = cfg.get("attack")
    if section is None:
        raise ConfigError("config error at attack: section required for attack")
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    if section["method"] == "GRID" and points.dim > 2:
        raise ConfigError(f"config error at attack.method: GRID needs data of dimension 1 or 2, got {points.dim}")
    model, _ = _build_model(cfg, cfg["seed"], points)
    norm_tag = NormTag(section["norm"])
    mu = empirical_from_samples(points)
    metric = MetricSpec(norm_tag, section["kappa"], points.label_count)
    attack_cfg = AttackConfig(
        method=section["method"],
        steps=section["steps"],
        step_size=section["step_size"],
        restarts=section["restarts"],
        seed=derive_seed(cfg["seed"], "attack"),
        grid_points=section["grid_points"],
    )

    # what does not depend on the radius is computed once: the restart
    # variates and the certificate's loss table and lambda floor
    draws = None
    if attack_cfg.method == "PGD":
        draws = restart_draws(attack_cfg.seed, len(mu), points.dim, norm_tag, attack_cfg.restarts)
    shared = certificate_table(model, mu, norm_tag)

    rows = []
    sweeps = []
    prev = None  # the last radius and its perturbations: the next radius's warm starts
    for eps in sorted(section["epsilons"]):
        ball = BallSpec(norm_tag, eps)
        starts = []
        if prev is not None and prev[0] > 0:
            starts = [prev[1], prev[1] * (eps / prev[0])]
        result = adversarial_risk(model, mu, ball, attack_cfg, warm_starts=starts, draws=draws)
        prev = (eps, result.perturbations)
        cert = certify_on_table(RobustInstance(mu, metric, eps), shared)
        rows.append([eps, result.adversarial_risk, cert.robust_value])
        sweeps.append(
            {
                "epsilon": eps,
                "adversarial_risk": result.adversarial_risk,
                "robust_value": cert.robust_value,
                "bound_holds": result.adversarial_risk <= cert.robust_value + 1e-8,
                "per_sample_losses": [float(v) for v in result.losses],
                "per_sample_norms": row_norms(result.perturbations, norm_tag).tolist(),
            }
        )
    doc = {
        "method": section["method"],
        "norm": norm_tag.value,
        "kappa": "inf" if math.isinf(section["kappa"]) else section["kappa"],
        "seed": attack_cfg.seed,
        "sweep": sweeps,
        "fingerprint": _fingerprint(cfg, dataset_sha256, max(section["epsilons"]), section["kappa"], norm_tag),
    }
    io.dump_json(doc, out_dir / "attack_report.json")
    io.write_csv(out_dir / "bound_curve.csv", ["epsilon", "adversarial_risk", "robust_value"], rows)
    return 0


def cmd_train(cfg: dict, out_dir: Path) -> int:
    section = cfg.get("train")
    if section is None:
        raise ConfigError("config error at train: section required for train")
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    model, norm_tag = _build_model(cfg, cfg["seed"], points)
    train_cfg = TrainConfig(
        objective=ObjectiveKind(section["objective"]),
        rho=section["rho"],
        kappa=section["kappa"],
        learning_rate=section["learning_rate"],
        epochs=section["epochs"],
        batch_size=section["batch_size"],
        seed=derive_seed(cfg["seed"], "train"),
        momentum=section["momentum"],
        layer_cap=section["layer_cap"],
        norm=NormTag(section["norm"]),
    )
    report = train_loop(model, points, train_cfg)
    doc = report.to_json_dict()
    doc["final_accuracy"] = accuracy(report.model, points)
    doc["fingerprint"] = _fingerprint(cfg, dataset_sha256, section["rho"], section["kappa"], norm_tag)
    io.dump_json(doc, out_dir / "train_report.json")
    io.write_csv(out_dir / "train_curves.csv", EpochRecord._fields, report.records)
    save_model(report.model, out_dir / "model.txt", train_cfg.norm)
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    sizes = cfg.get("verify", {})
    records = run_verification_suite(cfg["seed"], sizes)
    doc = {
        "seed": cfg["seed"],
        "all_passed": all(r.passed for r in records),
        "checks": [r.to_json_dict() for r in records],
    }
    io.dump_json(doc, out_dir / "verify_report.json")
    if not doc["all_passed"]:
        failing = [r.name for r in records if not r.passed]
        print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "certify": cmd_certify,
    "attack": cmd_attack,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wasslip", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: config output_dir or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"config file not found: {args.config}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"config file cannot be read: {args.config} ({exc.strerror})", file=sys.stderr)
            return 2
        except UnicodeDecodeError as exc:
            print(f"config file is not UTF-8 text: {args.config} ({exc.reason} at byte {exc.start})", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        cfg = validate_config(raw)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out or cfg.get("output_dir", "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            source = "--out" if args.out else "config output_dir"
            print(f"{source} cannot be used as the output directory: {out_dir} ({exc.strerror})", file=sys.stderr)
            return 2
        # an overflow surfaces as a NumericalError (exit 3), not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = _COMMANDS[args.command](cfg, out_dir)
        io.dump_json(
            {"command": args.command, "config": str(args.config), "wall_clock_seconds": time.perf_counter() - t0},
            out_dir / "metadata.json",
        )
        return code
    except (ConfigError, io.InputFileError, io.ReportWriteError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (NumericalError, TransportInfeasibleError, UnsupportedNormError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
