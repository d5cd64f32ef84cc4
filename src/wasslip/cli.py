"""Batch front end: dataset generation, training, certification, attacks,
and the verification suite, driven by a strict JSON config.

    wasslip <gen-data|train|certify|attack|verify> --config cfg.json [--out DIR] [--seed N]

Exit codes: 0 success/verified, 1 verification failure, 2 usage, config,
input-file or report-write error, 3 numerical failure or out of memory.
Reports are byte-identical across reruns with the same seed; wall-clock and
other volatile facts go to metadata.json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from wasslip import io
from wasslip.adversarial import AttackConfig, attack_sweep
from wasslip.datasets import GENERATORS, dataset_fingerprint, gen_data, grid_side, load_dataset_csv, save_dataset_csv
from wasslip.measures import MetricSpec, TransportInfeasibleError, empirical_from_samples
from wasslip.models import MLP, ActivationTag, accuracy, load_model, save_model
from wasslip.numerics import NormTag, NumericalError, UnsupportedNormError, row_norms
from wasslip.robust import RobustInstance, certificate_table, certify_on_table, grid_targets, robust_certificate_for
from wasslip.seeding import derive_rng, derive_seed
from wasslip.suite import run_verification_suite, seeded_mlp
from wasslip.train import EpochRecord, ObjectiveKind, TrainConfig, train_loop


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


# ---------------------------------------------------------------------------
# config validation: every key is checked, unknown keys are rejected


_U64 = 2**64 - 1  # seeds are 64-bit
_I64 = 2**63 - 1  # sizes are numpy int64s


def _fail(path: str, msg: str):
    raise ConfigError(f"config error at {path}: {msg}")


def _dims(path: str, v) -> list:
    if not isinstance(v, list) or len(v) < 2 or not all(isinstance(d, int) and not isinstance(d, bool) and 1 <= d <= _I64 for d in v):
        _fail(path, f"expected a list of >= 2 integers from 1 to {_I64}")
    return v


def _epsilons(path: str, v) -> list:
    if not isinstance(v, list) or not v or not all(isinstance(e, (int, float)) and not isinstance(e, bool) and 0 <= e <= sys.float_info.max for e in v):
        _fail(path, "expected a non-empty list of finite numbers >= 0")
    return [float(e) for e in v]


class _Key(NamedTuple):
    """One config key.  `kind` is bool, int, float, str, "kappa" (a number
    > 0 or "inf") or a function that checks the value itself.  `default` is
    what an absent key reads as; None leaves the key out."""

    kind: object
    required: bool = False
    lo: float | None = None
    hi: int | None = None
    choices: tuple | None = None
    default: object = None


_NORMS = tuple(t.value for t in NormTag)
_KAPPA = _Key("kappa", default=math.inf)

# section -> key -> rule, in checking order; "config" is the top level.  A key
# the config leaves out (or sets to null) and that has no default here is left
# out, so the generator function, seeded_mlp, AttackConfig or TrainConfig
# default applies.
_SCHEMA = {
    "config": {
        "seed": _Key(int, required=True, lo=0, hi=_U64),
        "output_dir": _Key(str),
    },
    "dataset": {
        "path": _Key(str),  # a dataset file, instead of the generator keys below
        "generator": _Key(str, required=True, choices=GENERATORS),
        "n": _Key(int, required=True, lo=2, hi=_I64),
        "k": _Key(int, required=True, lo=2, hi=_I64),
        "dim": _Key(int, required=True, lo=1, hi=_I64),
        "seed": _Key(int, lo=0, hi=_U64),
        "noise": _Key(float, lo=0.0),
        "std": _Key(float, lo=0.0),
        "lo": _Key(float),
        "hi": _Key(float),
    },
    "model": {
        "path": _Key(str),  # a model file, instead of the architecture keys below
        "dims": _Key(_dims, required=True),
        "activation": _Key(str, choices=tuple(t.value for t in ActivationTag)),
        "bias": _Key(bool, default=True),
        "init_scale": _Key(float, lo=0.0),
        "norm": _Key(str, choices=_NORMS, default="L2"),
        "seed": _Key(int, lo=0, hi=_U64),
    },
    "robust": {
        "rho": _Key(float, required=True, lo=0.0),
        "kappa": _KAPPA,
        "oracle_grid_side": _Key(int, lo=2, hi=_I64),
    },
    "attack": {
        "epsilons": _Key(_epsilons, required=True),
        "norm": _Key(str, choices=_NORMS, default="LINF"),
        "method": _Key(str, choices=("PGD", "FGSM", "GRID")),
        "steps": _Key(int, lo=1, hi=_I64),
        "step_size": _Key(float, lo=1e-12),
        "restarts": _Key(int, lo=0, hi=_I64),
        "grid_points": _Key(int, lo=3, hi=_I64),
        "kappa": _KAPPA,
    },
    "train": {
        "objective": _Key(str, required=True, choices=tuple(o.value for o in ObjectiveKind)),
        "rho": _Key(float, required=True, lo=0.0),
        "kappa": _KAPPA,
        "learning_rate": _Key(float, lo=1e-12),
        "epochs": _Key(int, lo=0, hi=_I64),
        "batch_size": _Key(int, lo=1, hi=_I64),
        "momentum": _Key(float, lo=0.0),
        "layer_cap": _Key(float, lo=1e-12),
        "norm": _Key(str, choices=_NORMS),
    },
    "verify": {
        "strong_duality_instances": _Key(int, lo=1, hi=_I64),
        "envelope_points_per_dim": _Key(int, lo=2, hi=_I64),  # 1 would leave only the centre
        "pushforward_triples": _Key(int, lo=1, hi=_I64),
        "pushforward_cases": _Key(int, lo=1, hi=_I64),
        "adversarial_tuples": _Key(int, lo=1, hi=_I64),
        "chain_nets": _Key(int, lo=1, hi=_I64),
    },
}
_SECTIONS = tuple(name for name in _SCHEMA if name != "config")
_PATH_REPLACES = {"dataset": "generator parameters", "model": "architecture parameters"}


def _value(path: str, rule: _Key, v):
    kind = rule.kind
    if kind in (bool, str):
        if not isinstance(v, kind):
            _fail(path, f"expected a {'boolean' if kind is bool else 'string'}, got {v!r}")
        if rule.choices is not None and v not in rule.choices:
            _fail(path, f"must be one of {sorted(rule.choices)}")
        return v
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(path, f"expected an integer, got {v!r}")
    elif kind in (float, "kappa"):
        if kind == "kappa" and v == "inf":
            return math.inf
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            _fail(path, f"expected a number, got {v!r}")
        # compared before float(), which an int beyond the float range overflows
        if not (abs(v) <= sys.float_info.max or kind == "kappa" and v == math.inf):
            _fail(path, "must be finite")
        v = float(v)
        if kind == "kappa" and not v > 0.0:
            _fail(path, 'must be positive (or "inf")')
    else:
        return kind(path, v)
    if rule.lo is not None and v < rule.lo:
        _fail(path, f"must be >= {rule.lo}")
    if rule.hi is not None and v > rule.hi:
        _fail(path, f"must be <= {rule.hi}")
    return v


def _walk(path: str, obj, table: dict, also=()) -> dict:
    """obj checked against its table: unknown keys first, then every key in
    table order.  Null means absent."""
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    for key in obj:
        if key not in table and key not in also:
            _fail(f"{path}.{key}", "unknown key")
    present = {key: v for key, v in obj.items() if v is not None}
    if "path" in present and path in _PATH_REPLACES:
        if len(present) > 1:
            _fail(path, f"'path' cannot be combined with {_PATH_REPLACES[path]}")
        table = {"path": table["path"]}
    out = {}
    for key, rule in table.items():
        if key in present:
            out[key] = _value(f"{path}.{key}", rule, present[key])
        elif rule.required:
            _fail(f"{path}.{key}", "required key missing")
        elif rule.default is not None:
            out[key] = rule.default
    return out


def validate_config(raw: dict) -> dict:
    cfg = _walk("config", raw, _SCHEMA["config"], also=_SECTIONS)
    for name in _SECTIONS:
        if raw.get(name) is not None:
            cfg[name] = _walk(name, raw[name], _SCHEMA[name])
    train = cfg.get("train")
    if train is not None and train["rho"] > 0.0 and "norm" in train and train["norm"] != "L2":
        _fail("train.norm", "the penalties need L2 when rho > 0")
    return cfg


def _section(cfg: dict, name: str, command: str = "this command") -> dict:
    if name not in cfg:
        _fail(name, f"section required for {command}")
    return cfg[name]


# ---------------------------------------------------------------------------
# shared builders


def _load_points(cfg: dict, master_seed: int):
    """The command's points and the `dataset_sha256` of their CSV text."""
    section = _section(cfg, "dataset")
    if "path" in section:
        return load_dataset_csv(section["path"])
    points = _generate_points(section, master_seed)
    return points, dataset_fingerprint(points)


# the generator's own keys; one the config leaves out takes the function's default
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
    params = {key: section[key] for key in _GENERATOR_PARAMS[generator] if key in section}
    seed = section["seed"] if "seed" in section else derive_seed(master_seed, "dataset")
    return gen_data(generator, n, k, dim, 0 if generator == "grid" else seed, **params)


def _check_model_shape(key: str, input_dim: int, label_count: int, points) -> None:
    if input_dim != points.dim:
        raise ConfigError(f"config error at {key}: input dimension {input_dim} must equal the data dimension {points.dim}")
    if label_count != points.label_count:
        raise ConfigError(f"config error at {key}: label count {label_count} must equal the data's label count {points.label_count}")


# model keys -> seeded_mlp parameters; one the config leaves out takes seeded_mlp's default
_INIT_PARAMS = {"activation": "activation", "init_scale": "scale", "bias": "bias"}


def _build_model(cfg: dict, master_seed: int, points) -> tuple[MLP, NormTag]:
    section = _section(cfg, "model")
    if "path" in section:
        model, norm_tag = load_model(section["path"])
        _check_model_shape("model.path", model.input_dim, model.label_count, points)
        return model, norm_tag
    dims = section["dims"]
    _check_model_shape("model.dims", dims[0], dims[-1], points)
    seed = section["seed"] if "seed" in section else derive_seed(master_seed, "model-init")
    params = {param: section[key] for key, param in _INIT_PARAMS.items() if key in section}
    model = seeded_mlp(derive_rng(seed, "model-init"), dims, **params)
    return model, NormTag(section["norm"])


def _fingerprint(cfg: dict, dataset_sha256: str, rho: float, kappa: float, norm_tag: NormTag) -> dict:
    return {
        "dataset_sha256": dataset_sha256,
        "seed": cfg["seed"],
        "rho": rho,
        "kappa": "inf" if math.isinf(kappa) else kappa,
        "norm": norm_tag.value,
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
    section = _section(cfg, "robust", "certify")
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    model, norm_tag = _build_model(cfg, cfg["seed"], points)
    metric = MetricSpec(norm_tag, section["kappa"], points.label_count)
    instance = RobustInstance(empirical_from_samples(points), metric, section["rho"])
    if "oracle_grid_side" in section:
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
    section = _section(cfg, "attack", "attack")
    attack_cfg = AttackConfig(
        seed=derive_seed(cfg["seed"], "attack"), **{key: section[key] for key in AttackConfig.__slots__ if key in section}
    )
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    if attack_cfg.method == "GRID" and points.dim > 2:
        raise ConfigError(f"config error at attack.method: GRID needs data of dimension 1 or 2, got {points.dim}")
    model, _ = _build_model(cfg, cfg["seed"], points)
    norm_tag = NormTag(section["norm"])
    mu = empirical_from_samples(points)
    metric = MetricSpec(norm_tag, section["kappa"], points.label_count)
    # the certificate's loss table and lambda floor serve every radius
    shared = certificate_table(model, mu, norm_tag)
    sweeps = []
    for result in attack_sweep(model, mu, norm_tag, section["epsilons"], attack_cfg):
        cert = certify_on_table(RobustInstance(mu, metric, result.epsilon), shared)
        sweeps.append(
            {
                "epsilon": result.epsilon,
                "adversarial_risk": result.adversarial_risk,
                "robust_value": cert.robust_value,
                "bound_holds": result.adversarial_risk <= cert.robust_value + 1e-8,
                "per_sample_losses": [float(v) for v in result.losses],
                "per_sample_norms": row_norms(result.perturbations, norm_tag).tolist(),
            }
        )
    doc = {
        "method": attack_cfg.method,
        "norm": norm_tag.value,
        "kappa": "inf" if math.isinf(section["kappa"]) else section["kappa"],
        "seed": attack_cfg.seed,
        "sweep": sweeps,
        "fingerprint": _fingerprint(cfg, dataset_sha256, max(section["epsilons"]), section["kappa"], norm_tag),
    }
    io.dump_json(doc, out_dir / "attack_report.json")
    columns = ["epsilon", "adversarial_risk", "robust_value"]
    io.write_csv(out_dir / "bound_curve.csv", columns, [[sweep[c] for c in columns] for sweep in sweeps])
    return 0


def cmd_train(cfg: dict, out_dir: Path) -> int:
    section = _section(cfg, "train", "train")
    points, dataset_sha256 = _load_points(cfg, cfg["seed"])
    model, _ = _build_model(cfg, cfg["seed"], points)
    train_cfg = TrainConfig(seed=derive_seed(cfg["seed"], "train"), **section)
    report = train_loop(model, points, train_cfg)
    doc = report.to_json_dict()
    doc["final_accuracy"] = accuracy(report.model, points)
    doc["fingerprint"] = _fingerprint(cfg, dataset_sha256, section["rho"], section["kappa"], train_cfg.norm)
    io.dump_json(doc, out_dir / "train_report.json")
    io.write_csv(out_dir / "train_curves.csv", EpochRecord._fields, report.records)
    save_model(report.model, out_dir / "model.txt", train_cfg.norm)
    return 0


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    records = run_verification_suite(cfg["seed"], cfg.get("verify", {}))
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
            raise ConfigError(f"config file not found: {args.config}") from None
        except OSError as exc:
            raise ConfigError(f"config file cannot be read: {args.config} ({exc.strerror})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {args.config} ({exc.reason} at byte {exc.start})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        cfg = validate_config(raw)
        if args.seed is not None:
            cfg["seed"] = _value("--seed", _SCHEMA["config"]["seed"], args.seed)
        out_dir = Path(args.out or cfg.get("output_dir", "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            source = "--out" if args.out else "config output_dir"
            raise ConfigError(f"{source} cannot be used as the output directory: {out_dir} ({exc.strerror})") from None
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
    except MemoryError as exc:  # an array beyond any address space fails before it touches memory
        print(f"numerical failure: out of memory ({exc})", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
