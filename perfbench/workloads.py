"""Workload plans: the datasets each workload generates during set-up and the
command sequence of one pass.

A pass runs `wasslip.cli.main(argv)` in-process, one command after the
other (a closed loop with a single caller).  Every command gets its own JSON
config and output directory, so the program only ever receives files.

Two scales exist.  `full` is what the benchmark measures; `tiny` keeps the
same command mix at toy sizes so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    `cid` names the command inside its pass (and its output directory);
    `kind` groups commands for the per-command medians.
    """

    cid: str
    kind: str
    verb: str
    config: dict


@dataclass(frozen=True)
class Dataset:
    """`gen-data` makes a population at FIXED_SEED; a run's seed draws `sample`
    of its rows."""

    section: dict
    sample: int


@dataclass(frozen=True)
class Plan:
    datasets: dict  # dataset name -> Dataset
    commands: tuple


# Populations, model weights and the verify suite use this seed in every run;
# a run's seed draws the sample.  What a
# certificate costs depends on the cluster centres and the weights more than on
# anything else: over seeds 0-19, drawing them per seed spread the breakpoints
# a linear `certify` evaluates over 1026-5075 (quartile spread 64% of the
# median), drawing only the sample spread them by 4%.  Simplex pivots spread
# by 36% when the seed draws everything and 12% with the sample alone (seeds
# 0-15).  The suite's instance sizes are random per seed (55.9k-73.9k
# grid-attack loss calls over seeds 0-9).
FIXED_SEED = 7


def _blobs(n: int, k: int, dim: int) -> dict:
    return {"generator": "gaussian-blobs", "n": n, "k": k, "dim": dim, "seed": FIXED_SEED}


def _model(dims, **extra) -> dict:
    return {"dims": dims, "seed": FIXED_SEED, **extra}


def _certify(cid, kind, data, model, rho, kappa=1.0, oracle_side=None):
    robust = {"rho": rho, "kappa": kappa}
    if oracle_side is not None:
        robust["oracle_grid_side"] = oracle_side
    cfg = {"dataset": {"path": f"@data/{data}/dataset.csv"}, "model": model, "robust": robust}
    return Command(cid, kind, "certify", cfg)


def _certify_scale(tiny: bool) -> Plan:
    # The direct dual (breakpoint enumeration, n*k(k-1)/2 below the cap) and
    # the per-row loss table do the work; no LP, no attack, no training.
    n, k, dim, hidden = (60, 3, 3, 8) if tiny else (2000, 10, 8, 32)
    commands = []
    for rho in (0.05, 0.2):
        commands.append(_certify(f"certify-linear-rho{rho}", "certify_linear", "blobs", _model([dim, k]), rho))
    for rho in (0.05, 0.2):
        dims = [dim, hidden, hidden, k]
        commands.append(_certify(f"certify-mlp-rho{rho}", "certify_mlp", "blobs", _model(dims), rho))
    return Plan({"blobs": Dataset(_blobs(4 * n, k, dim), sample=n)}, tuple(commands))


def _train_attack(tiny: bool) -> Plan:
    # The README pipeline: per-sample gradients (PGD, ERM) do the work, the
    # model file makes a round trip through io, the dual is trivial, no LP.
    n, epochs = (20, 3) if tiny else (200, 60)
    train = {
        "dataset": {"path": "@data/blobs/dataset.csv"},
        "model": _model([2, 16, 2]),
        "train": {"objective": "spectral", "rho": 0.5, "epochs": epochs, "learning_rate": 0.1},
    }
    model = {"path": "@out/train/model.txt"}
    attack = {"epsilons": [0.01, 0.1, 0.5], "norm": "L2"}
    if tiny:
        attack.update(steps=3, restarts=1)
    commands = (
        Command("train", "train", "train", train),
        _certify("certify", "certify_mlp", "blobs", model, 0.1),
        Command("attack", "attack", "attack", {"dataset": train["dataset"], "model": model, "attack": attack}),
    )
    return Plan({"blobs": Dataset(_blobs(4 * n, 2, 2), sample=n)}, commands)


_TINY_VERIFY = {
    "strong_duality_instances": 2,
    "envelope_points_per_dim": 9,
    "pushforward_triples": 2,
    "pushforward_cases": 1,
    "adversarial_tuples": 1,
    "chain_nets": 2,
}


def _lp_oracle(tiny: bool) -> Plan:
    # The dense simplex dominates each certify (one LP with n * side^2 * k
    # variables); verify is the only command reaching transport_cost and the
    # suite, and its grid attack makes many forward-only loss calls.  Drawing
    # 40 of 160 points spreads the two certify commands' time by about 14%
    # across seeds 1-12 (quartile spread over the median).
    n, side = (8, 5) if tiny else (40, 13)
    commands = (
        _certify("certify-linear-oracle", "certify_linear", "blobs", _model([2, 2], init_scale=0.6), 0.1, oracle_side=side),
        _certify("certify-mlp-oracle", "certify_mlp", "blobs", _model([2, 8, 2], init_scale=0.6), 0.1, oracle_side=side),
        Command("verify", "verify", "verify", {"seed": FIXED_SEED, "verify": dict(_TINY_VERIFY)} if tiny else {"seed": FIXED_SEED}),
    )
    return Plan({"blobs": Dataset(_blobs(4 * n, 2, 2), sample=n)}, commands)


WORKLOADS = {
    "certify-scale": _certify_scale,
    "train-attack": _train_attack,
    "lp-oracle": _lp_oracle,
}

SCALES = ("full", "tiny")


def plan_for(workload: str, scale: str) -> Plan:
    return WORKLOADS[workload](scale == "tiny")


def second_seed(seed: int) -> int:
    """The extra seed each run also checks; its pass doubles as the warm-up."""
    return seed + 1


def _unit(seed: int, label: str) -> float:
    """A uniform draw in [0, 1) that depends only on (seed, label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _sample_rows(population: Path, sample: int, seed: int, target: Path) -> None:
    header, *rows = population.read_text(encoding="utf-8").splitlines()
    chosen = sorted(sorted(range(len(rows)), key=lambda i: _unit(seed, f"row/{i}"))[:sample])
    target.write_text("\n".join([header] + [rows[i] for i in chosen]) + "\n", encoding="utf-8")


def _resolve(value, data_dir: Path, out_dir: Path):
    if isinstance(value, dict):
        return {key: _resolve(item, data_dir, out_dir) for key, item in value.items()}
    if isinstance(value, str) and value.startswith("@data/"):
        return str(data_dir / value[len("@data/"):])
    if isinstance(value, str) and value.startswith("@out/"):
        return str(out_dir / value[len("@out/"):])
    return value


def write_inputs(cli, plan: Plan, seeds, work: Path) -> dict:
    """Make each population with `gen-data`, draw every seed's sample and
    write one config per command and seed.

    Returns {seed: {command id: config path}}.
    """
    for name, dataset in plan.datasets.items():
        path = work / "population" / f"gen-{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"seed": FIXED_SEED, "dataset": dataset.section}), encoding="utf-8")
        code = cli.main(["gen-data", "--config", str(path), "--out", str(path.parent / name)])
        if code != 0:
            raise RuntimeError(f"gen-data for dataset {name!r} exited with code {code}")
    configs = {}
    for seed in seeds:
        seed_dir = work / str(seed)
        for name, dataset in plan.datasets.items():
            population = work / "population" / name / "dataset.csv"
            target = seed_dir / "data" / name / "dataset.csv"
            target.parent.mkdir(parents=True, exist_ok=True)
            _sample_rows(population, dataset.sample, seed, target)
        paths = {}
        for cmd in plan.commands:
            cfg = {"seed": seed, **_resolve(cmd.config, seed_dir / "data", seed_dir / "out")}
            path = seed_dir / "configs" / f"{cmd.cid}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
            paths[cmd.cid] = path
        configs[seed] = paths
    return configs
