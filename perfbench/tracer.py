"""Per-layer tracing from outside the program.

The layers are the package modules.  `Tracer.install` replaces public
functions of each layer with wrappers in every `wasslip.*` namespace that
holds them (modules use `from x import f`, so patching the defining module
alone would miss most calls); `uninstall` puts the originals back.

- Span functions record one span per call: (id, name, start, end, parent id,
  pass id), kept in memory until the run ends.
- HOT per-atom leaves are aggregated into a call count and busy time; a span
  per call would add about a quarter to an attack.
- INNER helpers run per vector or per float and are left unwrapped: their
  time counts as self time of the wrapped caller.

Self time is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "datasets", "io", "models", "robust", "numerics", "measures", "adversarial", "train", "suite")

HOT = {"models.loss_value", "models.loss_and_grad_x", "models.phi_apply"}

# Called hundreds of thousands of times per pass (per sample, per step or per
# float written); wrapping them would cost more than they do.
INNER = {
    "numerics.as_vector",
    "numerics.as_matrix",
    "numerics.norm",
    "models.log_sum_exp",
    "models.softmax",
    "models.mlp_forward",
    "models.mlp_backprop",
    "models.softmax_ce_loss",
    "adversarial.project_ball",
    "io.fmt_float",
    "io.format_cell",
}


def _lp_size(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    return {
        "numerics.solve_lp.vars": len(problem.objective),
        "numerics.solve_lp.rows": len(problem.eq_constraints) + len(problem.ineq_constraints),
    }


def _loss_rows(args, kwargs, result):
    return {"models.label_loss_matrix.rows": result.shape[0]}


def _attacked_pairs(args, kwargs, result):
    return {"adversarial.attacked_pairs": len(result.losses)}


def _epochs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"train.epochs": config.epochs}


def _bytes_written(path_arg):
    def count(args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        return {"io.bytes_written": os.path.getsize(path)}

    return count


# Work counts computed from argument and result shapes; they repeat exactly.
COUNTERS = {
    "numerics.solve_lp": _lp_size,
    "models.label_loss_matrix": _loss_rows,
    "adversarial.adversarial_risk": _attacked_pairs,
    "train.train_loop": _epochs,
    "io.dump_json": _bytes_written(1),
    "io.write_csv": _bytes_written(0),
}


def layer_functions(modules: dict) -> dict:
    """Qualified name -> function for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, value in vars(module).items():
            if name.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            qual = f"{layer}.{name}"
            if qual not in INNER:
                found[qual] = value
    return found


class Tracer:
    def __init__(self, modules: dict):
        self._functions = layer_functions(modules)
        self._patches: list = []
        self._stack: list = []  # open calls: [span id, child seconds]
        self._active: dict = defaultdict(int)
        self._muted = 0
        self._next_id = 0
        self.pass_id = None
        self.spans: list = []
        self.stats: dict = {}
        self.counts: dict = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        by_identity = {id(f): self._wrap(qual, f) for qual, f in self._functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wasslip" and not mod_name.startswith("wasslip."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_identity.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counts = defaultdict(int)

    def end_pass(self) -> tuple:
        stats, counts = dict(self.stats), dict(self.counts)
        self.pass_id = None
        return stats, counts

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, qual: str, f):
        counter = COUNTERS.get(qual)
        clock = time.perf_counter

        if qual in HOT:

            def hot(*args, **kwargs):
                if self._muted:
                    return f(*args, **kwargs)
                self._muted += 1
                start = clock()
                try:
                    return f(*args, **kwargs)
                finally:
                    busy = clock() - start
                    self._muted -= 1
                    entry = self.stats[qual]
                    entry[0] += 1
                    entry[1] += busy
                    entry[2] += busy
                    if self._stack:
                        self._stack[-1][1] += busy

            return hot

        def span(*args, **kwargs):
            if self._muted:
                return f(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            outermost = self._active[qual] == 0
            self._active[qual] += 1
            start = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                end = clock()
                self._active[qual] -= 1
                self._stack.pop()
                duration = end - start
                entry = self.stats[qual]
                entry[0] += 1
                if outermost:
                    entry[1] += duration
                entry[2] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, qual, start, end, parent, self.pass_id))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return span


# ---------------------------------------------------------------------------
# per-layer metrics: name, unit, the end-to-end metric it should move, and on
# which workload.  `cmd.*` are per-command medians of the untraced passes.

_TIME = "s"
_COUNT = "count"

LAYER_METRICS = [(f"{layer}.self_s", _TIME, "job_s", "all") for layer in LAYERS] + [
    ("datasets.load_dataset_csv.s", _TIME, "cmd.certify_mlp.s", "certify-scale"),
    ("datasets.dataset_fingerprint.s", _TIME, "cmd.certify_mlp.s", "certify-scale"),
    ("io.write.s", _TIME, "cmd.attack.s, cmd.train.s", "train-attack"),
    ("io.bytes_written", "bytes", "cmd.attack.s, cmd.train.s", "train-attack"),
    ("models.load_model.s", _TIME, "cmd.attack.s", "train-attack"),
    ("models.label_loss_matrix.calls", _COUNT, "cmd.certify_mlp.s", "certify-scale"),
    ("models.label_loss_matrix.rows", _COUNT, "cmd.certify_mlp.s", "certify-scale"),
    ("models.label_loss_matrix.s", _TIME, "cmd.certify_mlp.s", "certify-scale"),
    ("models.loss_value.calls", _COUNT, "cmd.attack.s; cmd.verify.s", "train-attack; lp-oracle"),
    ("models.loss_value.s", _TIME, "cmd.attack.s; cmd.verify.s", "train-attack; lp-oracle"),
    ("models.phi_apply.calls", _COUNT, "cmd.certify_mlp.s", "certify-scale"),
    ("models.phi_apply.s", _TIME, "cmd.certify_mlp.s", "certify-scale"),
    ("models.loss_and_grad_x.calls", _COUNT, "cmd.attack.s", "train-attack"),
    ("models.loss_and_grad_x.s", _TIME, "cmd.attack.s", "train-attack"),
    ("robust.minimize_dual.calls", _COUNT, "cmd.certify_linear.s", "certify-scale"),
    ("robust.minimize_dual.self_s", _TIME, "cmd.certify_linear.s", "certify-scale"),
    ("robust.robust_certificate_for.s", _TIME, "cmd.certify_linear.s, cmd.certify_mlp.s", "certify-scale"),
    ("robust.primal_robust_risk_lp.self_s", _TIME, "cmd.certify_linear.s, cmd.certify_mlp.s", "lp-oracle"),
    ("numerics.solve_lp.calls", _COUNT, "cmd.certify_*.s, cmd.verify.s", "lp-oracle"),
    ("numerics.solve_lp.s", _TIME, "cmd.certify_*.s, cmd.verify.s", "lp-oracle"),
    ("numerics.solve_lp.vars", _COUNT, "cmd.certify_*.s, cmd.verify.s", "lp-oracle"),
    ("numerics.solve_lp.rows", _COUNT, "cmd.certify_*.s, cmd.verify.s", "lp-oracle"),
    ("numerics.power_iteration.calls", _COUNT, "cmd.train.s", "train-attack"),
    ("numerics.power_iteration.s", _TIME, "cmd.train.s", "train-attack"),
    ("numerics.operator_norm.calls", _COUNT, "cmd.train.s", "train-attack"),
    ("numerics.operator_norm.s", _TIME, "cmd.train.s", "train-attack"),
    ("measures.cost_matrix.calls", _COUNT, "cmd.verify.s", "lp-oracle"),
    ("measures.cost_matrix.s", _TIME, "cmd.verify.s", "lp-oracle"),
    ("measures.transport_cost.calls", _COUNT, "cmd.verify.s", "lp-oracle"),
    ("measures.transport_cost.self_s", _TIME, "cmd.verify.s", "lp-oracle"),
    ("adversarial.pgd_attack.calls", _COUNT, "cmd.attack.s", "train-attack"),
    ("adversarial.pgd_attack.self_s", _TIME, "cmd.attack.s", "train-attack"),
    ("adversarial.grid_attack.calls", _COUNT, "cmd.verify.s", "lp-oracle"),
    ("adversarial.grid_attack.self_s", _TIME, "cmd.verify.s", "lp-oracle"),
    ("adversarial.attacked_pairs", _COUNT, "cmd.attack.s", "train-attack"),
    ("train.train_loop.self_s", _TIME, "cmd.train.s", "train-attack"),
    ("train.objective_and_grad.calls", _COUNT, "cmd.train.s", "train-attack"),
    ("train.objective_and_grad.self_s", _TIME, "cmd.train.s", "train-attack"),
    ("train.epochs", _COUNT, "cmd.train.s", "train-attack"),
] + [
    (f"suite.{check}.s", _TIME, "cmd.verify.s", "lp-oracle")
    for check in (
        "check_strong_duality",
        "check_envelope_collapse_suite",
        "check_pushforward_containment",
        "check_pushforward_bound",
        "check_adversarial_bounds",
        "check_lipschitz_chain",
    )
] + [
    (f"cmd.{kind}.s", _TIME, "job_s", where)
    for kind, where in (
        ("certify_linear", "certify-scale; lp-oracle"),
        ("certify_mlp", "certify-scale; lp-oracle"),
        ("train", "train-attack"),
        ("attack", "train-attack"),
        ("verify", "lp-oracle"),
    )
] + [
    ("trace.job_s", _TIME, "none (traced pass time)", "all"),
    ("trace.overhead_s", _TIME, "none (traced minus untraced job_s)", "all"),
]

_STAT_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def _pass_value(name: str, stats: dict, counts: dict) -> float:
    if name in counts:
        return counts[name]
    head, _, field = name.rpartition(".")
    if head in LAYERS and field == "self_s":
        return sum(entry[2] for qual, entry in stats.items() if qual.split(".", 1)[0] == head)
    if name == "io.write.s":
        return sum(stats.get(q, (0, 0.0))[1] for q in ("io.dump_json", "io.write_csv"))
    if field in _STAT_FIELDS:
        return stats.get(head, (0, 0.0, 0.0))[_STAT_FIELDS[field]]
    return 0  # a computed count that this workload never produced


def layer_values(passes: list) -> dict:
    """Median over traced passes of each span-derived per-layer metric.

    `passes` holds one (stats, counts) pair per traced pass.
    """
    out = {}
    for name, _, _, _ in LAYER_METRICS:
        if name.startswith(("cmd.", "trace.")):
            continue
        out[name] = statistics.median(_pass_value(name, stats, counts) for stats, counts in passes)
    return out
