"""wasslip benchmark: times the CLI commands a researcher waits for and checks
every report they write.

    python3 perfbench/run.py --workload certify-scale --seed 1 --seconds 35 --trace 0

The program runs in-process through `wasslip.cli.main(argv)` from `src/` of
the checkout this file sits in, as a closed loop with one caller: each
command starts after the previous one ends.  BLAS is pinned to one thread.

A run:
1. sets up: a fresh import of wasslip, `gen-data` for the run's seed and the
   second seed, one config per command;
2. runs one warm-up pass on the second seed, checked but not timed;
3. runs passes on the seed until the next one would end after `--seconds`
   (at least MIN_PASSES).  With `--trace 1`, passes alternate traced and
   untraced, starting traced; end-to-end times come from untraced passes.
   Between passes it times further set-ups, in a directory of their own,
   until set-up has taken SETUP_SHARE of the time so far; `setup_s` is the
   median of all set-ups.  Spreading them over the run keeps a slow spell of
   the host from deciding `setup_s` alone.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count commands (warm-up included) and `metrics` holds the
end-to-end metrics, or with `--trace 1` the per-layer ones.  The same
numbers, the environment and the spans go to `.perfbench_out/`.
Exit code: 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run.  Certified values are compared with reference.json
for REFERENCE_SEEDS; for any other seed stderr says they were not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before anything imports numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SHARE = 0.15
MIN_PASSES = 2
REFERENCE_SEEDS = range(0, 103)  # run seeds 0-101 and their second seeds
END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


def _import_wasslip():
    """Import wasslip from this checkout's src/, discarding any earlier import."""
    src = ROOT / "src"
    if not (src / "wasslip" / "__init__.py").is_file():
        raise BenchmarkError(f"no wasslip sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "wasslip" or n.startswith("wasslip.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("wasslip.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchmarkError(f"imported wasslip from {cli.__file__}, outside {src}")
    return cli


def _wasslip_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "wasslip" or n.startswith("wasslip.")}


def _set_up(plan: workloads.Plan, seeds, work: Path) -> tuple:
    """Import wasslip afresh and write the inputs; return (cli, configs, seconds)."""
    start = time.perf_counter()
    cli = _import_wasslip()
    try:
        configs = workloads.write_inputs(cli, plan, seeds, work)
    except RuntimeError as exc:
        raise BenchmarkError(f"set-up failed: {exc}") from exc
    return cli, configs, time.perf_counter() - start


def _extra_set_up(plan: workloads.Plan, seeds, work: Path) -> float:
    """Time one more set-up in `work`, then put back the wasslip modules the
    passes (and the tracer) use."""
    in_use = _wasslip_modules()
    try:
        return _set_up(plan, seeds, work)[2]
    finally:
        for name in _wasslip_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
        shutil.rmtree(work, ignore_errors=True)


def _layer_modules() -> dict:
    return {layer: sys.modules[f"wasslip.{layer}"] for layer in tracer.LAYERS}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "loop": "closed, 1 caller, in-process",
    }


class Run:
    """Runs passes of one workload and keeps the tally of checked commands."""

    def __init__(self, cli, plan: workloads.Plan, reference: dict):
        self.cli = cli
        self.plan = plan
        self.reference = reference  # seed -> command id -> certified values
        self.attempted = 0
        self.failures: list = []
        self._digests: dict = {}  # (seed, command id) -> first pass's report digests

    def run_pass(self, seed: int, seed_dir: Path, configs: dict) -> list:
        """Run every command of a pass; return (command, exit code, seconds) per command."""
        out = seed_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        results = []
        for cmd in self.plan.commands:
            argv = [cmd.verb, "--config", str(configs[cmd.cid]), "--out", str(out / cmd.cid)]
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            results.append((cmd, code, time.perf_counter() - start))
        for cmd, code, _ in results:
            self.attempted += 1
            reasons = self._reasons(cmd, code, seed, out / cmd.cid)
            if reasons:
                self.failures.append({"seed": seed, "command": cmd.cid, "reasons": reasons})
        return results

    def _reasons(self, cmd, code, seed: int, out_dir: Path) -> list:
        if code != 0:
            return [f"exit code {code}"]
        reasons = checks.check_outputs(cmd.verb, out_dir, cmd.config)
        digests = checks.report_digests(cmd.verb, out_dir)
        first = self._digests.setdefault((seed, cmd.cid), digests)
        reasons += [f"{name} differs from the first pass" for name in digests if digests[name] != first[name]]
        expected = self.reference.get(str(seed), {}).get(cmd.cid)
        if expected is not None and not reasons:
            reasons += checks.reference_reasons(checks.certified_values(cmd.verb, out_dir), expected)
        return reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full", help="tiny: toy sizes for self-tests")
    args = parser.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _bench(args, work)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _bench(args, work: Path) -> int:
    import numpy  # noqa: F401  imported once, outside the set-up timing

    plan = workloads.plan_for(args.workload, args.scale)
    seeds = (args.seed, workloads.second_seed(args.seed))

    cli, configs, seconds = _set_up(plan, seeds, work)
    setup_times = [seconds]

    reference = {}
    if args.scale == "full":
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8")).get(args.workload, {})
    run = Run(cli, plan, reference)
    run.run_pass(seeds[1], work / str(seeds[1]), configs[seeds[1]])

    trace = tracer.Tracer(_layer_modules()) if args.trace else None
    timed, traced = [], []  # untraced pass results; traced (pass seconds, stats, counts)
    start = time.perf_counter()
    while True:
        index = len(timed) + len(traced)
        if trace is not None and index % 2 == 0:
            trace.begin_pass(index)
            trace.install()
            try:
                results = run.run_pass(args.seed, work / str(args.seed), configs[args.seed])
            finally:
                trace.uninstall()
            traced.append((sum(r[2] for r in results), *trace.end_pass()))
        else:
            timed.append(run.run_pass(args.seed, work / str(args.seed), configs[args.seed]))
        while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start):
            setup_times.append(_extra_set_up(plan, seeds, work / "extra-setup"))
        typical = statistics.median(sum(r[2] for r in res) for res in timed) if timed else traced[-1][0]
        if index + 1 >= MIN_PASSES and time.perf_counter() - start + typical > args.seconds:
            break

    job_times = [sum(r[2] for r in res) for res in timed]
    kinds = {}
    for res in timed:
        for cmd, _, seconds in res:
            kinds.setdefault(cmd.kind, []).append(seconds)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(job_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_command = {f"cmd.{kind}.s": statistics.median(times) for kind, times in kinds.items()}

    if trace is not None:
        values = tracer.layer_values([(stats, counts) for _, stats, counts in traced])
        values.update({name: per_command.get(name, 0.0) for name, *_ in tracer.LAYER_METRICS if name.startswith("cmd.")})
        values["trace.job_s"] = statistics.median(t[0] for t in traced)
        values["trace.overhead_s"] = values["trace.job_s"] - e2e["job_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in tracer.LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    env = environment()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "second_seed": seeds[1],
        "scale": args.scale,
        "seconds": args.seconds,
        "environment": env,
        "timed_passes": len(timed),
        "traced_passes": len(traced),
        "setup_s_samples": setup_times,
        "job_s_samples": job_times,
        "end_to_end": e2e,
        "per_command": per_command,
        "reference_checked": str(args.seed) in reference and str(seeds[1]) in reference,
        "failures": run.failures,
    }
    if trace is not None:
        summary["per_layer"] = {name: metrics[name]["value"] for name in metrics}
        summary["layer_map"] = [{"metric": m, "unit": u, "moves": mv, "on": on} for m, u, mv, on in tracer.LAYER_METRICS]
        summary["spans"] = trace.spans
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    _print_human(summary, metrics, run, out_file)
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


def _print_human(summary: dict, metrics: dict, run: Run, out_file: Path) -> None:
    env = summary["environment"]
    print(f"workload {summary['workload']}  seed {summary['seed']} (+ second seed {summary['second_seed']})  scale {summary['scale']}")
    print(
        f"env: nproc {env['nproc']} ({env['cpus_usable']} usable), {env['cpu_model']}, python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']} pinned to 1 thread"
    )
    print(
        f"passes: {summary['timed_passes']} untraced, {summary['traced_passes']} traced; "
        f"set-ups: {len(summary['setup_s_samples'])}"
    )
    for name, seconds in sorted(summary["per_command"].items()):
        print(f"  {name:<24} {seconds:.6f} s (median, untraced)")
    for name, item in metrics.items():
        print(f"  {name:<40} {item['value']:.6g} {item['unit']}")
    if not summary["reference_checked"] and summary["scale"] == "full":
        print(
            f"warning: seed {summary['seed']} or {summary['second_seed']} is outside reference.json "
            f"(seeds {REFERENCE_SEEDS[0]}-{REFERENCE_SEEDS[-1]}): their certified values were not compared",
            file=sys.stderr,
        )
    print(f"checks: {run.attempted - len(run.failures)}/{run.attempted} commands passed")
    for failure in run.failures:
        print(f"  FAILED seed {failure['seed']} {failure['command']}: {'; '.join(failure['reasons'])}")
    print(f"details: {out_file.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
