"""Benchmark of the `ecsim` CLI, run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop: one CLI invocation at a time, each in a fresh process with the
machine's default BLAS threading.  The seed generates the workload's INI
file (see workloads.py); every invocation's output is checked against a
step-free exact reference computed here, outside the timed region
(check.py).  The last line of standard output is one JSON object:

- `--trace 0`: invocations repeat for `--seconds`; reports the medians of
  `wall_s` (the command, from the call to `ecsim.cli.main` to its return),
  `setup_s` (importing `ecsim.cli` in a fresh process, at least
  SETUP_SAMPLES times) and `peak_rss_mb`.
- `--trace 1`: one traced invocation (spans.py) between two untraced ones
  for the tracing overhead, one with OpenBLAS pinned to one thread, and
  the traced scaling grid; reports the per-layer metrics.

Everything a run writes, including a JSON result file with the samples and
the machine description, goes under `.perfbench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

SETUP_SAMPLES = 10       # import timings per untraced run, after one warm-up
RUN_LIMIT_S = 170.0      # every child is killed before the run passes this

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
LAYER_NAMES = (
    "dynamics.propagate_residual.s", "dynamics.propagate_residual.self_s",
    "dynamics.propagate_residual.s_per_step",
    "dynamics.ZeroOrderSolution.u0.calls", "dynamics.ZeroOrderSolution.u0.s",
    "dynamics.zero_order_solution.s",
    "oracle.propagate_exact.s", "oracle.propagate_exact.s_per_step",
    "observables.gamma_exact.s", "observables.gamma_first_approx.s",
    "observables.alpha_phi.s", "observables.gamma_closed_form.s",
    "ecs.unity_resolution_check.s", "ecs.ecs_displacement.s", "ecs.ecs_series.s",
    "ecs.sum_rule.s", "ecs.moment_identity_check.s",
    "config.load_config.s",
    "cli.properties.self_s", "cli.evolve.self_s", "cli.gamma.self_s", "cli.sweep.self_s",
    "linalg.eigh.calls", "linalg.eigh.s", "linalg.eigh.n3_sum", "linalg.expm.calls",
    "cli.sweep.concurrency", "trace.coverage",
)
RUN_NAMES = (
    "process.cpu_s", "process.rss_import_mb", "process.rss_peak_mb",
    "trace.wall_s", "trace.overhead_s", "blas1.wall_s", "blas1.cpu_s",
    "check.err_vs_exact", "check.margin",
)
GRID_NAMES = tuple(
    f"grid.s{s}c{c}.{name}" for s in workloads.GRID_SITES for c in workloads.GRID_CUTOFFS
    for name in ("dynamics.propagate_residual.s_per_step", "oracle.propagate_exact.s_per_step",
                 "linalg.eigh.n3_sum"))
PER_LAYER = LAYER_NAMES + RUN_NAMES + GRID_NAMES


class Runner:
    """Starts the fresh child processes of one benchmark run."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def child(self, mode: str, *args: str,
              env: dict | None = None) -> tuple[dict | None, str, str]:
        """Run child.py; returns (its JSON result or None, stdout, stderr)."""
        self.count += 1
        result = self.work / f"child-{self.count}.json"
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, "--result", str(result), *args],
                cwd=ROOT, env=env or self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result.is_file():
            return None, proc.stdout, proc.stderr
        with open(result, encoding="utf-8") as fh:
            return json.load(fh), proc.stdout, proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SRC / "ecsim" / "cli.py").is_file():
        print(f"error: no ecsim sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import ecsim
    from ecsim.config import ConfigError, load_config

    if Path(ecsim.__file__).resolve().parent != SRC / "ecsim":
        print(f"error: ecsim imported from {ecsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "run.ini"
    config_path.write_text(workloads.workload_config(args.workload, args.seed), encoding="utf-8")
    out_dir = work / "out"
    cli_argv = workloads.cli_args(args.workload, str(config_path), str(out_dir), args.seed)

    factors = [float(f) for f in spec.flags[1].split(",")] if spec.command == "sweep" else []
    try:
        reference = check.reference_for(spec.command, load_config(str(config_path)), factors)
    except (ConfigError, ValueError) as exc:
        # the program rejects this input too; its runs count as failed
        print(f"no reference for this seed: {exc}")
        reference = None

    runner = Runner(work, started)
    runner.child("setup")  # warm-up: bytecode and file cache, not measured
    setup = []
    invocations = []

    def invoke(traced: bool = False, env: dict | None = None) -> dict:
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        res, stdout, stderr = runner.child("cli", *(["--trace"] if traced else []), "--",
                                           *cli_argv, env=env)
        elapsed = time.perf_counter() - t0
        if res is None:
            v = check.Verdict(False, None, float("inf"), f"child failed: {stderr[-500:]}")
            res = {"wall_s": elapsed}
        else:
            v = check.verdict(spec.command, str(out_dir), res["returncode"], stdout, reference)
            setup.append(res["setup_s"])
        res.update(elapsed_s=elapsed, traced=traced, ok=v.ok, reason=v.reason,
                   err_vs_exact=v.err_vs_exact, check_margin=v.check_margin)
        if not v.ok:
            print(f"FAILED invocation: {v.reason}")
        invocations.append(res)
        return res

    metrics: dict[str, float] = {}
    if args.trace == 0:
        loop_start = time.perf_counter()
        while True:
            invoke()
            elapsed = time.perf_counter() - loop_start
            longest = max(r["elapsed_s"] for r in invocations)
            if elapsed + longest > args.seconds:
                break
        # every invocation imports once; import-only processes make up the rest
        while len(setup) < SETUP_SAMPLES:
            res, _, err = runner.child("setup")
            if res is None:
                print(f"error: importing ecsim.cli failed:\n{err}", file=sys.stderr)
                return 1
            setup.append(res["setup_s"])
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in invocations)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = statistics.median(
            r.get("peak_rss_mb", 0.0) for r in invocations)
    else:
        # untraced invocations on both sides of the traced one, so slow
        # drift of the machine does not read as tracing overhead
        plain = [invoke()]
        traced = invoke(traced=True)
        plain.append(invoke())
        env1 = dict(runner.env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        single = invoke(env=env1)
        grid, _, grid_err = runner.child("grid", "--seed", str(args.seed), "--work", str(work))
        if grid is None:
            print(f"error: scaling grid failed:\n{grid_err}", file=sys.stderr)
            return 1
        layers = dict(traced.get("layers", {}), **grid["layers"])
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        layers.update({
            "process.cpu_s": statistics.median(r.get("cpu_s", 0.0) for r in plain),
            "process.rss_import_mb": traced.get("rss_import_mb", 0.0),
            "process.rss_peak_mb": statistics.median(r.get("peak_rss_mb", 0.0) for r in plain),
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain_wall,
            "blas1.wall_s": single["wall_s"],
            "blas1.cpu_s": single.get("cpu_s", 0.0),
            "check.err_vs_exact": max((r["err_vs_exact"] or 0.0) for r in invocations),
            "check.margin": max((r["check_margin"] for r in invocations if r["ok"]), default=0.0),
        })
        for name in PER_LAYER:
            metrics[name] = float(layers.get(name, 0.0))

    failed = sum(not r["ok"] for r in invocations)
    margins = [r["check_margin"] for r in invocations]
    errors = [r["err_vs_exact"] for r in invocations if r["err_vs_exact"] is not None]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": spec.why, "config": config_path.read_text(),
        "env": next((r["env"] for r in invocations if "env" in r), None),
        "attempted": len(invocations), "failed": failed,
        "failed_frac": failed / len(invocations),
        "check_margin": max(margins), "err_vs_exact": max(errors) if errors else None,
        "setup_samples": len(setup),
        "metrics": metrics, "invocations": invocations,
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)

    env = summary["env"] or {}
    print(f"{args.workload} seed={args.seed}: {len(invocations)} invocations, "
          f"failed_frac={summary['failed_frac']:.3g}, check_margin={summary['check_margin']:.3g}, "
          f"err_vs_exact={summary['err_vs_exact']}")
    print(f"machine: nproc={env.get('nproc')} cpu={env.get('cpu_model')!r} "
          f"blas={env.get('blas')} threads={env.get('blas_threads')} "
          f"numpy={env.get('numpy')} scipy={env.get('scipy')}")
    print(f"result file: {work / 'result.json'}")
    values = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(invocations), "failed": failed,
                      "metrics": values}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".n3_sum")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("s_per_step"):
        return "s/step"
    if name.endswith("err_vs_exact"):
        return "amplitude"
    if name.endswith(("concurrency", "coverage", "margin")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
