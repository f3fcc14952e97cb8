"""One fresh benchmark process: time the import of `ecsim.cli`, then run one
CLI command (optionally traced) or the traced scaling grid, and write a JSON
result file.

    python3 perfbench/child.py setup --result R
    python3 perfbench/child.py cli --result R [--trace] -- <ecsim args>
    python3 perfbench/child.py grid --result R --seed N --work DIR

Nothing but the standard library is imported before the timed import.
"""

import json
import os
import resource
import sys
import time

_t_start = time.perf_counter()
import ecsim.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t_start

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import platform  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import GRID_CUTOFFS, GRID_DT, GRID_SITES, GRID_STEPS, config_text  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it exposes the query."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_cli(argv: list[str], traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    rss_import = _rss_mb()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = ecsim.cli.main(argv)
    wall = time.perf_counter() - t0
    out = {"returncode": rc, "wall_s": wall, "cpu_s": _cpu_s() - cpu0,
           "rss_import_mb": rss_import, "peak_rss_mb": _rss_mb()}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, wall)
        out["spans"] = [list(span) for span in tracer.spans]
    return out


def run_grid(seed: int, work: str) -> dict:
    """Per-step cost of the residual stepper and the oracle, and eigensolver
    work, over sites x cutoff with a few steps per point."""
    tracer = Tracer()
    tracer.install()
    # imported after install, so these names are the traced ones
    from ecsim import oracle
    from ecsim.config import load_config
    from ecsim.dynamics import propagate_residual, zero_order_solution
    from ecsim.hilbert import make_basis_state

    metrics = {}
    for sites in GRID_SITES:
        for cutoff in GRID_CUTOFFS:
            path = os.path.join(work, f"grid-s{sites}c{cutoff}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(sites, cutoff, -GRID_STEPS * GRID_DT, GRID_STEPS,
                                     sites, seed))
            cfg = load_config(path)
            tracer.spans.clear()
            t0 = time.perf_counter()
            sol = zero_order_solution(cfg.model, cfg.couplings, cfg.strategy(), cfg.grid, cfg.k0)
            propagate_residual(sol)
            oracle.propagate_exact(cfg.model, cfg.couplings, cfg.grid,
                                   make_basis_state(cfg.model, cfg.k0, 0))
            m = layer_metrics(tracer.spans, time.perf_counter() - t0)
            for name in ("dynamics.propagate_residual.s_per_step",
                         "oracle.propagate_exact.s_per_step", "linalg.eigh.n3_sum"):
                metrics[f"grid.s{sites}c{cutoff}.{name}"] = m.get(name, 0.0)
    return {"layers": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "cli", "grid"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", default=".")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    result = {"setup_s": SETUP_S, "env": environment()}
    if args.mode == "cli":
        result.update(run_cli(argv[split + 1:], args.trace))
    elif args.mode == "grid":
        result.update(run_grid(args.seed, args.work))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
