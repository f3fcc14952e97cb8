"""Tests of the benchmark harness itself:

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ecsim import oracle  # noqa: E402
from ecsim.config import load_config  # noqa: E402
from ecsim.dynamics import TimeGrid, check_stability  # noqa: E402
from ecsim.hilbert import make_basis_state  # noqa: E402

SEEDS = range(40)


def _config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(str(path)), str(path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_pass_the_program_guards(tmp_path, name):
    spec = workloads.WORKLOADS[name]
    for seed in SEEDS:
        text = workloads.workload_config(name, seed)
        assert text == workloads.workload_config(name, seed)
        cfg, _ = _config(tmp_path, text)  # load_config applies the truncation guard
        check_stability(cfg.model, cfg.couplings, cfg.grid)
        assert (cfg.model.lattice.sites, cfg.model.osc.cutoff, cfg.grid.steps) == \
            (spec.sites, spec.cutoff, spec.steps)
        offsets = dict(cfg.couplings.items)
        assert len(offsets) == 2
        for q, g in offsets.items():
            assert offsets[-q] == pytest.approx(np.conj(g), abs=1e-15)
            assert workloads.COUPLING_RANGE[0] <= abs(g) <= workloads.COUPLING_RANGE[1]


def test_scaling_grid_configs_pass_the_program_guards(tmp_path):
    for sites in workloads.GRID_SITES:
        for cutoff in workloads.GRID_CUTOFFS:
            text = workloads.config_text(sites, cutoff, -workloads.GRID_STEPS * workloads.GRID_DT,
                                         workloads.GRID_STEPS, sites, seed=3)
            cfg, _ = _config(tmp_path, text)
            check_stability(cfg.model, cfg.couplings, cfg.grid)


def test_exact_reference_agrees_with_the_stepped_oracle(tmp_path):
    cfg, _ = _config(tmp_path, workloads.config_text(5, 8, -1.5, 10, 5, seed=4))
    exact = check.exact_state(cfg)
    psi0 = make_basis_state(cfg.model, cfg.k0, 0)
    errors = []
    for steps in (200, 400, 800):
        grid = TimeGrid(cfg.grid.t0, cfg.grid.t_end, steps)
        stepped = oracle.propagate_exact(cfg.model, cfg.couplings, grid, psi0).reshape(-1)
        errors.append(float(np.abs(stepped - exact).max()))
    assert errors[-1] < 1e-6
    # the midpoint stepper converges to the step-free state at second order
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def _run_child(tmp_path, argv, traced, tag):
    out = tmp_path / f"out-{tag}"
    result = tmp_path / f"result-{tag}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "child.py"), "cli", "--result", str(result)]
    cmd += ["--trace"] if traced else []
    proc = subprocess.run(cmd + ["--", *argv, "--out", str(out)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(result.read_text()), proc.stdout


@pytest.mark.parametrize("command", [["evolve", "--compare-strategies"],
                                     ["sweep"], ["gamma"], ["properties"]])
def test_outputs_identical_with_and_without_tracing(tmp_path, command):
    _, path = _config(tmp_path, workloads.config_text(5, 12, -1.0, 8, 5, seed=5))
    argv = [*command, "--config", path]
    plain, res_plain, _ = _run_child(tmp_path, argv, False, "plain")
    traced, res_traced, _ = _run_child(tmp_path, argv, True, "traced")
    assert res_plain["returncode"] == res_traced["returncode"] == 0
    assert "layers" in res_traced and "layers" not in res_plain
    names = sorted(os.listdir(plain))
    assert names == sorted(os.listdir(traced)) and names
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    assert res_traced["spans"] and all(len(span) == 6 for span in res_traced["spans"])
    layers = res_traced["layers"]
    assert layers[f"cli.{command[0]}.calls"] == 1
    assert layers["trace.coverage"] > 0.5


def test_gate_accepts_a_correct_run_and_rejects_a_perturbed_state(tmp_path):
    cfg, path = _config(tmp_path, workloads.config_text(5, 12, -1.0, 40, 5, seed=6))
    out, res, stdout = _run_child(tmp_path, ["evolve", "--compare-strategies", "--config", path],
                                  False, "gate")
    reference = check.reference_for("evolve", cfg, [])
    good = check.verdict("evolve", str(out), res["returncode"], stdout, reference)
    assert good.ok and 0 < good.err_vs_exact < check.ERR_TOL and 0 < good.check_margin < 1
    state = out / "state_recoil_phase.dat"
    lines = state.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    idx, re_, im = lines[i].split()
    lines[i] = f"{idx} {float(re_) + 2 * check.ERR_TOL:.12e} {im}"
    state.write_text("\n".join(lines) + "\n")
    bad = check.verdict("evolve", str(out), res["returncode"], stdout, reference)
    assert not bad.ok and "err_vs_exact" in bad.reason
    assert not check.verdict("evolve", str(out), 1, stdout, reference).ok
    assert not check.verdict("evolve", str(out), 0, stdout.replace("PASS", "FAIL"), reference).ok


def test_layer_metrics_self_time_and_concurrency():
    main_thread, worker = 1, 2
    recorded = [
        spans.Span("cli.sweep", 0.0, 10.0, None, main_thread, 0),
        spans.Span("dynamics.propagate_residual", 1.0, 7.0, 0, worker, 5),
        spans.Span("dynamics.propagate_residual", 2.0, 8.0, 0, worker + 1, 5),
        spans.Span("linalg.eigh", 2.0, 3.0, 1, worker, 8),
    ]
    m = spans.layer_metrics(recorded, wall=10.0)
    assert m["cli.sweep.self_s"] == pytest.approx(3.0)        # 10 - union [1, 8]
    assert m["cli.sweep.concurrency"] == pytest.approx(1.2)   # (6 + 6) / 10
    assert m["dynamics.propagate_residual.s"] == pytest.approx(12.0)
    assert m["dynamics.propagate_residual.self_s"] == pytest.approx(11.0)
    assert m["dynamics.propagate_residual.s_per_step"] == pytest.approx(1.2)
    assert m["linalg.eigh.n3_sum"] == 8
    assert m["trace.coverage"] == pytest.approx(0.7)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in workloads.WORKLOADS.items()}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.unit_of(name)) for name in run.PER_LAYER]
