"""Command line front end: property suite, propagation runs, density-matrix
exports and coupling sweeps.

Outputs are deterministic: data files carry only '#'-prefixed metadata
headers (no timestamps), numbers are written with a fixed format, and the
resolved configuration is saved next to the outputs.

Every check passes or fails at a fixed tolerance (TOLERANCES).  Exit codes:
0 all enabled checks pass, 1 a check failed (every output is still written),
2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import NamedTuple

import numpy as np

from . import oracle
from .config import ConfigError, RunConfig, load_config, resolved_config_text
from .dynamics import (
    ModulatorStrategy,
    ResidualResult,
    propagate_residual,
    zero_order_solution,
)
from .ecs import (
    check_b_action,
    ecs_displacement,
    ecs_series,
    moment_identity_check,
    momentum_shift_check,
    overlap,
    overlap_single_mode,
    sum_rule,
    unity_resolution_check,
)
from .hilbert import CoefficientSet, TruncationError, circulant, fidelity, make_basis_state
from .observables import (
    alpha_phi,
    gamma_closed_form,
    gamma_exact,
    gamma_first_approx,
    require_t_end_zero,
)

FLOAT_FMT = "%.12e"

# Pass thresholds of the checks, fixed so every run is judged alike.
# sweep_order is a lower bound on a convergence order; the rest bound residuals.
TOLERANCES: dict[str, float] = {
    "density_commutation": 1e-13,
    "construction_equivalence": 1e-8,
    "annihilation_action": 1e-8,
    "momentum_shift": 1e-13,
    "shift_roundtrip": 1e-13,
    "overlap_formula": 1e-8,
    "unity_resolution": 1e-6,
    "unity_moment_diag": 1e-8,
    "unity_moment_offdiag": 1e-10,
    "sum_rule_check": 1e-8,
    "evolve_fidelity": 1e-6,
    "gamma_agreement": 1e-6,
    "phi_const": 1e-10,
    "sweep_order": 1.5,
}


class CheckResult(NamedTuple):
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""


def require_positive(name: str, value) -> float:
    """`value` as a float if it is a finite number > 0, else a ConfigError naming the input."""
    try:
        number = float(value)
    except ValueError:
        number = float("nan")
    if not 0.0 < number < float("inf"):
        raise ConfigError(f"{name} must be finite and positive, got {value}")
    return number


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_table(path: str, meta: list[str], columns: list[str], rows: np.ndarray) -> None:
    """Write the float array `rows` (rows, columns) under '#' headers, one
    line per row, every value in FLOAT_FMT."""
    line = " ".join([FLOAT_FMT] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {m}\n" for m in meta)
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            fh.write(line % tuple(row.tolist()))


def _write_summary(path: str, lines: list[str]) -> None:
    """Write a summary file and echo it, title line excluded, to stdout."""
    _write_text(path, "\n".join(lines) + "\n")
    print("\n".join(lines[1:]))


def _emit_report(path: str, title: str, checks: list[CheckResult]) -> None:
    lines = [f"# {title}"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        note = f"  {c.note}" if c.note else ""
        lines.append(f"{c.name:<26s} value={c.value:.12e}  tol={c.tol:.1e}  {status}{note}")
    _write_text(path, "\n".join(lines) + "\n")


def _prepare_out(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "resolved_config.ini"), resolved_config_text(cfg))


def run_properties(cfg: RunConfig) -> list[CheckResult]:
    """State-algebra suite over the configured model.

    Fixed contents, one report line each: commutation of the density
    components, series/displacement construction equivalence, annihilation
    action, momentum shift and its unitary round trip, the single-mode
    overlap formula (including orthogonality between different initial
    momenta), the resolution of unity with its scalar moment integral, and
    the plane-wave contraction sum rule.
    """
    model = cfg.model
    lat = model.lattice
    rng = random.Random(cfg.seed)
    checks: list[CheckResult] = []

    def add(name: str, value: float, passed=None, note: str = "") -> None:
        tol = TOLERANCES[name]
        checks.append(CheckResult(name, value, tol,
                                  (value < tol) if passed is None else passed, note))

    shifts = circulant(lat, range(lat.sites), np.eye(lat.sites))
    add("density_commutation",
        max(float(np.linalg.norm(a @ shifts - shifts @ a, axis=(-2, -1)).max())
            for a in shifts))

    e_ser = ecs_series(model, cfg.couplings, cfg.k0)
    e_dis = ecs_displacement(model, cfg.couplings, cfg.k0)
    add("construction_equivalence", 1.0 - fidelity(e_ser.state, e_dis.state))
    add("annihilation_action", check_b_action(e_ser))

    shift_res, roundtrip_res = np.max(
        [momentum_shift_check(e_ser, rng.randrange(1, lat.sites)) for _ in range(3)], axis=0)
    add("momentum_shift", float(shift_res))
    add("shift_roundtrip", float(roundtrip_res))

    q0 = next((q for q in cfg.couplings.offsets if q != 0), 1)
    mags = np.linspace(0.2, 1.0, 5)
    gs = [m * np.exp(0.7j * i) for i, m in enumerate(mags)]
    gps = [m * np.exp(-0.4j * i) for i, m in enumerate(mags)]
    overlap_dev = 0.0
    states = {g: ecs_series(model, CoefficientSet.single_mode(lat, q0, g), cfg.k0)
              for g in gs + gps}
    for g in gs:
        for gp in gps:
            num = overlap(states[g], states[gp])
            ana = overlap_single_mode(g, gp, cfg.k0, cfg.k0)
            overlap_dev = max(overlap_dev, abs(num - ana))
    other_k = lat.shift_index(cfg.k0, 1)
    ortho = ecs_series(model, CoefficientSet.single_mode(lat, q0, gs[2]), other_k)
    overlap_dev = max(overlap_dev, abs(overlap(states[gs[2]], ortho)))
    add("overlap_formula", overlap_dev)

    unity = unity_resolution_check(model, CoefficientSet.single_mode(lat, q0, 1.0))
    moments = moment_identity_check(1.0)
    unity_ok = (unity.deviation < TOLERANCES["unity_resolution"]
                and moments.max_diagonal_error < TOLERANCES["unity_moment_diag"]
                and moments.max_offdiagonal < TOLERANCES["unity_moment_offdiag"])
    add("unity_resolution", unity.deviation, passed=unity_ok,
        note=(f"moments diag={moments.max_diagonal_error:.2e} "
              f"offdiag={moments.max_offdiagonal:.2e}"))

    worst = 0.0
    for _ in range(10):
        s = rng.randrange(0, 3 * lat.sites) * lat.spacing
        worst = max(worst, 1.0 - sum_rule(e_ser, s).fidelity)
    add("sum_rule_check", worst)
    return checks


def cmd_properties(cfg: RunConfig, out_dir: str) -> int:
    if cfg.model.osc.cutoff < 12:
        raise ConfigError("the property suite scans amplitudes up to 1 and "
                          "needs cutoff >= 12")
    checks = run_properties(cfg)
    _prepare_out(cfg, out_dir)
    _emit_report(os.path.join(out_dir, "properties_report.txt"),
                 "ecsim properties report", checks)
    for c in checks:
        print(f"{c.name:<26s} value={c.value:.6e}  tol={c.tol:.1e}  "
              f"{'PASS' if c.passed else 'FAIL'}")
    return 0 if all(c.passed for c in checks) else 1


def _evolve_one(cfg: RunConfig, res: ResidualResult, out_dir: str,
                oracle_states: np.ndarray) -> tuple[float, str]:
    """Compare one strategy's propagation with the oracle states sampled at
    the same steps; returns (min fidelity vs oracle, series file path)."""
    sol, strategy = res.sol, res.sol.strategy
    physical = sol.u0(res.steps, res.states)

    times = cfg.grid.times[res.steps]
    fids = fidelity(physical, oracle_states, axis=(-2, -1))
    rows = np.column_stack((times, fids,
                            np.linalg.norm(res.states - res.states[0], axis=(-2, -1)),
                            np.linalg.norm(sol.h(times), axis=-1)))
    series_path = os.path.join(out_dir, f"evolve_{strategy.kind}.dat")
    _write_table(series_path,
                 [f"ecsim evolve series, strategy={strategy.kind}",
                  "fidelity compares U0(t)|t> with the dense oracle propagation"],
                 ["t", "fidelity", "residual_norm", "h_norm"], rows)

    final = physical[-1].reshape(-1)
    state_rows = np.column_stack((np.arange(final.size), final.real, final.imag))
    _write_table(os.path.join(out_dir, f"state_{strategy.kind}.dat"),
                 [f"final interaction-picture state U0(t_end)|t_end>, strategy={strategy.kind}",
                  "flat index = momentum_index * (cutoff+1) + fock_level"],
                 ["index", "re", "im"], state_rows)
    return float(fids.min()), series_path


def cmd_evolve(cfg: RunConfig, out_dir: str, compare_strategies: bool = False) -> int:
    kinds = ("static_unit", "recoil_phase") if compare_strategies else (cfg.strategy_kind,)
    sols = [zero_order_solution(cfg.model, cfg.couplings, ModulatorStrategy(kind=kind),
                                cfg.grid, cfg.k0) for kind in kinds]
    _prepare_out(cfg, out_dir)
    psi0 = make_basis_state(cfg.model, cfg.k0, 0)
    stride = max(1, cfg.grid.steps // 200)
    _, (_, oracle_states) = oracle.propagate_exact(
        cfg.model, cfg.couplings, cfg.grid, psi0, collect_every=stride)
    ok = True
    for kind, res in zip(kinds, propagate_residual(*sols, collect_every=stride)):
        min_fid, path = _evolve_one(cfg, res, out_dir, oracle_states)
        err = 1.0 - min_fid
        passed = err < TOLERANCES["evolve_fidelity"]
        ok = ok and passed
        print(f"strategy={kind:<12s} min_fidelity_error={err:.6e}  "
              f"tol={TOLERANCES['evolve_fidelity']:.1e}  "
              f"{'PASS' if passed else 'FAIL'}  ({os.path.basename(path)})")
    return 0 if ok else 1


def _write_gamma(path: str, gamma, meta: list[str]) -> None:
    x, xp = np.meshgrid(gamma.grid.points, gamma.grid.points, indexing="ij")
    rows = np.stack([x, xp, gamma.values.real, gamma.values.imag], axis=-1).reshape(-1, 4)
    _write_table(path, meta, ["x", "x_prime", "re", "im"], rows)


def cmd_gamma(cfg: RunConfig, out_dir: str) -> int:
    require_t_end_zero(cfg.grid)
    sol = zero_order_solution(cfg.model, cfg.couplings, cfg.strategy(), cfg.grid, cfg.k0)
    _prepare_out(cfg, out_dir)
    res, = propagate_residual(sol)
    pos = cfg.positions()

    ge = gamma_exact(res.final, sol, pos)
    gf = gamma_first_approx(sol, pos)
    field = alpha_phi(sol, pos)
    gc = gamma_closed_form(field, cfg.k0, pos)
    for g, name in ((ge, "exact"), (gf, "first_approx"), (gc, "closed_form")):
        _write_gamma(os.path.join(out_dir, f"gamma_{name}.dat"), g,
                     [f"ecsim gamma, method={name}", "density matrix at t = 0"])

    dev_fc = gf.max_deviation(gc)
    dev_ef = ge.max_deviation(gf)
    dev_ec = ge.max_deviation(gc)
    phi_spread = field.phi_spread()
    single_mode = np.count_nonzero(cfg.couplings.values) == 1
    agree = dev_fc < TOLERANCES["gamma_agreement"]
    lines = [
        "# ecsim gamma summary",
        f"max_dev_first_vs_closed = {dev_fc:.12e}",
        f"max_dev_exact_vs_first = {dev_ef:.12e}",
        f"max_dev_exact_vs_closed = {dev_ec:.12e}",
        f"hermiticity_exact = {ge.hermiticity_error():.12e}",
        f"hermiticity_first = {gf.hermiticity_error():.12e}",
        f"hermiticity_closed = {gc.hermiticity_error():.12e}",
        f"closed_diag_deviation = {float(np.abs(np.diag(gc.values) - 1.0).max()):.12e}",
        f"trace_mean_exact = {ge.trace_mean():.12e}",
        f"phi_spread = {phi_spread:.12e}",
        f"single_mode_coupling = {'yes' if single_mode else 'no'}",
        f"phi_constant = {'yes' if phi_spread < TOLERANCES['phi_const'] else 'no'}",
        f"agreement_check = {'PASS' if agree else 'FAIL'} "
        f"(tol={TOLERANCES['gamma_agreement']:.1e})",
    ]
    _write_summary(os.path.join(out_dir, "gamma_summary.txt"), lines)
    return 0 if agree else 1


def cmd_sweep(cfg: RunConfig, out_dir: str, factors: list[str | float]) -> int:
    require_t_end_zero(cfg.grid)
    factors = [require_positive("--factors", f) for f in factors]
    if len(factors) < 2 or any(factors[i] <= factors[i + 1] for i in range(len(factors) - 1)):
        raise ConfigError("--factors must hold at least two strictly decreasing values")
    if not np.any(cfg.couplings.values):
        raise ConfigError("sweep needs a nonzero coupling in [couplings]: at zero coupling "
                          "the gap vanishes at every scale and has no order")
    sols = [zero_order_solution(cfg.model, cfg.couplings.scaled(f), cfg.strategy(), cfg.grid,
                                cfg.k0) for f in factors]
    if all(sol.exact_split for sol in sols):
        raise ConfigError("sweep needs a residual: H1 vanishes at every step (flat dispersion "
                          "or couplings only at q = 0), so the split is exact and every gap "
                          "is round-off")
    results = propagate_residual(*sols)
    _prepare_out(cfg, out_dir)
    pos = cfg.positions()
    gaps = [gamma_exact(res.final, res.sol, pos).max_deviation(
                gamma_closed_form(alpha_phi(res.sol, pos), cfg.k0, pos)) for res in results]

    orders = [float(np.log(gaps[i] / gaps[i + 1]) / np.log(factors[i] / factors[i + 1]))
              for i in range(len(gaps) - 1)]
    min_order = min(orders)
    tol = TOLERANCES["sweep_order"]
    passed = min_order >= tol
    _write_table(os.path.join(out_dir, "sweep.dat"),
                 ["ecsim coupling sweep",
                  "gap = max |Gamma_exact - Gamma_closed| at the scaled coupling"],
                 ["factor", "gap"], np.column_stack((factors, gaps)))
    lines = ["# ecsim sweep summary"]
    lines += [f"order_{i} = {o:.6f}" for i, o in enumerate(orders)]
    lines.append(f"min_order = {min_order:.6f}")
    lines.append(f"order_check = {'PASS' if passed else 'FAIL'} (threshold {tol})")
    _write_summary(os.path.join(out_dir, "sweep_summary.txt"), lines)
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsim",
        description="Extended-coherent-state simulator: property suite, "
                    "split propagation, density matrices.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the INI run configuration")
    common.add_argument("--out", default="ecsim_out", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the randomized-sampling seed")
    sub.add_parser("properties", parents=[common],
                   help="run the state-algebra property suite")
    p_evolve = sub.add_parser("evolve", parents=[common],
                              help="zero-order + residual propagation vs the dense oracle")
    p_evolve.add_argument("--compare-strategies", action="store_true",
                          help="run every named strategy, one series file each")
    sub.add_parser("gamma", parents=[common],
                   help="density matrix by all three methods")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="coupling-scale sweep of the exact/closed-form gap")
    p_sweep.add_argument("--factors", default="1,0.5,0.25,0.125",
                         help="comma-separated decreasing scale factors")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "properties":
            return cmd_properties(cfg, args.out)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out, compare_strategies=args.compare_strategies)
        if args.command == "gamma":
            return cmd_gamma(cfg, args.out)
        return cmd_sweep(cfg, args.out, args.factors.split(","))
    except (ConfigError, TruncationError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
