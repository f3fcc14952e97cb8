"""Command line front end: property suite, propagation runs, density-matrix
exports and coupling sweeps.

Outputs are deterministic: data files carry only '#'-prefixed metadata
headers (no timestamps), numbers are written with a fixed format, and the
resolved configuration is saved next to the outputs.

Exit codes: 0 all enabled checks pass, 1 a check failed, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

import numpy as np

from . import oracle
from .config import ConfigError, RunConfig, load_config, require_positive, resolved_config_text
from .dynamics import (
    ModulatorStrategy,
    ResidualResult,
    propagate_residual,
    zero_order_solution,
)
from .ecs import (
    TruncationError,
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
from .hilbert import CoefficientSet, fidelity, make_basis_state, shift_matrix
from .observables import alpha_phi, gamma_closed_form, gamma_exact, gamma_first_approx

FLOAT_FMT = "%.12e"


class CheckResult(NamedTuple):
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_table(path: str, meta: list[str], columns: list[str], rows) -> None:
    lines = [f"# {m}" for m in meta]
    lines.append("# " + " ".join(columns))
    for row in rows:
        lines.append(" ".join(FLOAT_FMT % v for v in row))
    _write_text(path, "\n".join(lines) + "\n")


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
    rng = np.random.default_rng(cfg.seed)
    checks: list[CheckResult] = []

    def add(name: str, value: float, passed=None, note: str = "") -> None:
        tol = cfg.tolerance(name)
        checks.append(CheckResult(name, value, tol,
                                  (value < tol) if passed is None else passed, note))

    shifts = [shift_matrix(lat, q) for q in range(lat.sites)]
    add("density_commutation",
        max(float(np.linalg.norm(a @ b - b @ a, 2)) for a in shifts for b in shifts))

    e_ser = ecs_series(model, cfg.couplings, cfg.k0)
    e_dis = ecs_displacement(model, cfg.couplings, cfg.k0)
    add("construction_equivalence", 1.0 - fidelity(e_ser.state, e_dis.state))
    add("annihilation_action", check_b_action(e_ser))

    shift_res, roundtrip_res = np.max(
        [momentum_shift_check(e_ser, int(q)) for q in rng.integers(1, lat.sites, size=3)], axis=0)
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
    unity_ok = (unity.deviation < cfg.tolerance("unity_resolution")
                and moments.max_diagonal_error < cfg.tolerance("unity_moment_diag")
                and moments.max_offdiagonal < cfg.tolerance("unity_moment_offdiag"))
    add("unity_resolution", unity.deviation, passed=unity_ok,
        note=(f"moments diag={moments.max_diagonal_error:.2e} "
              f"offdiag={moments.max_offdiagonal:.2e}"))

    worst = 0.0
    for m in rng.integers(0, 3 * lat.sites, size=10):
        s = float(m) * lat.spacing
        worst = max(worst, 1.0 - sum_rule(e_ser, s).fidelity)
    add("sum_rule_check", worst)
    return checks


def cmd_properties(cfg: RunConfig, out_dir: str) -> int:
    if cfg.model.osc.cutoff < 12:
        raise ConfigError("the property suite scans amplitudes up to 1 and "
                          "needs cutoff >= 12")
    _prepare_out(cfg, out_dir)
    checks = run_properties(cfg)
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

    rows = []
    min_fid = 1.0
    for i, state, phys, o_state in zip(res.steps, res.states, physical, oracle_states):
        fid = fidelity(phys, o_state)
        min_fid = min(min_fid, fid)
        rows.append((cfg.grid.times[i], fid,
                     float(np.linalg.norm(state - res.states[0])),
                     float(np.linalg.norm(sol.h_half[2 * i]))))
    series_path = os.path.join(out_dir, f"evolve_{strategy.kind}.dat")
    _write_table(series_path,
                 [f"ecsim evolve series, strategy={strategy.kind}",
                  "fidelity compares U0(t)|t> with the dense oracle propagation"],
                 ["t", "fidelity", "residual_norm", "h_norm"], rows)

    final = physical[-1].reshape(-1)
    state_rows = [(float(i), final[i].real, final[i].imag) for i in range(final.size)]
    _write_table(os.path.join(out_dir, f"state_{strategy.kind}.dat"),
                 [f"final interaction-picture state U0(t_end)|t_end>, strategy={strategy.kind}",
                  "flat index = momentum_index * (cutoff+1) + fock_level"],
                 ["index", "re", "im"], state_rows)
    return min_fid, series_path


def cmd_evolve(cfg: RunConfig, out_dir: str, compare_strategies: bool = False) -> int:
    _prepare_out(cfg, out_dir)
    kinds = ("static_unit", "recoil_phase") if compare_strategies else (cfg.strategy_kind,)
    psi0 = make_basis_state(cfg.model, cfg.k0, 0)
    stride = max(1, cfg.grid.steps // 200)
    _, (_, oracle_states) = oracle.propagate_exact(
        cfg.model, cfg.couplings, cfg.grid, psi0, collect_every=stride)
    sols = [zero_order_solution(cfg.model, cfg.couplings, ModulatorStrategy(kind=kind),
                                cfg.grid, cfg.k0) for kind in kinds]
    ok = True
    for kind, res in zip(kinds, propagate_residual(*sols, collect_every=stride)):
        min_fid, path = _evolve_one(cfg, res, out_dir, oracle_states)
        err = 1.0 - min_fid
        passed = err < cfg.tolerance("evolve_fidelity")
        ok = ok and passed
        print(f"strategy={kind:<12s} min_fidelity_error={err:.6e}  "
              f"tol={cfg.tolerance('evolve_fidelity'):.1e}  "
              f"{'PASS' if passed else 'FAIL'}  ({os.path.basename(path)})")
    return 0 if ok else 1


def _write_gamma(path: str, gamma, meta: list[str]) -> None:
    pts = gamma.grid.points
    rows = []
    for i, x in enumerate(pts):
        for j, xp in enumerate(pts):
            v = gamma.values[i, j]
            rows.append((x, xp, v.real, v.imag))
    _write_table(path, meta, ["x", "x_prime", "re", "im"], rows)


def cmd_gamma(cfg: RunConfig, out_dir: str) -> int:
    if abs(cfg.grid.t_end) > 1e-12 or cfg.grid.t0 >= 0:
        raise ConfigError("gamma requires t_end = 0 and t0 < 0")
    _prepare_out(cfg, out_dir)
    model = cfg.model
    sol = zero_order_solution(model, cfg.couplings, cfg.strategy(), cfg.grid, cfg.k0)
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
    single_mode = len([1 for _, v in cfg.couplings.items if abs(v) > 0]) == 1
    agree = dev_fc < cfg.tolerance("gamma_agreement")
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
        f"phi_constant = {'yes' if phi_spread < cfg.tolerance('phi_const') else 'no'}",
        f"agreement_check = {'PASS' if agree else 'FAIL'} "
        f"(tol={cfg.tolerance('gamma_agreement'):.1e})",
    ]
    _write_text(os.path.join(out_dir, "gamma_summary.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines[1:]))
    return 0 if agree else 1


def cmd_sweep(cfg: RunConfig, out_dir: str, factors: list[str | float]) -> int:
    if abs(cfg.grid.t_end) > 1e-12 or cfg.grid.t0 >= 0:
        raise ConfigError("sweep requires t_end = 0 and t0 < 0")
    factors = [require_positive("--factors", f) for f in factors]
    if len(factors) < 2 or any(factors[i] <= factors[i + 1] for i in range(len(factors) - 1)):
        raise ConfigError("--factors must hold at least two strictly decreasing values")
    if not np.any(cfg.couplings.values):
        raise ConfigError("sweep needs a nonzero coupling in [couplings]: at zero coupling "
                          "the gap vanishes at every scale and has no order")
    sols = [zero_order_solution(cfg.model, cfg.couplings.scaled(f), cfg.strategy(), cfg.grid,
                                cfg.k0) for f in factors]
    results = propagate_residual(*sols)
    if all(res.exact_split for res in results):
        raise ConfigError("sweep needs a residual: H1 vanishes at every step (flat dispersion "
                          "or couplings only at q = 0), so the split is exact and every gap "
                          "is round-off")
    _prepare_out(cfg, out_dir)
    pos = cfg.positions()
    gaps = [gamma_exact(res.final, res.sol, pos).max_deviation(
                gamma_closed_form(alpha_phi(res.sol, pos), cfg.k0, pos)) for res in results]

    orders = [float(np.log(gaps[i] / gaps[i + 1]) / np.log(factors[i] / factors[i + 1]))
              for i in range(len(gaps) - 1)]
    min_order = min(orders)
    tol = cfg.tolerance("sweep_order")
    passed = min_order >= tol
    _write_table(os.path.join(out_dir, "sweep.dat"),
                 ["ecsim coupling sweep",
                  "gap = max |Gamma_exact - Gamma_closed| at the scaled coupling"],
                 ["factor", "gap"], list(zip(factors, gaps)))
    lines = ["# ecsim sweep summary"]
    lines += [f"order_{i} = {o:.6f}" for i, o in enumerate(orders)]
    lines.append(f"min_order = {min_order:.6f}")
    lines.append(f"order_check = {'PASS' if passed else 'FAIL'} (threshold {tol})")
    _write_text(os.path.join(out_dir, "sweep_summary.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines[1:]))
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
    common.add_argument("--tolerance", type=float, default=1.0,
                        help="multiply all residual tolerances by this factor")
    common.add_argument("--seed", type=int, default=None,
                        help="override the randomized-sampling seed")
    common.add_argument("--strategy", default=None,
                        choices=("static_unit", "recoil_phase"),
                        help="override the modulator strategy")
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
        require_positive("--tolerance", args.tolerance)
        cfg = load_config(args.config, strategy_override=args.strategy,
                          seed_override=args.seed, tolerance_scale=args.tolerance)
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
