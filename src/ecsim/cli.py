"""Command line front end, ``main``: the property suite, propagation runs,
density-matrix exports and coupling sweeps, each check judged at its fixed
tolerance in TOLERANCES.

Each ``cmd_<command>`` computes an Outcome and does no I/O. ``main`` alone
then writes its files, prints one ``_check_line`` per check and turns the
checks into the exit code.
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
    STRATEGY_KINDS,
    ModulatorStrategy,
    ZeroOrderSolution,
    propagate_residual,
    zero_order_solution,
)
from .ecs import (
    check_b_action,
    ecs_displacement,
    ecs_series,
    moment_identity_check,
    momentum_shift_check,
    overlap_single_mode,
    sum_rule,
    unity_resolution_check,
)
from .hilbert import CoefficientSet, branches, circulant, fidelity, fourier, make_basis_state
from .observables import GammaGrid, alpha_phi, gamma_closed_form, gamma_exact, require_t_end_zero

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
    "gamma_norm": 1e-10,
    "phi_const": 1e-10,
    "sweep_order": 1.5,
}


class CheckResult(NamedTuple):
    name: str
    value: float
    tol: float
    passed: bool
    note: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class Outcome(NamedTuple):
    """A command's checks, its tables as (file name, meta lines, columns,
    rows) and its text files as (file name, text)."""
    checks: list[CheckResult]
    tables: list[tuple]
    texts: list[tuple[str, str]]


def _judge(name: str, value: float, passed: bool | None = None, note: str = "") -> CheckResult:
    """`value` at TOLERANCES[name]: it passes below it unless `passed` is given."""
    tol = TOLERANCES[name]
    return CheckResult(name, value, tol, value < tol if passed is None else passed, note)


def _text(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


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
    line per row, every value in FLOAT_FMT (one % for the whole table)."""
    line = " ".join([FLOAT_FMT] * len(columns)) + "\n"
    body = line * len(rows) % tuple(rows.ravel().tolist())
    _write_text(path, _text([f"# {m}" for m in [*meta, " ".join(columns)]]) + body)


def run_properties(cfg: RunConfig) -> list[CheckResult]:
    """State-algebra suite over the configured model, one report line each:
    every rho_q diagonal on the Fourier vectors with the values ``branches``
    gives (so all commute), series/displacement equivalence, annihilation
    action, momentum shift and its round trip, single-mode overlaps (and
    orthogonality across initial momenta), resolution of unity with its
    moments, plane-wave sum rule.  The seed draws 3 shifts, then 10
    positions; each family of states or inputs is one stacked call."""
    model = cfg.model
    lat = model.lattice
    rng = random.Random(cfg.seed)
    checks: list[CheckResult] = []

    def add(name: str, value: float, passed=None, note: str = "") -> None:
        checks.append(_judge(name, value, passed, note))

    j, f = np.arange(lat.sites), fourier(lat.sites)
    fsf = f @ circulant(lat, j, np.eye(j.size)) @ f.conj()   # F rho_q F^dag, every q
    fsf[:, j, j] -= branches(lat, j, np.eye(j.size))
    add("density_commutation", float(np.linalg.norm(fsf, axis=(-2, -1)).max()))
    del fsf   # N^3 entries, not held below

    e_ser = ecs_series(model, cfg.couplings, cfg.k0)
    e_dis = ecs_displacement(model, cfg.couplings, cfg.k0)
    add("construction_equivalence", 1.0 - fidelity(e_ser.state, e_dis.state))
    add("annihilation_action", check_b_action(e_ser))

    shift_res, roundtrip_res = momentum_shift_check(
        e_ser, [rng.randrange(1, lat.sites) for _ in range(3)])
    add("momentum_shift", shift_res)
    add("shift_roundtrip", roundtrip_res)

    # one stacked series call: g, g' at k0 (the 5 x 5 overlaps), g_2 at k0 + 1
    q0 = next((q for q in cfg.couplings.offsets if q != 0), 1)
    i, mags = np.arange(5), np.linspace(0.2, 1.0, 5)
    gs, gps = mags * np.exp(0.7j * i), mags * np.exp(-0.4j * i)
    vecs = np.reshape([e.state for e in ecs_series(
        model, [CoefficientSet.single_mode(lat, q0, g) for g in (*gs, *gps, gs[2])],
        [cfg.k0] * 10 + [lat.shift_index(cfg.k0, 1)])], (11, -1))
    num = vecs[:5].conj() @ vecs[5:10].T
    ana = overlap_single_mode(gs[:, None], gps, cfg.k0, cfg.k0)
    add("overlap_formula", max(float(np.abs(num - ana).max()), abs(vecs[2].conj() @ vecs[10])))

    unity = unity_resolution_check(model, CoefficientSet.single_mode(lat, q0, 1.0))
    moments = moment_identity_check()
    unity_ok = (unity.deviation < TOLERANCES["unity_resolution"]
                and moments.max_diagonal_error < TOLERANCES["unity_moment_diag"]
                and moments.max_offdiagonal < TOLERANCES["unity_moment_offdiag"])
    add("unity_resolution", unity.deviation, passed=unity_ok,
        note=(f"moments diag={moments.max_diagonal_error:.2e} "
              f"offdiag={moments.max_offdiagonal:.2e}"))

    positions = np.array([rng.randrange(0, 3 * lat.sites) for _ in range(10)]) * lat.spacing
    add("sum_rule_check", float((1.0 - sum_rule(e_ser, positions).fidelity).max()))
    return checks


def _check_line(c: CheckResult, digits: int) -> str:
    """`name value=... tol=... PASS|FAIL`, then the check's note if it has one."""
    line = f"{c.name:<26s} value={c.value:.{digits}e}  tol={c.tol:.1e}  {c.status}"
    return f"{line}  {c.note}" if c.note else line


def cmd_properties(cfg: RunConfig) -> Outcome:
    if cfg.model.osc.cutoff < 12:
        raise ConfigError("the property suite scans amplitudes up to 1 and "
                          "needs cutoff >= 12")
    checks = run_properties(cfg)
    report = _text(["# ecsim properties report", *(_check_line(c, 12) for c in checks)])
    return Outcome(checks, [], [("properties_report.txt", report)])


def _evolve_one(cfg: RunConfig, sol: ZeroOrderSolution, steps: np.ndarray, states: np.ndarray,
                oracle_states: np.ndarray) -> tuple[float, list]:
    """Compare one strategy's rotated-frame `states` with the oracle states,
    both stored at the grid `steps`; returns (min fidelity vs oracle,
    [series, final state] tables)."""
    kind = sol.strategy.kind
    physical = sol.u0(steps, states)
    times = cfg.grid.times[steps]
    fids = fidelity(physical, oracle_states, axis=(-2, -1))
    rows = np.column_stack((times, fids, np.linalg.norm(states - states[0], axis=(-2, -1)),
                            np.linalg.norm(sol.h(times), axis=-1)))
    final = physical[-1].reshape(-1)
    state_rows = np.column_stack((np.arange(final.size), final.real, final.imag))
    return float(fids.min()), [
        (f"evolve_{kind}.dat",
         [f"ecsim evolve series, strategy={kind}",
          "fidelity compares U0(t)|t> with the dense oracle propagation"],
         ["t", "fidelity", "residual_norm", "h_norm"], rows),
        (f"state_{kind}.dat",
         [f"final interaction-picture state U0(t_end)|t_end>, strategy={kind}",
          "flat index = momentum_index * (cutoff+1) + fock_level"],
         ["index", "re", "im"], state_rows)]


def cmd_evolve(cfg: RunConfig, compare_strategies: bool = False) -> Outcome:
    kinds = STRATEGY_KINDS if compare_strategies else (cfg.strategy_kind,)
    sols = [zero_order_solution(cfg.model, cfg.couplings, ModulatorStrategy(kind=kind),
                                cfg.grid, cfg.k0) for kind in kinds]
    psi0 = make_basis_state(cfg.model, cfg.k0, 0)
    stride = max(1, cfg.grid.steps // 200)
    oracle_states = oracle.propagate_exact(cfg.model, cfg.couplings, cfg.grid, psi0,
                                           collect_every=stride)
    results = propagate_residual(*sols, collect_every=stride)
    checks, tables = [], []
    steps = cfg.grid.samples(stride)
    for kind, sol, states in zip(kinds, sols, results):
        min_fid, strategy_tables = _evolve_one(cfg, sol, steps, states, oracle_states)
        checks.append(_judge("evolve_fidelity", 1.0 - min_fid, note=f"strategy={kind}"))
        tables += strategy_tables
    return Outcome(checks, tables, [])


def cmd_gamma(cfg: RunConfig) -> Outcome:
    require_t_end_zero(cfg.grid)
    sol = zero_order_solution(cfg.model, cfg.couplings, cfg.strategy(), cfg.grid, cfg.k0)
    final = propagate_residual(sol)[0, -1]
    pos = cfg.positions()

    # the first approximation is the exact route on |0,k0): one U0 for both
    ge, gf = (GammaGrid(g, pos) for g in gamma_exact(
        np.array([final, make_basis_state(cfg.model, cfg.k0, 0)]), sol, pos).values)
    field = alpha_phi(sol, pos)
    gc = gamma_closed_form(field, cfg.k0, pos)
    phi_spread = field.phi_spread()
    single_mode = np.count_nonzero(cfg.couplings.values) == 1
    # the rotated-frame step is unitary: its drift is round-off, 1.3e-12 after 2500 steps
    checks = [_judge("gamma_agreement", gf.max_deviation(gc)),
              _judge("gamma_norm", abs(float(np.linalg.norm(final)) - 1.0))]
    agree, norm = checks
    summary = _text([
        "# ecsim gamma summary",
        f"max_dev_first_vs_closed = {agree.value:.12e}",
        f"max_dev_exact_vs_first = {ge.max_deviation(gf):.12e}",
        f"max_dev_exact_vs_closed = {ge.max_deviation(gc):.12e}",
        f"hermiticity_exact = {ge.hermiticity_error():.12e}",
        f"hermiticity_first = {gf.hermiticity_error():.12e}",
        f"hermiticity_closed = {gc.hermiticity_error():.12e}",
        f"closed_diag_deviation = {float(np.abs(np.diag(gc.values) - 1.0).max()):.12e}",
        f"trace_mean_exact = {ge.trace_mean():.12e}",
        f"phi_spread = {phi_spread:.12e}",
        f"single_mode_coupling = {'yes' if single_mode else 'no'}",
        f"phi_constant = {'yes' if phi_spread < TOLERANCES['phi_const'] else 'no'}",
        f"agreement_check = {agree.status} (tol={agree.tol:.1e})",
        f"norm_check = {norm.status} (tol={norm.tol:.1e})",
    ])
    x, xp = np.meshgrid(pos.points, pos.points, indexing="ij")
    tables = [(f"gamma_{name}.dat", [f"ecsim gamma, method={name}", "density matrix at t = 0"],
               ["x", "x_prime", "re", "im"],
               np.stack([x, xp, g.values.real, g.values.imag], axis=-1).reshape(-1, 4))
              for g, name in ((ge, "exact"), (gf, "first_approx"), (gc, "closed_form"))]
    return Outcome(checks, tables, [("gamma_summary.txt", summary)])


def cmd_sweep(cfg: RunConfig, factors: list[str | float]) -> Outcome:
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
        raise ConfigError("sweep needs a residual: the dispersion is invariant under every "
                          "coupled momentum shift (e.g. flat, zero hopping, or couplings only "
                          "at q = 0), so the split is exact and every gap is round-off")
    pos = cfg.positions()
    gaps = gamma_exact(propagate_residual(*sols)[:, -1], sols, pos).max_deviation(
        gamma_closed_form(alpha_phi(sols, pos), cfg.k0, pos)).tolist()

    floor = 100.0 * cfg.grid.steps * np.finfo(float).eps   # round-off: 1-5 eps per step
    if gaps[-1] < floor:
        raise ConfigError(f"sweep needs the smallest factor's gap {gaps[-1]:.3g} above round-off, "
                          f"100 * steps * eps = {floor:.3g}: the split is exact up to round-off")
    orders = [float(np.log(gaps[i] / gaps[i + 1]) / np.log(factors[i] / factors[i + 1]))
              for i in range(len(gaps) - 1)]
    min_order = min(orders)
    c = _judge("sweep_order", min_order, passed=min_order >= TOLERANCES["sweep_order"],
               note="lower bound")
    table = ("sweep.dat", ["ecsim coupling sweep",
                           "gap = max |Gamma_exact - Gamma_closed| at the scaled coupling"],
             ["factor", "gap"], np.column_stack((factors, gaps)))
    summary = _text(["# ecsim sweep summary",
                     *(f"order_{i} = {o:.6f}" for i, o in enumerate(orders)),
                     f"min_order = {min_order:.6f}",
                     f"order_check = {c.status} (threshold {c.tol})"])
    return Outcome([c], [table], [("sweep_summary.txt", summary)])


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
        if not args.out:
            raise ConfigError("--out must name a directory, got an empty path")
        existing = os.path.abspath(args.out)
        while not os.path.lexists(existing):   # a dangling link is not a directory
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        if args.command == "properties":
            outcome = cmd_properties(cfg)
        elif args.command == "evolve":
            outcome = cmd_evolve(cfg, compare_strategies=args.compare_strategies)
        elif args.command == "gamma":
            outcome = cmd_gamma(cfg)
        else:
            outcome = cmd_sweep(cfg, args.factors.split(","))
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, text in [("resolved_config.ini", resolved_config_text(cfg)), *outcome.texts]:
            _write_text(os.path.join(args.out, name), text)
        for name, meta, columns, rows in outcome.tables:
            _write_table(os.path.join(args.out, name), meta, columns, rows)
    except OSError as exc:
        print(f"output error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 3
    for c in outcome.checks:
        print(_check_line(c, 6))
    return 0 if all(c.passed for c in outcome.checks) else 1


if __name__ == "__main__":
    sys.exit(main())
