"""Exact-reference correctness gate for the benchmark's CLI runs.

The reference is step-free: the interaction-picture state at t is

    e^{i H_f t} e^{-i (H_f + H_S)(t - t0)} e^{-i H_f t0} |0, k0),

built from `oracle.free_hamiltonian_dense` and
`oracle.schrodinger_hamiltonian_dense` with one `eigh`.  It is computed
once per coupling set, outside the timed region, and every timed run's
output files are compared with it.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

import numpy as np

from ecsim import oracle
from ecsim.config import RunConfig
from ecsim.observables import alpha_phi, gamma_closed_form
from ecsim.dynamics import zero_order_solution

# Amplitude error allowed against the exact state: the CLI's own 1e-6
# fidelity tolerance corresponds to |dpsi| ~ 1e-3, since 1 - F ~ |dpsi|^2.
ERR_TOL = 1e-3

_CHECK_LINE = re.compile(
    r"^(?P<name>\S+)\s+(?:value|min_fidelity_error)=(?P<value>\S+)\s+tol=(?P<tol>\S+)\s+"
    r"(?P<status>PASS|FAIL)")


class Verdict(NamedTuple):
    ok: bool
    err_vs_exact: float | None   # None where the command writes no state
    check_margin: float          # worst measured value / tolerance
    reason: str


def exact_state(cfg: RunConfig, couplings=None) -> np.ndarray:
    """Step-free interaction-picture state at t_end, flattened."""
    model = cfg.model
    couplings = cfg.couplings if couplings is None else couplings
    e_free = np.real(np.diag(oracle.free_hamiltonian_dense(model)))
    h_full = oracle.schrodinger_hamiltonian_dense(model, couplings) + np.diag(e_free)
    w, v = np.linalg.eigh(h_full)
    t0, t1 = cfg.grid.t0, cfg.grid.t_end
    psi = np.zeros(model.dim, dtype=complex)
    psi[cfg.k0 * model.osc.levels] = 1.0
    psi = np.exp(-1j * e_free * t0) * psi
    psi = v @ (np.exp(-1j * w * (t1 - t0)) * (v.conj().T @ psi))
    return np.exp(1j * e_free * t1) * psi


def gamma_of(cfg: RunConfig, state: np.ndarray) -> np.ndarray:
    """Gamma(x, x') at t = 0 on the configured positions:
    psi(x) = sum_k e^{ikx} a_k |state>, Gamma = psi(x)^* . psi(x')."""
    lat = cfg.model.lattice
    x = np.arange(cfg.position_count) * (lat.length / cfg.position_count)
    psi = np.exp(1j * np.outer(x, lat.momenta)) @ state.reshape(cfg.model.shape)
    return psi.conj() @ psi.T


def sweep_reference(cfg: RunConfig, factors: list[float]) -> list[float]:
    """max |Gamma_ref - Gamma_closed| per factor: the sweep's gap with the
    propagated state replaced by the exact one."""
    positions = cfg.positions()
    gaps = []
    for f in factors:
        couplings = cfg.couplings.scaled(f)
        sol = zero_order_solution(cfg.model, couplings, cfg.strategy(), cfg.grid, cfg.k0)
        closed = gamma_closed_form(alpha_phi(sol, positions), cfg.k0, positions).values
        gaps.append(float(np.abs(gamma_of(cfg, exact_state(cfg, couplings)) - closed).max()))
    return gaps


def reference_for(command: str, cfg: RunConfig, factors: list[float]):
    if command in ("evolve", "gamma"):
        state = exact_state(cfg)
        return state if command == "evolve" else gamma_of(cfg, state)
    if command == "sweep":
        return sweep_reference(cfg, factors)
    return None


def _table(path: str) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def _summary(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if "=" in line and not line.startswith("#"):
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    return out


def _check_lines(text: str) -> list[tuple[float, float, bool]]:
    rows = []
    for line in text.splitlines():
        m = _CHECK_LINE.match(line.strip())
        if m:
            rows.append((float(m["value"]), float(m["tol"]), m["status"] == "PASS"))
    return rows


def _evolve(out: str, stdout: str, reference: np.ndarray):
    rows = _check_lines(stdout)
    if len(rows) != 2:
        raise ValueError(f"{len(rows)} check lines on stdout, expected one per strategy")
    err = 0.0
    for kind in ("static_unit", "recoil_phase"):
        t = _table(os.path.join(out, f"state_{kind}.dat"))
        if t.shape != (reference.size, 3) or np.any(t[:, 0] != np.arange(reference.size)):
            raise ValueError(f"state_{kind}.dat has the wrong shape or index column")
        err = max(err, float(np.abs(t[:, 1] + 1j * t[:, 2] - reference).max()))
    return rows, err


def _gamma(out: str, reference: np.ndarray):
    t = _table(os.path.join(out, "gamma_exact.dat"))
    n = reference.shape[0]
    if t.shape != (n * n, 4):
        raise ValueError("gamma_exact.dat has the wrong shape")
    err = float(np.abs((t[:, 2] + 1j * t[:, 3]).reshape(n, n) - reference).max())
    s = _summary(os.path.join(out, "gamma_summary.txt"))
    m = re.match(r"(PASS|FAIL) \(tol=(\S+)\)", s["agreement_check"])
    rows = [(float(s["max_dev_first_vs_closed"]), float(m[2]), m[1] == "PASS")]
    return rows, err


def _sweep(out: str, reference: list[float]):
    t = _table(os.path.join(out, "sweep.dat"))
    if t.shape != (len(reference), 2):
        raise ValueError("sweep.dat has the wrong shape")
    err = float(np.abs(t[:, 1] - np.asarray(reference)).max())
    s = _summary(os.path.join(out, "sweep_summary.txt"))
    m = re.match(r"(PASS|FAIL) \(threshold (\S+)\)", s["order_check"])
    # the order check is a lower bound: its margin is threshold / min_order
    rows = [(float(m[2]), float(s["min_order"]), m[1] == "PASS")]
    return rows, err


def _properties(out: str):
    with open(os.path.join(out, "properties_report.txt"), encoding="utf-8") as fh:
        rows = _check_lines(fh.read())
    if len(rows) != 8:
        raise ValueError(f"properties report has {len(rows)} check lines, expected 8")
    return rows, None


def verdict(command: str, out: str, returncode: int, stdout: str, reference) -> Verdict:
    """Check one CLI run: exit code, every PASS/FAIL line, and the output
    against the exact reference."""
    if reference is None and command != "properties":
        return Verdict(False, None, float("inf"), "no exact reference for this input")
    try:
        if command == "evolve":
            rows, err = _evolve(out, stdout, reference)
        elif command == "gamma":
            rows, err = _gamma(out, reference)
        elif command == "sweep":
            rows, err = _sweep(out, reference)
        else:
            rows, err = _properties(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, None, float("inf"), f"unreadable output: {exc}")
    if not rows:
        return Verdict(False, err, float("inf"), "no PASS/FAIL lines")
    margin = max(value / tol for value, tol, _ in rows)
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    if not all(passed for _, _, passed in rows):
        reasons.append("a check printed FAIL")
    if err is not None and not err <= ERR_TOL:
        reasons.append(f"err_vs_exact {err:.3g} above {ERR_TOL:g}")
    return Verdict(not reasons, err, margin, "; ".join(reasons))
