"""Benchmark workloads and the seeded INI generator.

Every workload is one `ecsim` subcommand on a fixed model size and time
grid; only the couplings, the initial momentum and the sampling seed come
from the workload seed.  The CLI receives nothing but the generated file
(plus `--seed` for `properties`), so the inputs are reproducible from the
seed alone.

Time grids keep the step sizes of the full-length runs (dt ~ 0.05 for the
ring-7 evolve, ~0.13 for the others) on a shorter window [-pi, 0], so one
invocation takes a few seconds and every run measures several of them.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

# Couplings are one Hermitian pair g_{-q} = g_q^* with |g_q| drawn in
# COUPLING_RANGE around the default 0.15, a uniform phase and q in {1, 2}.
COUPLING_RANGE = (0.135, 0.165)
COUPLING_OFFSETS = (1, 2)
K0_CHOICES = (-1, 0, 1)
OMEGA = 2.5
STABILITY_LIMIT = 0.5       # ecsim.dynamics.STABILITY_LIMIT
STABILITY_HEADROOM = 0.9    # generated grids stay below 90% of the guard


class Workload(NamedTuple):
    command: str
    flags: tuple[str, ...]
    sites: int
    cutoff: int
    t0: float
    steps: int
    positions: int
    why: str


WORKLOADS: dict[str, Workload] = {
    "evolve-ring7": Workload(
        "evolve", ("--compare-strategies",), sites=7, cutoff=16,
        t0=-math.pi, steps=60, positions=7,
        why="Many small steps on dim 119: per-step Python overhead and 119x119 eigh; "
            "the only workload that runs the dense oracle and samples U0 outside the stepper."),
    "gamma-ring16": Workload(
        "gamma", (), sites=16, cutoff=24, t0=-math.pi, steps=25, positions=16,
        why="Few large steps on dim 400: dense eigh and conjugation dominate; all three "
            "Gamma routes, no oracle, the largest dense working set."),
    "sweep-ring7": Workload(
        "sweep", ("--factors", "1,0.5,0.25,0.125"), sites=7, cutoff=16,
        t0=-math.pi, steps=25, positions=7,
        why="The only concurrent path: the cmd_sweep thread pool on top of BLAS threads "
            "oversubscribes the cores."),
    "properties-ring16": Workload(
        "properties", (), sites=16, cutoff=24, t0=-math.pi, steps=25, positions=16,
        why="The only workload that runs the ecs state-algebra suite; no propagation, "
            "so dynamics or oracle changes must not move it."),
}


# Scaling grid (traced runs only): a few steps of dt = GRID_DT per point.
GRID_SITES = (5, 7, 11, 16)
GRID_CUTOFFS = (8, 16, 24)
GRID_STEPS = 4
GRID_DT = 0.05


class Draw(NamedTuple):
    offset: int
    coupling: complex
    k0: int


def draw(seed: int) -> Draw:
    """Seeded model parameters; the same seed gives the same draw."""
    rng = random.Random(seed)
    offset = rng.choice(COUPLING_OFFSETS)
    magnitude = rng.uniform(*COUPLING_RANGE)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    k0 = rng.choice(K0_CHOICES)
    return Draw(offset, magnitude * complex(math.cos(phase), math.sin(phase)), k0)


def check_guards(sites: int, cutoff: int, t0: float, steps: int, d: Draw) -> None:
    """A-priori versions of the program's truncation and stability guards.

    ||H|| <= 2 ||sum_q g_q rho_q|| ||b|| <= 2 * 2|g| * sqrt(cutoff), and the
    program's dynamical amplitude envelope is 2 * sum|g| / omega.
    """
    l1 = 2.0 * abs(d.coupling)
    dt = -t0 / steps
    bound = dt * 2.0 * l1 * math.sqrt(cutoff)
    if bound >= STABILITY_HEADROOM * STABILITY_LIMIT:
        raise ValueError(f"dt*||H|| bound {bound:.3g} too close to the stability guard")
    if (2.0 * l1 / OMEGA) ** 2 > cutoff / 4.0:
        raise ValueError("couplings break the truncation guard")
    if sites < 2 * max(COUPLING_OFFSETS) + 1:
        raise ValueError("lattice too small for distinct +-q offsets")


def config_text(sites: int, cutoff: int, t0: float, steps: int, positions: int,
                seed: int) -> str:
    """INI configuration for one model size, with seeded couplings."""
    d = draw(seed)
    check_guards(sites, cutoff, t0, steps, d)
    g = d.coupling
    return f"""\
[model]
sites = {sites}
length = {float(sites)!r}
dispersion = tight_binding
hopping = 1.0
cutoff = {cutoff}
omega = {OMEGA!r}

[couplings]
{d.offset} = {g.real!r}, {g.imag!r}
{-d.offset} = {g.real!r}, {-g.imag!r}

[initial]
k0 = {d.k0}

[time]
t0 = {t0!r}
t_end = 0.0
steps = {steps}

[strategy]
kind = recoil_phase

[positions]
count = {positions}

[run]
seed = {seed}
"""


def workload_config(name: str, seed: int) -> str:
    w = WORKLOADS[name]
    return config_text(w.sites, w.cutoff, w.t0, w.steps, w.positions, seed)


def cli_args(name: str, config_path: str, out_dir: str, seed: int) -> list[str]:
    """Arguments for `ecsim.cli.main`."""
    w = WORKLOADS[name]
    args = [w.command, "--config", config_path, "--out", out_dir, *w.flags]
    if w.command == "properties":
        args += ["--seed", str(seed)]
    return args
