"""Run configuration: flat key = value sections, loaded from INI-style text.

Complex values are written as "re,im" pairs.  Every run writes its resolved
configuration next to its outputs, floats in their shortest exact form and
the tolerance scale included, so rerunning from that file alone reproduces
the run's outputs byte for byte.
"""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field

from .dynamics import CouplingSet, ModulatorStrategy, TimeGrid
from .hilbert import Dispersion, Lattice, Model, OscillatorSpec
from .observables import PositionGrid


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


DEFAULT_TOLERANCES: dict[str, float] = {
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
    "gamma_hermiticity": 1e-10,
    "closed_diag": 1e-13,
    "phi_const": 1e-10,
    "sweep_order": 1.5,
}

# sweep_order is a lower bound on a convergence order, not a residual; the
# global --tolerance scale factor must leave it alone.
UNSCALED_TOLERANCES = ("sweep_order",)

DEFAULT_CONFIG_TEXT = """\
[model]
sites = 7
length = 7.0
dispersion = tight_binding
hopping = 1.0
cutoff = 16
omega = 2.5

[couplings]
1 = 0.15, 0.0
-1 = 0.15, 0.0

[initial]
k0 = 0

[time]
t0 = -12.566370614359172
t_end = 0.0
steps = 2500

[strategy]
kind = recoil_phase

[positions]
count = 7

[run]
seed = 7
"""


def parse_complex(text: str) -> complex:
    """Parse a "re,im" pair (a bare real is accepted as re,0)."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse complex value {text!r}; expected 're,im'")


def format_float(value: float) -> str:
    """The shortest text that parses back to exactly `value`."""
    return repr(float(value))


def format_complex(value: complex) -> str:
    return f"{format_float(value.real)}, {format_float(value.imag)}"


@dataclass(frozen=True)
class RunConfig:
    model: Model
    couplings: CouplingSet
    k0: int                       # momentum index into the lattice arrays
    k0_quantum: int
    grid: TimeGrid
    strategy_kind: str
    position_count: int
    seed: int
    tolerances: dict[str, float] = field(default_factory=dict)
    tolerance_scale: float = 1.0

    def strategy(self) -> ModulatorStrategy:
        return ModulatorStrategy(kind=self.strategy_kind)

    def positions(self) -> PositionGrid:
        return PositionGrid.uniform(self.model.lattice, self.position_count)

    def tolerance(self, key: str) -> float:
        base = self.tolerances.get(key, DEFAULT_TOLERANCES[key])
        if key in UNSCALED_TOLERANCES:
            return base
        return base * self.tolerance_scale


def require_positive(name: str, value) -> float:
    """`value` as a float if it is a finite number > 0, else a ConfigError naming the input."""
    try:
        number = float(value)
    except ValueError:
        number = float("nan")
    if not 0.0 < number < float("inf"):
        raise ConfigError(f"{name} must be finite and positive, got {value}")
    return number


def _get(cp: configparser.ConfigParser, section: str, key: str, default: str) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key)
    return default


def _validate_truncation(model: Model, couplings: CouplingSet) -> None:
    """Reject configurations whose accumulated displacement amplitude cannot
    fit under the Fock cutoff: both the couplings used directly as state
    coefficients and the dynamical envelope 2*sum|g|/omega must satisfy
    amplitude^2 <= cutoff/4."""
    direct = couplings.operator_amplitude()
    dynamic = 2.0 * couplings.l1_amplitude / model.osc.omega
    amp = max(direct, dynamic)
    if amp ** 2 > model.osc.cutoff / 4.0:
        raise ConfigError(
            f"couplings violate the truncation rule: projected amplitude^2 = "
            f"{amp ** 2:.3g} exceeds cutoff/4 = {model.osc.cutoff / 4.0:.3g}")


def load_config(path: str, strategy_override: str | None = None,
                seed_override: int | None = None,
                tolerance_scale: float = 1.0) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    defaults = configparser.ConfigParser()
    defaults.read_string(DEFAULT_CONFIG_TEXT)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    def get(section: str, key: str) -> str:
        if cp.has_option(section, key):
            return cp.get(section, key)
        return defaults.get(section, key)

    try:
        sites = int(get("model", "sites"))
        length = float(get("model", "length"))
        kind = get("model", "dispersion").strip()
        cutoff = int(get("model", "cutoff"))
        omega = float(get("model", "omega"))
        if kind == "quadratic":
            dispersion = Dispersion.quadratic(mass=float(_get(cp, "model", "mass", "1.0")))
        elif kind == "tight_binding":
            dispersion = Dispersion.tight_binding(hopping=float(get("model", "hopping")))
        elif kind == "flat":
            dispersion = Dispersion.flat(value=float(_get(cp, "model", "value", "0.0")))
        else:
            raise ConfigError(f"unknown dispersion kind {kind!r}")
        lattice = Lattice(sites=sites, length=length)
        model = Model(lattice, dispersion, OscillatorSpec(cutoff=cutoff, omega=omega))

        if cp.has_section("couplings"):
            pairs = {int(q): parse_complex(v) for q, v in cp.items("couplings")}
        else:
            pairs = {int(q): parse_complex(v) for q, v in defaults.items("couplings")}
        couplings = CouplingSet.from_dict(lattice, pairs)

        k0_quantum = int(get("initial", "k0"))
        k0 = lattice.index_of(k0_quantum)

        grid = TimeGrid(t0=float(get("time", "t0")),
                        t_end=float(get("time", "t_end")),
                        steps=int(get("time", "steps")))

        strategy_kind = (strategy_override or get("strategy", "kind")).strip()
        ModulatorStrategy(kind=strategy_kind)  # rejects unknown kinds

        count = int(get("positions", "count"))
        if count < 2:
            raise ConfigError("positions count must be at least 2")
        if sites % count != 0:
            raise ConfigError(
                f"positions count {count} must divide sites {sites} so the grid "
                "stays commensurate with the lattice")

        seed = seed_override if seed_override is not None else int(get("run", "seed"))
        tolerance_scale *= require_positive("[run] tolerance_scale",
                                            _get(cp, "run", "tolerance_scale", "1.0"))

        tolerances: dict[str, float] = {}
        if cp.has_section("tolerances"):
            for key, val in cp.items("tolerances"):
                if key not in DEFAULT_TOLERANCES:
                    raise ConfigError(f"unknown tolerance key {key!r}")
                tolerances[key] = require_positive(f"[tolerances] {key}", float(val))
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    _validate_truncation(model, couplings)
    return RunConfig(model=model, couplings=couplings, k0=k0, k0_quantum=k0_quantum,
                     grid=grid, strategy_kind=strategy_kind, position_count=count,
                     seed=seed, tolerances=tolerances, tolerance_scale=tolerance_scale)


def resolved_config_text(cfg: RunConfig) -> str:
    """Deterministic INI dump of the effective configuration."""
    cp = configparser.ConfigParser()
    d = cfg.model.dispersion
    cp["model"] = {
        "sites": str(cfg.model.lattice.sites),
        "length": format_float(cfg.model.lattice.length),
        "dispersion": d.kind,
        "cutoff": str(cfg.model.osc.cutoff),
        "omega": format_float(cfg.model.osc.omega),
    }
    if d.kind == "quadratic":
        cp["model"]["mass"] = format_float(d.mass)
    elif d.kind == "tight_binding":
        cp["model"]["hopping"] = format_float(d.hopping)
    else:
        cp["model"]["value"] = format_float(d.value)
    cp["couplings"] = {str(q): format_complex(v) for q, v in cfg.couplings.items}
    cp["initial"] = {"k0": str(cfg.k0_quantum)}
    cp["time"] = {"t0": format_float(cfg.grid.t0), "t_end": format_float(cfg.grid.t_end),
                  "steps": str(cfg.grid.steps)}
    cp["strategy"] = {"kind": cfg.strategy_kind}
    cp["positions"] = {"count": str(cfg.position_count)}
    cp["run"] = {"seed": str(cfg.seed),
                 "tolerance_scale": format_float(cfg.tolerance_scale)}
    if cfg.tolerances:
        cp["tolerances"] = {k: format_float(v) for k, v in sorted(cfg.tolerances.items())}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
