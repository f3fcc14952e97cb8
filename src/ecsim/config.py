"""Run configuration: ``load_config`` reads and checks an INI file of flat
key = value sections, and ``resolved_config_text`` writes the effective one.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .dynamics import ModulatorStrategy, TimeGrid
from .hilbert import (
    DISPERSION_PARAMETERS,
    CoefficientSet,
    Dispersion,
    Lattice,
    Model,
    OscillatorSpec,
)
from .observables import PositionGrid


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


DEFAULT_CONFIG_TEXT = """\
[model]
sites = 7
length = 7.0
dispersion = tight_binding
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
    couplings: CoefficientSet
    k0: int                       # momentum index into the lattice arrays
    grid: TimeGrid
    strategy_kind: str
    position_count: int
    seed: int

    def strategy(self) -> ModulatorStrategy:
        return ModulatorStrategy(kind=self.strategy_kind)

    def positions(self) -> PositionGrid:
        return PositionGrid.uniform(self.model.lattice, self.position_count)


def _require_paired(couplings: CoefficientSet) -> None:
    """Enforce the physical constraint g_{-q} = g_q^* on the coupling function."""
    values = dict(couplings.items)
    for q, v in couplings.items:
        partner = values.get(couplings.lattice.wrap_offset(-q), 0.0)
        if abs(v.conjugate() - partner) > 1e-12 * max(1.0, abs(v)):
            raise ConfigError(
                f"[couplings] violate g_-q = g_q* at offset {q}: g_q = {v}, g_-q = {partner}")


def _require_schema(cp: configparser.ConfigParser,
                    defaults: configparser.ConfigParser) -> None:
    """Reject any section or key outside the schema, so a misspelt or retired
    input fails loudly instead of leaving its default in force.  The schema is
    the sections and keys of DEFAULT_CONFIG_TEXT, the dispersion parameters of
    DISPERSION_PARAMETERS in [model] and any integer offset in [couplings]."""
    schema = {section: set(defaults[section]) for section in defaults.sections()}
    schema["model"] |= {key for key, _ in DISPERSION_PARAMETERS.values()}
    for section in cp:  # includes [DEFAULT], whose keys would reach every section
        if section == configparser.DEFAULTSECT and not cp.defaults():
            continue
        if section not in schema:
            keys = ", ".join(cp[section]) or "none"
            raise ConfigError(f"unknown section [{section}] (keys: {keys})")
        for key in cp[section]:
            if key not in schema[section] and not (
                    section == "couplings" and key.lstrip("+-").isdecimal()):
                raise ConfigError(f"unknown key {key!r} in [{section}]")


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    defaults = configparser.ConfigParser()
    defaults.read_string(DEFAULT_CONFIG_TEXT)
    try:
        if not cp.read(path):  # also a directory
            raise ConfigError(f"cannot read config file: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    _require_schema(cp, defaults)

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
        if kind not in DISPERSION_PARAMETERS:
            raise ConfigError(f"unknown dispersion kind {kind!r}")
        key, default = DISPERSION_PARAMETERS[kind]
        for other, _ in DISPERSION_PARAMETERS.values():
            if other != key and cp.has_option("model", other):
                raise ConfigError(f"[model] key {other!r} is not a parameter of the {kind} "
                                  f"dispersion; its parameter is {key!r}")
        dispersion = Dispersion(kind, float(cp.get("model", key, fallback=default)))
        lattice = Lattice(sites=sites, length=length)
        model = Model(lattice, dispersion, OscillatorSpec(cutoff=cutoff, omega=omega))

        if cp.has_section("couplings"):
            pairs = {int(q): parse_complex(v) for q, v in cp.items("couplings")}
        else:
            pairs = {int(q): parse_complex(v) for q, v in defaults.items("couplings")}
        couplings = CoefficientSet.from_dict(lattice, pairs)
        _require_paired(couplings)

        k0 = lattice.index_of(int(get("initial", "k0")))

        grid = TimeGrid(t0=float(get("time", "t0")),
                        t_end=float(get("time", "t_end")),
                        steps=int(get("time", "steps")))

        strategy_kind = get("strategy", "kind").strip()
        ModulatorStrategy(kind=strategy_kind)  # rejects unknown kinds

        count = int(get("positions", "count"))
        if count < 2:
            raise ConfigError("positions count must be at least 2")
        if sites % count != 0:
            raise ConfigError(
                f"positions count {count} must divide sites {sites} so the grid "
                "stays commensurate with the lattice")

        seed = seed_override if seed_override is not None else int(get("run", "seed"))
        if seed < 0:  # random.Random would silently seed from abs(seed)
            raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    model.osc.check_amplitude(couplings.operator_amplitude())  # couplings as state coefficients
    return RunConfig(model=model, couplings=couplings, k0=k0, grid=grid,
                     strategy_kind=strategy_kind, position_count=count, seed=seed)


def resolved_config_text(cfg: RunConfig) -> str:
    """Deterministic INI dump of the effective configuration, floats in their
    shortest exact form, so rerunning from it alone reproduces a run's
    outputs byte for byte."""
    cp = configparser.ConfigParser()
    d = cfg.model.dispersion
    cp["model"] = {
        "sites": str(cfg.model.lattice.sites),
        "length": format_float(cfg.model.lattice.length),
        "dispersion": d.kind,
        "cutoff": str(cfg.model.osc.cutoff),
        "omega": format_float(cfg.model.osc.omega),
        d.key: format_float(d.parameter),
    }
    cp["couplings"] = {str(q): format_complex(v) for q, v in cfg.couplings.items}
    cp["initial"] = {"k0": str(cfg.model.lattice.quanta[cfg.k0])}
    cp["time"] = {"t0": format_float(cfg.grid.t0), "t_end": format_float(cfg.grid.t_end),
                  "steps": str(cfg.grid.steps)}
    cp["strategy"] = {"kind": cfg.strategy_kind}
    cp["positions"] = {"count": str(cfg.position_count)}
    cp["run"] = {"seed": str(cfg.seed)}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
