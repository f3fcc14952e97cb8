"""Configuration loading and CLI commands."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ecsim
from ecsim.cli import main
from ecsim.config import ConfigError, load_config, parse_complex

SMALL_CONFIG = """\
[model]
sites = 5
length = 5.0
dispersion = tight_binding
hopping = 1.0
cutoff = 12
omega = 2.5

[couplings]
1 = 0.12, 0.0
-1 = 0.12, 0.0

[initial]
k0 = 0

[time]
t0 = -1.5
t_end = 0.0
steps = 250

[strategy]
kind = recoil_phase

[positions]
count = 5

[run]
seed = 3
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(SMALL_CONFIG)
    return str(p)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cli_import_leaves_scipy_out():
    """scipy is a test dependency only: the package runs on numpy alone."""
    src = os.path.dirname(os.path.dirname(ecsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, ecsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_parse_complex():
    assert parse_complex("1.5, -2.0") == 1.5 - 2.0j
    assert parse_complex("0.25") == 0.25 + 0.0j
    with pytest.raises(ConfigError):
        parse_complex("1,2,3")
    with pytest.raises(ConfigError):
        parse_complex("abc")


def test_load_config_roundtrip(config_path):
    cfg = load_config(config_path)
    assert cfg.model.lattice.sites == 5
    assert cfg.couplings.items == ((-1, 0.12 + 0j), (1, 0.12 + 0j))
    assert cfg.k0 == 2  # quantum number 0 sits mid-window
    assert cfg.grid.steps == 250
    assert cfg.strategy_kind == "recoil_phase"
    assert cfg.tolerance("density_commutation") == 1e-13


def test_config_errors(tmp_path, config_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))

    bad = tmp_path / "bad_herm.ini"
    bad.write_text(SMALL_CONFIG.replace("-1 = 0.12, 0.0", "-1 = 0.10, 0.0"))
    with pytest.raises(ConfigError):
        load_config(str(bad))

    bad2 = tmp_path / "bad_pos.ini"
    bad2.write_text(SMALL_CONFIG.replace("count = 5", "count = 3"))
    with pytest.raises(ConfigError):
        load_config(str(bad2))

    bad3 = tmp_path / "bad_k0.ini"
    bad3.write_text(SMALL_CONFIG.replace("k0 = 0", "k0 = 5"))
    with pytest.raises(ConfigError):
        load_config(str(bad3))


def test_truncation_rule_rejected_before_computation(tmp_path):
    text = SMALL_CONFIG.replace("cutoff = 12", "cutoff = 2")
    text = text.replace("1 = 0.12, 0.0", "1 = 1.0, 0.0").replace("-1 = 1.0, 0.0", "-1 = 1.0, 0.0")
    p = tmp_path / "too_strong.ini"
    p.write_text(text)
    assert main(["properties", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("old,new,field", [
    ("omega = 2.5", "omega = nan", "omega"),
    ("omega = 2.5", "omega = inf", "omega"),
    ("hopping = 1.0", "hopping = nan", "hopping"),
    ("length = 5.0", "length = inf", "length"),
    ("t0 = -1.5", "t0 = nan", "t0"),
    ("\n1 = 0.12, 0.0", "\n1 = nan, 0.0", "CouplingSet value at offset 1"),
    ("seed = 3\n", "seed = 3\n\n[tolerances]\nevolve_fidelity = nan\n",
     "[tolerances] evolve_fidelity"),
    ("seed = 3\n", "seed = 3\ntolerance_scale = nan\n", "[run] tolerance_scale"),
], ids=["omega-nan", "omega-inf", "hopping-nan", "length-inf", "t0-nan", "coupling-nan",
        "tolerance-nan", "tolerance-scale-nan"])
def test_non_finite_input_is_a_configuration_error(tmp_path, capsys, old, new, field):
    assert SMALL_CONFIG.count(old) == 1
    p = tmp_path / "non_finite.ini"
    p.write_text(SMALL_CONFIG.replace(old, new))
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be finite" in err
    assert not out.exists()  # rejected while loading, before any output or propagation


@pytest.mark.parametrize("argv,flag", [
    (["properties", "--tolerance", "nan"], "--tolerance"),
    (["properties", "--tolerance", "0"], "--tolerance"),
    (["properties", "--tolerance", "-1"], "--tolerance"),
    (["sweep", "--factors", "1,nan"], "--factors"),
    (["sweep", "--factors", "1,abc"], "--factors"),
], ids=["tolerance-nan", "tolerance-zero", "tolerance-negative", "factors-nan",
        "factors-not-a-number"])
def test_non_positive_flag_is_a_configuration_error(config_path, tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    assert main(argv + ["--config", config_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err and "must be finite and positive" in err
    assert not out.exists()  # rejected before any output or computation


def test_properties_rejects_small_cutoff_before_any_output(tmp_path, capsys):
    p = tmp_path / "small_cutoff.ini"
    p.write_text(SMALL_CONFIG.replace("cutoff = 12", "cutoff = 8"))
    out = tmp_path / "o"
    assert main(["properties", "--config", str(p), "--out", str(out)]) == 2
    assert "cutoff" in capsys.readouterr().err
    assert not out.exists()  # rejected before resolved_config.ini is written


def test_properties_command(config_path, tmp_path, capsys):
    out = tmp_path / "props"
    assert main(["properties", "--config", config_path, "--out", str(out)]) == 0
    report = (out / "properties_report.txt").read_text()
    for name in ("density_commutation", "construction_equivalence",
                 "annihilation_action", "momentum_shift", "shift_roundtrip",
                 "overlap_formula", "unity_resolution", "sum_rule_check"):
        assert f"{name} " in report
    assert report.count("PASS") == 8
    assert "FAIL" not in report
    assert (out / "resolved_config.ini").exists()


def test_properties_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["properties", "--config", config_path, "--out", str(out1)]) == 0
    assert main(["properties", "--config", config_path, "--out", str(out2)]) == 0
    for name in ("properties_report.txt", "resolved_config.ini"):
        assert read(out1 / name) == read(out2 / name)


def test_evolve_zero_coupling_unit_fidelity(tmp_path):
    text = SMALL_CONFIG.replace("1 = 0.12, 0.0\n-1 = 0.12, 0.0", "")
    p = tmp_path / "free.ini"
    p.write_text(text)
    out = tmp_path / "ev0"
    assert main(["evolve", "--config", str(p), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "evolve_recoil_phase.dat")
    assert np.all(rows[:, 1] == 1.0)
    assert np.all(rows[:, 2] == 0.0)


def test_evolve_compare_strategies(config_path, tmp_path):
    out = tmp_path / "ev"
    assert main(["evolve", "--config", config_path, "--out", str(out),
                 "--compare-strategies"]) == 0
    for kind in ("static_unit", "recoil_phase"):
        series = np.loadtxt(out / f"evolve_{kind}.dat")
        assert series.shape[1] == 4
        assert series[:, 1].min() > 1 - 1e-6
        state = np.loadtxt(out / f"state_{kind}.dat")
        norm = np.sqrt(np.sum(state[:, 1] ** 2 + state[:, 2] ** 2))
        assert abs(norm - 1.0) < 1e-8


def test_gamma_command(config_path, tmp_path):
    out = tmp_path / "gm"
    assert main(["gamma", "--config", config_path, "--out", str(out)]) == 0
    summary = (out / "gamma_summary.txt").read_text()
    assert "agreement_check = PASS" in summary
    assert "single_mode_coupling = no" in summary
    for name in ("exact", "first_approx", "closed_form"):
        data = np.loadtxt(out / f"gamma_{name}.dat")
        assert data.shape == (25, 4)

    dev = float(next(line.split("=")[1] for line in summary.splitlines()
                     if line.startswith("max_dev_first_vs_closed")))
    assert dev < 1e-6


def test_gamma_zero_coupling_flat_modulus(tmp_path):
    text = SMALL_CONFIG.replace("1 = 0.12, 0.0\n-1 = 0.12, 0.0", "")
    p = tmp_path / "free.ini"
    p.write_text(text)
    out = tmp_path / "gm0"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 0
    for name in ("exact", "first_approx", "closed_form"):
        data = np.loadtxt(out / f"gamma_{name}.dat")
        mags = np.hypot(data[:, 2], data[:, 3])
        assert np.allclose(mags, 1.0, atol=1e-10)


def test_gamma_requires_t_end_zero(tmp_path):
    text = SMALL_CONFIG.replace("t_end = 0.0", "t_end = 0.5")
    p = tmp_path / "late.ini"
    p.write_text(text)
    assert main(["gamma", "--config", str(p), "--out", str(tmp_path / "x")]) == 2


def test_sweep_command(tmp_path):
    text = SMALL_CONFIG.replace("steps = 250", "steps = 200")
    p = tmp_path / "sw.ini"
    p.write_text(text)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(p), "--out", str(out),
                 "--factors", "1,0.5,0.25"]) == 0
    data = np.loadtxt(out / "sweep.dat")
    assert data.shape == (3, 2)
    assert np.all(np.diff(data[:, 1]) < 0)
    summary = (out / "sweep_summary.txt").read_text()
    assert "order_check = PASS" in summary


def test_sweep_rejects_zero_couplings(tmp_path, capsys):
    p = tmp_path / "free.ini"
    p.write_text(SMALL_CONFIG.replace("1 = 0.12, 0.0\n-1 = 0.12, 0.0", ""))
    out = tmp_path / "sw0"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert "[couplings]" in capsys.readouterr().err
    assert not out.exists()  # rejected before resolved_config.ini is written


@pytest.mark.parametrize("old,new", [
    ("dispersion = tight_binding", "dispersion = flat"),
    ("\n1 = 0.12, 0.0\n-1 = 0.12, 0.0", "\n0 = 0.15, 0.0"),
], ids=["flat-dispersion", "couplings-only-at-q0"])
def test_sweep_rejects_an_exact_split(tmp_path, capsys, old, new):
    """Where H1 vanishes at every step every gap is round-off and has no order:
    a configuration error before any output, not a failed order check."""
    assert SMALL_CONFIG.count(old) == 1
    p = tmp_path / "exact.ini"
    p.write_text(SMALL_CONFIG.replace(old, new))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert "split is exact" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["properties"], ["evolve", "--compare-strategies"],
                                  ["gamma"], ["sweep", "--factors", "1,0.5"]],
                         ids=["properties", "evolve", "gamma", "sweep"])
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, capsys, argv):
    """A run's resolved_config.ini alone reproduces its outputs and its
    report: floats round-trip exactly and the --tolerance scale is kept."""
    rng = np.random.default_rng(17)
    g = complex(*(0.1 + 0.05 * rng.random(2)))
    t0 = -1.5 - rng.random()
    assert float(f"{g.real:.12e}") != g.real and float(f"{t0:.12e}") != t0
    text = SMALL_CONFIG.replace("\n1 = 0.12, 0.0\n-1 = 0.12, 0.0",
                                f"\n1 = {g.real!r}, {g.imag!r}\n-1 = {g.real!r}, {-g.imag!r}")
    p = tmp_path / "run.ini"
    p.write_text(text.replace("t0 = -1.5", f"t0 = {t0!r}").replace("steps = 250", "steps = 150"))
    first, again = tmp_path / "first", tmp_path / "again"
    code = main(argv + ["--config", str(p), "--out", str(first), "--tolerance", "3"])
    report = capsys.readouterr().out
    resolved = str(first / "resolved_config.ini")
    assert load_config(resolved).tolerance_scale == 3.0
    assert load_config(resolved, tolerance_scale=2.0).tolerance_scale == 6.0
    assert main(argv + ["--config", resolved, "--out", str(again)]) == code
    assert capsys.readouterr().out == report
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again))
    for name in names:
        assert read(first / name) == read(again / name), name


def test_strategy_override(config_path, tmp_path):
    out = tmp_path / "ovr"
    assert main(["evolve", "--config", config_path, "--out", str(out),
                 "--strategy", "static_unit"]) == 0
    assert (out / "evolve_static_unit.dat").exists()
    assert not (out / "evolve_recoil_phase.dat").exists()
