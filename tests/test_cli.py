"""Configuration loading and CLI commands."""

import contextlib
import errno
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecsim
import ecsim.cli
import ecsim.dynamics
import ecsim.ecs
import ecsim.hilbert
import ecsim.observables
from conftest import PINNED, hermitian_pair, make_model, shift_matrix
from ecsim.cli import TOLERANCES, main
from ecsim.config import (
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    RunConfig,
    load_config,
    parse_complex,
    resolved_config_text,
)

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


def assert_same_outputs(first, again):
    """The two output directories hold the same files, byte for byte."""
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(again))
    for name in names:
        path = os.path.join(first, name)
        assert read(path) == read(os.path.join(again, name)), path


def main_recording_warnings(argv):
    """main(argv) with every warning recorded, not raised: (exit code, messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, [str(w.message) for w in caught]


def _run_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this ecsim."""
    src = os.path.dirname(os.path.dirname(ecsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_out():
    """scipy is a test dependency only: the package runs on numpy alone."""
    out = _run_python("import sys, ecsim.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


# Every command, with the flags that take it down all of its paths.
COMMANDS = {"properties": ["properties"], "evolve": ["evolve", "--compare-strategies"],
            "gamma": ["gamma"], "sweep": ["sweep", "--factors", "1,0.5"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_leave_optional_modules_out(config_path, tmp_path, command):
    """A fresh process running any command imports neither scipy nor
    numpy.fft, numpy.random or numpy.polynomial: the momentum axis changes
    basis by the cached DFT matrix ``hilbert.fourier``, the property suite
    draws with the stdlib `random`, and the Gauss-Laguerre nodes come from
    numpy.linalg alone."""
    argv = COMMANDS[command] + ["--config", config_path, "--out", str(tmp_path / "o")]
    code = ("import sys, contextlib, io, ecsim.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = ecsim.cli.main({argv!r})\n"
            "print(code, [m for m in sorted(sys.modules) if m.split('.')[0] == 'scipy'\n"
            "             or m.startswith(('numpy.fft', 'numpy.random', 'numpy.polynomial'))])")
    assert _run_python(code) == "0 []\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_take_no_svd(config_path, tmp_path, monkeypatch, command):
    """Every matrix 2-norm a command takes is of a Hermitian matrix, read off
    the symmetric eigensolver: no SVD runs, and np.linalg.norm never takes
    ord=2 of a matrix."""
    def svd(*args, **kw):
        raise AssertionError("np.linalg.svd called")

    norm = np.linalg.norm

    def no_matrix_2_norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2 and (np.ndim(x) == 2 if axis is None else np.size(axis) == 2):
            raise AssertionError("matrix 2-norm taken")
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "norm", no_matrix_2_norm)
    argv = COMMANDS[command] + ["--config", config_path, "--out", str(tmp_path / "o")]
    assert main(argv) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_only_real_eigensolvers(config_path, tmp_path, monkeypatch, command):
    """Every Hermitian problem a command solves is real symmetric: the
    ladder b + b^dag (the stability guard's and the oracle's own), the
    Gauss-Laguerre Jacobi matrix and the unity block.  The caches are cleared
    so each command's first solves are seen."""
    dtypes = []

    def recording(solver):
        def solve(a, *args, **kw):
            dtypes.append(np.asarray(a).dtype)
            return solver(a, *args, **kw)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    ecsim.hilbert.ladder_quadrature.cache_clear()
    ecsim.ecs._laguerre_nodes.cache_clear()
    argv = COMMANDS[command] + ["--config", config_path, "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert dtypes and all(dtype == np.float64 for dtype in dtypes), dtypes


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
    assert TOLERANCES["density_commutation"] == 1e-13


def test_readme_schema_block_is_the_default_config(tmp_path):
    """README's ```ini block documents the schema: it loads, and it resolves
    to the same run as DEFAULT_CONFIG_TEXT."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.ini").write_text(block)
    (tmp_path / "default.ini").write_text(DEFAULT_CONFIG_TEXT)
    documented = load_config(str(tmp_path / "readme.ini"))
    default = load_config(str(tmp_path / "default.ini"))
    assert documented == default
    assert resolved_config_text(documented) == resolved_config_text(default)


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

    bad4 = tmp_path / "bad_seed.ini"
    bad4.write_text(SMALL_CONFIG.replace("seed = 3", "seed = -3"))
    with pytest.raises(ConfigError, match="seed"):
        load_config(str(bad4))
    with pytest.raises(ConfigError, match="seed"):
        load_config(config_path, seed_override=-3)


@pytest.mark.parametrize("text", [
    "sites = 5\n" + SMALL_CONFIG,
    SMALL_CONFIG.replace("count = 5", "count = 5\ncount"),
    SMALL_CONFIG + "\n[initial]\nk0 = 1\n",
], ids=["no-section-header", "key-without-equals", "repeated-section"])
def test_unparsable_config_is_a_configuration_error(tmp_path, capsys, text):
    """Text that configparser rejects exits 2 naming the parse, with nothing written."""
    p = tmp_path / "bad.ini"
    p.write_text(text)
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    assert "cannot parse config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", ["absent", "empty"])
def test_couplings_without_a_section_are_the_default(tmp_path, section):
    """A config with no [couplings] section takes the default couplings; an
    empty [couplings] section means zero coupling."""
    pairs = "\n1 = 0.12, 0.0\n-1 = 0.12, 0.0"
    text = SMALL_CONFIG.replace(pairs, "")
    p = tmp_path / "run.ini"
    p.write_text(text.replace("[couplings]\n", "") if section == "absent" else text)
    (tmp_path / "default.ini").write_text(DEFAULT_CONFIG_TEXT)
    couplings = load_config(str(p)).couplings
    default = load_config(str(tmp_path / "default.ini")).couplings.items
    assert couplings.items == (default if section == "absent" else ()) and default != ()


def test_config_naming_a_directory_is_a_configuration_error(tmp_path, capsys):
    """configparser skips a path it cannot open, so a directory would
    otherwise run the default configuration."""
    out = tmp_path / "o"
    assert main(["properties", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("out", ["afile", "afile/sub", "", "alink"])
def test_out_naming_a_file_is_a_configuration_error(config_path, tmp_path, capsys, monkeypatch,
                                                     command, out):
    """--out at an existing file, below one, at a dangling symlink, or empty
    (none of which os.makedirs can create) exits 2 naming --out before any
    computation, and leaves the file and the link as they were."""
    def no_computation(*args, **kwargs):
        raise AssertionError("--out must be rejected before any computation")

    monkeypatch.setattr(ecsim.cli, "run_properties", no_computation)
    monkeypatch.setattr(ecsim.cli, "zero_order_solution", no_computation)
    (tmp_path / "afile").write_text("kept")
    os.symlink(tmp_path / "missing", tmp_path / "alink")
    argv = COMMANDS[command] + ["--config", config_path, "--out", out and str(tmp_path / out)]
    assert main(argv) == 2
    assert "--out" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept"
    assert os.readlink(tmp_path / "alink") == str(tmp_path / "missing")
    assert not (tmp_path / "missing").exists()


# Each command's cmd_* call with the arguments main passes for COMMANDS.
CMD_CALLS = {"properties": lambda cfg: ecsim.cli.cmd_properties(cfg),
             "evolve": lambda cfg: ecsim.cli.cmd_evolve(cfg, compare_strategies=True),
             "gamma": lambda cfg: ecsim.cli.cmd_gamma(cfg),
             "sweep": lambda cfg: ecsim.cli.cmd_sweep(cfg, ["1", "0.5"])}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_compute_and_main_alone_writes_and_prints(config_path, tmp_path, capsys,
                                                           monkeypatch, command):
    """cmd_<command> returns its Outcome without creating a directory, writing
    a file or printing; main then writes exactly the Outcome's tables and
    texts plus resolved_config.ini, and prints exactly one check line per
    check."""
    monkeypatch.chdir(tmp_path)
    outcome = CMD_CALLS[command](load_config(config_path))
    assert os.listdir(tmp_path) == ["run.ini"]
    assert capsys.readouterr() == ("", "")
    out = tmp_path / "o"
    assert main(COMMANDS[command] + ["--config", config_path, "--out", str(out)]) == 0
    names = [table[0] for table in outcome.tables] + [name for name, _ in outcome.texts]
    assert sorted(os.listdir(out)) == sorted(names + ["resolved_config.ini"])
    for name, text in outcome.texts:
        assert (out / name).read_text() == text
    lines = [ecsim.cli._check_line(c, 6) for c in outcome.checks]
    assert capsys.readouterr() == ("".join(f"{line}\n" for line in lines), "")


# stdout of a command: one `name value=... tol=... PASS|FAIL [note]` line per check
CHECK_LINE = re.compile(r"(\S+) +value=(\S+)  tol=(\S+)  (PASS|FAIL)(?:  (.+))?")


@pytest.mark.parametrize("argv,checks", [
    (["properties"], [(name, "") for name in (
        "density_commutation", "construction_equivalence", "annihilation_action",
        "momentum_shift", "shift_roundtrip", "overlap_formula")]
     + [("unity_resolution", "moments"), ("sum_rule_check", "")]),
    (["evolve", "--compare-strategies"], [("evolve_fidelity", "strategy=static_unit"),
                                          ("evolve_fidelity", "strategy=recoil_phase")]),
    (["evolve"], [("evolve_fidelity", "strategy=recoil_phase")]),
    (["gamma"], [("gamma_agreement", ""), ("gamma_norm", "")]),
    (["sweep", "--factors", "1,0.5"], [("sweep_order", "lower bound")]),
], ids=["properties", "evolve-compare", "evolve", "gamma", "sweep"])
def test_stdout_is_one_check_line_per_check(config_path, tmp_path, capsys, argv, checks):
    """Every command prints its checks in one format and nothing else: one
    line per check, in report order, with the value, the tolerance, the
    verdict and the check's note (for evolve the strategy, for sweep that
    the tolerance is a lower bound)."""
    assert main(argv + ["--config", config_path, "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(checks)
    for line, (name, note) in zip(lines, checks):
        m = CHECK_LINE.fullmatch(line)
        assert m and m[1] == name and m[3] == f"{TOLERANCES[name]:.1e}" and m[4] == "PASS", line
        assert (m[5] or "").startswith(note) and bool(m[5]) == bool(note), line


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fault", ["makedirs-refused", "disk-full-after-one-file"])
def test_write_errors_exit_3_with_one_line(config_path, tmp_path, capsys, monkeypatch,
                                           command, fault):
    """An OSError while main prepares or writes --out, here os.makedirs
    refused or the disk filling after the first file, prints one line naming
    --out and the reason to stderr, no traceback and nothing on stdout, and
    exits 3."""
    written, write_text = [], ecsim.cli._write_text

    def refused(*args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    def fills_up(path, text):
        if written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        written.append(os.path.basename(path))
        write_text(path, text)

    if fault == "makedirs-refused":
        monkeypatch.setattr(os, "makedirs", refused)
    else:
        monkeypatch.setattr(ecsim.cli, "_write_text", fills_up)
    out = tmp_path / "o"
    assert main(COMMANDS[command] + ["--config", config_path, "--out", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    reason = os.strerror(errno.EACCES if fault == "makedirs-refused" else errno.ENOSPC)
    assert stderr.startswith(f"output error: cannot write --out {out}: ")
    assert reason in stderr and stderr.count("\n") == 1
    assert written == ([] if fault == "makedirs-refused" else ["resolved_config.ini"])


def test_non_hermitian_couplings_are_a_configuration_error(tmp_path, capsys):
    p = tmp_path / "unpaired.ini"
    p.write_text(SMALL_CONFIG.replace("-1 = 0.12, 0.0", "-1 = 0.12, 0.05"))
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[couplings]" in err and "offset -1" in err
    assert not out.exists()


@pytest.mark.parametrize("first,second", [("1", "+1"), ("-1", "-01"), ("0", "-0")])
def test_two_keys_naming_one_offset_are_a_configuration_error(tmp_path, capsys, first, second):
    """Keys that parse to the same integer would otherwise keep only the last
    value; the error names both keys.  (Offsets congruent modulo sites are
    distinct keys whose values sum.)"""
    p = tmp_path / "twice.ini"
    text = SMALL_CONFIG.replace("-1 = 0.12, 0.0",
                                f"-1 = 0.12, 0.0\n0 = 0.12, 0.0\n{second} = 0.12, 0.0")
    assert f"\n{first} = 0.12, 0.0\n" in text   # valid if only the last value were kept
    p.write_text(text)
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"keys '{first}' and '{second}' name offset {int(first)}" in err
    assert not out.exists()


@pytest.mark.parametrize("old,new,name", [
    ("steps = 250", "stpes = 25", "'stpes' in [time]"),
    ("kind = recoil_phase", "knd = static_unit", "'knd' in [strategy]"),
    ("seed = 3\n", "seed = 3\ntolerance_scale = 1.0\n", "'tolerance_scale' in [run]"),
    ("seed = 3\n", "seed = 3\n\n[tolerances]\nevolve_fidelity = 1e-30\n", "[tolerances]"),
    ("[positions]", "[position]", "[position]"),
], ids=["misspelt-key", "misspelt-strategy-key", "tolerance-scale", "tolerances-section",
        "unknown-section"])
def test_unknown_section_or_key_is_a_configuration_error(tmp_path, capsys, old, new, name):
    """A key outside the schema would otherwise leave its default in force."""
    assert SMALL_CONFIG.count(old) == 1
    p = tmp_path / "unknown.ini"
    p.write_text(SMALL_CONFIG.replace(old, new))
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and name in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["closed_diag", "gamma_hermiticity"])
def test_unknown_tolerance_key_is_a_configuration_error(tmp_path, capsys, key):
    """The retired [tolerances] section is unknown whatever it holds, and the
    error names the keys it would have set."""
    p = tmp_path / "unknown_key.ini"
    p.write_text(SMALL_CONFIG + f"\n[tolerances]\n{key} = 1e-30\n")
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown section [tolerances]" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_offsets_outside_the_window_give_the_canonical_output(tmp_path, capsys, command):
    """Offsets 6 and -6 wrap onto 1 and -1 on 5 sites: every output, the
    resolved_config.ini that writes canonical offsets included, and the
    report are byte-identical."""
    outs, reports = [], []
    for q in (1, 6):
        p = tmp_path / f"offset-{q}.ini"
        p.write_text(SMALL_CONFIG.replace("\n1 = ", f"\n{q} = ").replace("\n-1 = ", f"\n-{q} = "))
        assert p.read_text().count(f"{q} = 0.12, 0.0") == 2
        outs.append(tmp_path / f"o{q}")
        assert main(COMMANDS[command] + ["--config", str(p), "--out", str(outs[-1])]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert_same_outputs(*outs)


def test_truncation_rule_rejected_before_computation(tmp_path):
    text = SMALL_CONFIG.replace("cutoff = 12", "cutoff = 2")
    text = text.replace("1 = 0.12, 0.0", "1 = 1.0, 0.0").replace("-1 = 1.0, 0.0", "-1 = 1.0, 0.0")
    p = tmp_path / "too_strong.ini"
    p.write_text(text)
    assert main(["properties", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["evolve", "gamma", "sweep"])
def test_short_window_that_fits_runs(tmp_path, command):
    """At omega = 0.2 the static bound 2 sum|g| / omega on the amplitude gives
    amplitude^2 = 5.76 > cutoff/4 = 3, but over t_end - t0 = 1.5 the
    accumulated amplitude stays below sum|g| (t_end - t0) = 0.36: the
    truncation rule tests the closed-form amplitude, so the run goes ahead."""
    p = tmp_path / "slow.ini"
    p.write_text(SMALL_CONFIG.replace("omega = 2.5", "omega = 0.2"))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 0


def test_properties_rejected_by_its_suite_leaves_no_output(tmp_path, capsys):
    """Couplings that pass the truncation rule but leave a coherent tail past
    the cutoff exit 2 before resolved_config.ini is written."""
    p = tmp_path / "strong.ini"
    p.write_text(SMALL_CONFIG.replace("1 = 0.12, 0.0", "1 = 0.85, 0.0"))
    out = tmp_path / "o"
    assert main(["properties", "--config", str(p), "--out", str(out)]) == 2
    assert "coherent tail" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old,new,field", [
    ("omega = 2.5", "omega = nan", "omega"),
    ("omega = 2.5", "omega = inf", "omega"),
    ("hopping = 1.0", "hopping = nan", "hopping"),
    ("length = 5.0", "length = inf", "length"),
    ("t0 = -1.5", "t0 = nan", "t0"),
    ("\n1 = 0.12, 0.0", "\n1 = nan, 0.0", "CoefficientSet value at offset 1"),
], ids=["omega-nan", "omega-inf", "hopping-nan", "length-inf", "t0-nan", "coupling-nan"])
def test_non_finite_input_is_a_configuration_error(tmp_path, capsys, old, new, field):
    assert SMALL_CONFIG.count(old) == 1
    p = tmp_path / "non_finite.ini"
    p.write_text(SMALL_CONFIG.replace(old, new))
    out = tmp_path / "o"
    assert main(["gamma", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "must be finite" in err
    assert not out.exists()  # rejected while loading, before any output or propagation


@pytest.mark.parametrize("argv,error", [
    (["sweep", "--factors", "1,nan"], "--factors must be finite and positive"),
    (["sweep", "--factors", "1,abc"], "--factors must be finite and positive"),
    (["sweep", "--factors", "1"], "strictly decreasing"),
    (["sweep", "--factors", "0.5,1"], "strictly decreasing"),
    (["sweep", "--factors", "1,1"], "strictly decreasing"),
], ids=["factors-nan", "factors-not-a-number", "factors-one", "factors-increasing",
        "factors-repeated"])
def test_non_positive_flag_is_a_configuration_error(config_path, tmp_path, capsys, argv, error):
    """--factors must be finite positive numbers, at least two of them and
    strictly decreasing."""
    out = tmp_path / "o"
    assert main(argv + ["--config", config_path, "--out", str(out)]) == 2
    assert error in capsys.readouterr().err
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


def test_density_commutation_fails_on_a_transposed_circulant(config_path, tmp_path, capsys,
                                                           monkeypatch):
    """Every rho_q transposed (the shift direction flipped) still commutes
    with every other, but is no longer diagonal on the Fourier vectors with
    the values `branches` gives: density_commutation fails by far more than
    round-off, the other 7 checks pass, and every output file is written."""
    circulant = ecsim.cli.circulant
    monkeypatch.setattr(ecsim.cli, "circulant", lambda *args: np.swapaxes(circulant(*args), -1, -2))
    out = tmp_path / "props"
    assert main(["properties", "--config", config_path, "--out", str(out)]) == 1
    first = CHECK_LINE.fullmatch(capsys.readouterr().out.splitlines()[0])
    assert first[1] == "density_commutation" and first[4] == "FAIL" and float(first[2]) > 1.0
    assert sorted(os.listdir(out)) == ["properties_report.txt", "resolved_config.ini"]
    report = (out / "properties_report.txt").read_text()
    assert report.count("FAIL") == 1 and report.count("PASS") == 7


def fourier_reference(sites: int) -> float:
    """max_q ||F rho_q F^dag - diag(e^{2 pi i jq/N})||_F, one q at a time, with
    rho_q entry by entry (conftest.shift_matrix) and the DFT written here
    (exponents reduced mod N, as hilbert.fourier does)."""
    lat, j = ecsim.hilbert.Lattice(sites, float(sites)), np.arange(sites)
    dft = np.exp(-2j * np.pi * (np.outer(j, j) % sites) / sites) / np.sqrt(sites)
    return max(float(np.linalg.norm(dft @ shift_matrix(lat, q) @ dft.conj().T
                                    - np.diag(np.exp(2j * np.pi * (j * q % sites) / sites))))
               for q in range(sites))


@PINNED
@given(st.integers(min_value=2, max_value=64))
@example(2)
@example(3)
@example(63)
@example(64)
def test_density_commutation_matches_a_per_shift_reference(sites):
    """On lattices of 2-64 sites, even and odd, density_commutation reads
    round-off below its tolerance and agrees to 1e-15 with a per-shift loop
    that shares no code with it."""
    model = make_model(sites=sites, cutoff=12, omega=2.5)
    lat = model.lattice
    cfg = RunConfig(model=model, couplings=hermitian_pair(lat, 1, 0.12), k0=lat.index_of(0),
                    grid=ecsim.dynamics.TimeGrid(-1.5, 0.0, 250), strategy_kind="recoil_phase",
                    position_count=sites, seed=3)
    check = ecsim.cli.run_properties(cfg)[0]
    assert check.name == "density_commutation"
    assert check.value < TOLERANCES["density_commutation"]
    assert abs(check.value - fourier_reference(sites)) <= 1e-15


def test_properties_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["properties", "--config", config_path, "--out", str(out1)]) == 0
    assert main(["properties", "--config", config_path, "--out", str(out2)]) == 0
    for name in ("properties_report.txt", "resolved_config.ini"):
        assert read(out1 / name) == read(out2 / name)


def test_table_rows_keep_the_per_value_format(tmp_path):
    """One format for the whole table writes the bytes of formatting each value alone,
    also for negative zero, an integer index column and extreme exponents."""
    values = np.array([[-0.0, 1e-300, -1e300], [0.5, -1e-300, 1e300]])
    rows = np.column_stack((np.arange(len(values)), values))
    path = tmp_path / "table.dat"
    ecsim.cli._write_table(str(path), ["title", "note"], ["index", "a", "b", "c"], rows)
    fmt = ecsim.cli.FLOAT_FMT
    expected = ["# title", "# note", "# index a b c"]
    expected += [" ".join(fmt % v for v in row) for row in zip(range(len(values)), *values.T)]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert "-0.000000000000e+00 1.000000000000e-300" in path.read_text()


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


def test_evolve_stores_the_final_step_of_a_partial_last_stride(tmp_path):
    """401 steps give stride 2: the stored steps are 0, 2, ..., 400 and the
    final 401, so each series has 202 rows from t0 to t_end."""
    p = tmp_path / "ragged.ini"
    p.write_text(SMALL_CONFIG.replace("steps = 250", "steps = 401"))
    out = tmp_path / "ev"
    assert main(["evolve", "--compare-strategies", "--config", str(p), "--out", str(out)]) == 0
    for kind in ("static_unit", "recoil_phase"):
        times = np.loadtxt(out / f"evolve_{kind}.dat")[:, 0]
        assert len(times) == 202
        assert times[0] == -1.5 and times[-1] == 0.0


def test_evolve_at_a_huge_omega_runs_and_warns_of_nothing(tmp_path):
    """At omega = 1e300 the phases nu (t - t0) overflow any Taylor form of
    the nested integrals: evolve still writes both strategies' series and
    warns of nothing (its fidelity check may fail on round-off: exit 1)."""
    p = tmp_path / "huge_omega.ini"
    p.write_text(SMALL_CONFIG.replace("omega = 2.5", "omega = 1e300"))
    out = tmp_path / "o"
    code, caught = main_recording_warnings(["evolve", "--compare-strategies",
                                            "--config", str(p), "--out", str(out)])
    assert code in (0, 1) and caught == []
    assert (out / "evolve_static_unit.dat").exists() and (out / "evolve_recoil_phase.dat").exists()


@pytest.mark.parametrize("value", ["1e16", "1e300"])
def test_evolve_passes_at_a_huge_flat_energy(tmp_path, capsys, value):
    """The oracle measures its free energies from min eps_k, so an |eps_k|
    that dwarfs omega * cutoff does not round the oscillator energies away:
    CI's small config under a flat dispersion of 1e16 or 1e300 passes both
    strategies (1 - F = 5.1e-11; measured from zero it was 6.2e-2 and 1.4e-1)."""
    text = (SMALL_CONFIG.replace(SMALL_DISPERSION, f"dispersion = flat\nvalue = {value}")
            .replace(" = 0.12, 0.0", " = 0.15, 0.0").replace("t0 = -1.5", "t0 = -3.0")
            .replace("steps = 250", "steps = 200"))
    p = tmp_path / "flat.ini"
    p.write_text(text)
    assert main(["evolve", "--compare-strategies", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(" PASS " in line for line in lines)


def test_gamma_command(config_path, tmp_path):
    out = tmp_path / "gm"
    assert main(["gamma", "--config", config_path, "--out", str(out)]) == 0
    summary = (out / "gamma_summary.txt").read_text()
    assert "agreement_check = PASS" in summary
    assert "norm_check = PASS" in summary
    assert "single_mode_coupling = no" in summary
    for name in ("exact", "first_approx", "closed_form"):
        data = np.loadtxt(out / f"gamma_{name}.dat")
        assert data.shape == (25, 4)

    dev = float(next(line.split("=")[1] for line in summary.splitlines()
                     if line.startswith("max_dev_first_vs_closed")))
    assert dev < 1e-6


def test_gamma_fails_on_a_non_unit_exact_state(config_path, tmp_path, capsys, monkeypatch):
    """The exact route has its own check: a rotated-frame state whose norm
    drifted from 1 fails norm_check and exits 1, with every output written,
    although the other two routes still agree."""
    propagate = ecsim.cli.propagate_residual

    def shrunk(*sols, **kwargs):
        return 0.9 * propagate(*sols, **kwargs)

    monkeypatch.setattr(ecsim.cli, "propagate_residual", shrunk)
    out = tmp_path / "gm"
    assert main(["gamma", "--config", config_path, "--out", str(out)]) == 1
    assert sorted(os.listdir(out)) == ["gamma_closed_form.dat", "gamma_exact.dat",
                                       "gamma_first_approx.dat", "gamma_summary.txt",
                                       "resolved_config.ini"]
    summary = (out / "gamma_summary.txt").read_text()
    assert "agreement_check = PASS" in summary
    assert "norm_check = FAIL (tol=1.0e-10)" in summary
    agree, norm = capsys.readouterr().out.splitlines()
    assert agree.startswith("gamma_agreement ") and agree.endswith("  PASS")
    assert norm.startswith("gamma_norm ") and norm.endswith("tol=1.0e-10  FAIL")


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


def test_sweep_requires_t_end_zero(tmp_path, capsys):
    p = tmp_path / "late.ini"
    p.write_text(SMALL_CONFIG.replace("t_end = 0.0", "t_end = 0.5"))
    out = tmp_path / "x"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
    assert "t_end = 0" in capsys.readouterr().err
    assert not out.exists()


# CI's small.ini (.github/workflows/tests.yml)
CI_SMALL_CONFIG = """\
[model]
sites = 5
length = 5.0
dispersion = tight_binding
hopping = 1.0
cutoff = 12
omega = 2.5

[couplings]
1 = 0.15, 0.0
-1 = 0.15, 0.0

[initial]
k0 = 0

[time]
t0 = -3.0
t_end = 0.0
steps = 200

[positions]
count = 5
"""


def test_sweep_gaps_on_the_ci_config_are_pinned(tmp_path, monkeypatch):
    """The gaps of ``sweep`` on CI's small.ini, at full precision, equal the
    gaps of one-member calls (one gamma_exact and one alpha_phi per factor)
    to 1e-13 relative."""
    pinned = [0.17578337574378405, 0.043949402639817156,
              0.010984446640171223, 0.002745881583764271]
    p = tmp_path / "small.ini"
    p.write_text(CI_SMALL_CONFIG)
    tables, write_table = {}, ecsim.cli._write_table

    def recorded(path, meta, columns, rows):
        tables[os.path.basename(path)] = rows
        write_table(path, meta, columns, rows)

    monkeypatch.setattr(ecsim.cli, "_write_table", recorded)
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    gaps = tables["sweep.dat"][:, 1]
    assert np.abs(gaps / pinned - 1.0).max() < 1e-13


@pytest.mark.parametrize("command", ["gamma", "sweep"])
def test_gamma_routes_share_one_u0_evaluation(tmp_path, monkeypatch, command):
    """``gamma`` evaluates U0 once, on the two-state stack [final, |0,k0)], for
    the exact and the first-approximation Gamma; ``sweep`` once for the exact
    Gamma of every member."""
    p = tmp_path / "small.ini"
    p.write_text(CI_SMALL_CONFIG.replace("steps = 200", "steps = 20"))
    u0, calls = ecsim.observables.u0, []
    monkeypatch.setattr(ecsim.observables, "u0",
                        lambda sols, step, states: calls.append(states.shape)
                        or u0(sols, step, states))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    assert calls == [(2 if command == "gamma" else 4, 5, 13)]


@pytest.mark.parametrize("command", ["evolve", "gamma"])
def test_rejected_grid_leaves_no_output(tmp_path, capsys, command):
    """A grid too coarse for the stability guard exits 2 before
    resolved_config.ini is written."""
    p = tmp_path / "coarse.ini"
    p.write_text(SMALL_CONFIG.replace("steps = 250", "steps = 2"))
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    assert "stability guard" in capsys.readouterr().err
    assert not out.exists()


def test_commands_share_one_stability_guard(tmp_path):
    """On this grid dt * ||H_S|| lies within an ulp of the stability guard:
    evolve (which also runs the oracle), gamma and sweep admit or reject it
    alike, and a rejected run writes nothing."""
    p = tmp_path / "boundary.ini"
    p.write_text(SMALL_CONFIG.replace(" = 0.12, 0.0", " = 0.13, 0.0")
                 .replace("t0 = -1.5", "t0 = -8.28888564500302")
                 .replace("steps = 250", "steps = 25"))
    rejected = set()
    for command in ("evolve", "gamma", "sweep"):
        out = tmp_path / command
        code = main([command, "--config", str(p), "--out", str(out)])
        assert code in (0, 1, 2)
        assert out.exists() == (code != 2)
        rejected.add(code == 2)
    assert len(rejected) == 1


def test_evolve_writes_nothing_when_the_oracle_rejects_the_run(tmp_path, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("rejected by the oracle")

    monkeypatch.setattr(ecsim.cli.oracle, "propagate_exact", reject)
    p = tmp_path / "run.ini"
    p.write_text(SMALL_CONFIG.replace("steps = 250", "steps = 20"))
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["properties", "evolve", "gamma", "sweep"])
@pytest.mark.parametrize("coupling", ["1e154", "1e300"])
def test_huge_finite_couplings_are_a_configuration_error(tmp_path, capsys, command, coupling):
    """amplitude^2 overflows a float: the truncation rule still rejects the
    couplings with exit 2, no traceback and no output."""
    p = tmp_path / "huge.ini"
    p.write_text(SMALL_CONFIG.replace(" = 0.12, 0.0", f" = {coupling}, 0.0"))
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    assert "cutoff/4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("dispersion", ["dispersion = quadratic\nmass = 5e-324",
                                        "dispersion = tight_binding\nhopping = 1.7e308"],
                         ids=["tiny-mass", "huge-hopping"])
def test_overflowing_free_spectrum_is_a_configuration_error(tmp_path, capsys, command,
                                                            dispersion):
    """Finite parameters whose energies (mass 5e-324) or energy differences
    (hopping 1.7e308) overflow a float: exit 2, no output and no warning."""
    p = tmp_path / "overflow.ini"
    p.write_text(SMALL_CONFIG.replace(SMALL_DISPERSION, dispersion))
    out = tmp_path / "o"
    code, caught = main_recording_warnings(COMMANDS[command] + ["--config", str(p),
                                                                "--out", str(out)])
    assert code == 2 and caught == []
    assert "overflow a float" in capsys.readouterr().err
    assert not out.exists()


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
    ("dispersion = tight_binding\nhopping = 1.0", "dispersion = flat"),
    ("hopping = 1.0", "hopping = 0.0"),
    ("\n1 = 0.12, 0.0\n-1 = 0.12, 0.0", "\n0 = 0.15, 0.0"),
], ids=["flat-dispersion", "zero-hopping", "couplings-only-at-q0"])
def test_sweep_rejects_an_exact_split(tmp_path, capsys, monkeypatch, old, new):
    """Where H1 vanishes at every step every gap is round-off and has no order:
    a configuration error before any output or propagation, not a failed
    order check, under either strategy."""
    def no_propagation(*args, **kwargs):
        raise AssertionError("an exact split must be rejected before any propagation")

    monkeypatch.setattr(ecsim.cli, "propagate_residual", no_propagation)
    assert SMALL_CONFIG.count(old) == 1
    for kind in ("static_unit", "recoil_phase"):
        p = tmp_path / f"exact-{kind}.ini"
        p.write_text(SMALL_CONFIG.replace(old, new).replace("kind = recoil_phase",
                                                            f"kind = {kind}"))
        out = tmp_path / f"sw-{kind}"
        assert main(["sweep", "--config", str(p), "--out", str(out)]) == 2
        assert "split is exact" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("hopping,code", [("1e-300", 2), ("1e-12", 2), ("1e-9", 0)])
def test_sweep_rejects_a_split_exact_up_to_round_off(tmp_path, capsys, hopping, code):
    """A split that is not exact but within round-off of it (tiny hopping)
    leaves the smallest factor's gap within ~100x of round-off, where the
    order check would fail on noise: a configuration error naming the rule,
    with nothing written.  At hopping 1e-9 the gaps are ~450x round-off and
    the sweep runs and passes."""
    p = tmp_path / "near.ini"
    p.write_text(SMALL_CONFIG.replace("hopping = 1.0", f"hopping = {hopping}")
                 .replace("t0 = -1.5", "t0 = -3.0").replace("steps = 250", "steps = 30"))
    out = tmp_path / "near"
    assert main(["sweep", "--config", str(p), "--out", str(out)]) == code
    if code == 2:
        assert "exact up to round-off" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert "order_check = PASS" in (out / "sweep_summary.txt").read_text()


SMALL_DISPERSION = "dispersion = tight_binding\nhopping = 1.0"
# eps_{+-1} - eps_0 of SMALL_CONFIG: at k0 = 0, recoil_phase has nu_{+-1} = 0.
RESONANT_OMEGA = "0.6909830056250525"
# Each kind with its parameter's key (value as written) and without it (None)
# at omega = 2.5, and the tight-binding model at RESONANT_OMEGA.
RERUN_VARIANTS = [("tight_binding", "1.0", "2.5"), ("tight_binding", None, "2.5"),
                  ("quadratic", "0.75", "2.5"), ("quadratic", None, "2.5"),
                  ("flat", "-0.4", "2.5"), ("flat", None, "2.5"),
                  ("tight_binding", "1.0", RESONANT_OMEGA)]


@pytest.mark.parametrize("argv", [["properties"], ["evolve", "--compare-strategies"],
                                  ["gamma"], ["sweep", "--factors", "1,0.5"]],
                         ids=["properties", "evolve", "gamma", "sweep"])
def test_rerun_from_resolved_config_is_byte_identical(tmp_path, capsys, argv):
    """A run's resolved_config.ini alone reproduces its outputs and its
    report, under every dispersion kind with and without its parameter's key
    and at an exactly resonant omega: every run passes, floats round-trip
    exactly, an absent parameter is written at its default and the --seed
    override is kept."""
    rng = np.random.default_rng(17)
    g = complex(*(0.1 + 0.05 * rng.random(2)))
    t0 = -1.5 - rng.random()
    assert float(f"{g.real:.12e}") != g.real and float(f"{t0:.12e}") != t0
    text = SMALL_CONFIG.replace("\n1 = 0.12, 0.0\n-1 = 0.12, 0.0",
                                f"\n1 = {g.real!r}, {g.imag!r}\n-1 = {g.real!r}, {-g.imag!r}")
    text = text.replace("t0 = -1.5", f"t0 = {t0!r}").replace("steps = 250", "steps = 150")
    for kind, value, omega in RERUN_VARIANTS:
        if argv[0] == "sweep" and kind == "flat":
            continue   # an exact split, which sweep rejects (test_sweep_rejects_an_exact_split)
        key, default = ecsim.hilbert.DISPERSION_PARAMETERS[kind]
        name = f"{kind}-{value}-{omega}"
        p = tmp_path / f"{name}.ini"
        p.write_text(text.replace(SMALL_DISPERSION, f"dispersion = {kind}"
                                  + (f"\n{key} = {value}" if value else ""))
                     .replace("omega = 2.5", f"omega = {omega}"))
        first, again = tmp_path / name / "first", tmp_path / name / "again"
        assert main(argv + ["--config", str(p), "--out", str(first), "--seed", "5"]) == 0, name
        report = capsys.readouterr().out
        resolved = read(first / "resolved_config.ini").decode()
        assert "\nseed = 5\n" in resolved
        assert f"\n{key} = {value or repr(default)}\n" in resolved, name
        assert main(argv + ["--config", str(first / "resolved_config.ini"),
                            "--out", str(again)]) == 0
        assert capsys.readouterr().out == report
        assert_same_outputs(first, again)


@pytest.mark.parametrize("kind,key,expected", [
    ("quadratic", "hopping", "mass"),
    ("tight_binding", "mass", "hopping"),
    ("flat", "hopping", "value"),
], ids=["quadratic-hopping", "tight_binding-mass", "flat-hopping"])
def test_another_kinds_parameter_is_a_configuration_error(tmp_path, capsys, kind, key, expected):
    """A [model] key that names another kind's parameter would otherwise leave
    the kind's own parameter at its default: every command exits 2 naming
    both keys, before any output."""
    p = tmp_path / "other.ini"
    p.write_text(SMALL_CONFIG.replace(SMALL_DISPERSION, f"dispersion = {kind}\n{key} = 2.0"))
    for command in (["properties"], ["evolve", "--compare-strategies"], ["gamma"], ["sweep"]):
        out = tmp_path / command[0]
        assert main(command + ["--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"key {key!r} is not a parameter of the {kind} dispersion" in err
        assert f"its parameter is {expected!r}" in err
        assert not out.exists()


def test_strategy_override(tmp_path):
    p = tmp_path / "static.ini"
    p.write_text(SMALL_CONFIG.replace("kind = recoil_phase", "kind = static_unit"))
    out = tmp_path / "ovr"
    assert main(["evolve", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "evolve_static_unit.dat").exists()
    assert not (out / "evolve_recoil_phase.dat").exists()


# The CI `small.ini` at 30 steps, as (section, key, value) lines; the fuzz
# cases below pick its dispersion and cutoff and replace some of its fields.
FUZZ_FIELDS = (
    ("model", "sites", "5"), ("model", "length", "5.0"), ("model", "dispersion", None),
    ("model", "param", "1.0"), ("model", "cutoff", None), ("model", "omega", "2.5"),
    ("couplings", "1", "0.15, 0.0"), ("couplings", "-1", "0.15, 0.0"),
    ("initial", "k0", "0"),
    ("time", "t0", "-3.0"), ("time", "t_end", "0.0"), ("time", "steps", "30"),
    ("positions", "count", "5"),
)
FUZZ_VALUES = ("0", "-0.0", "1e300", "-1e300", "1e-300", "5e-324", "abc")
FUZZ_OFFSETS = ("0", "2", "6", "-6", "1.5", "abc")
FUZZ_COMMANDS = {"properties": ["properties"], "evolve": ["evolve", "--compare-strategies"],
                 "gamma": ["gamma"], "sweep": ["sweep"]}


def fuzz_config(kind: str, cutoff: int, replace: dict) -> str:
    """The INI text of FUZZ_FIELDS under dispersion `kind`, with `replace`
    mapping a field index to a new value, or to ("offset", key) for a new
    coupling offset."""
    param = ecsim.hilbert.DISPERSION_PARAMETERS[kind][0]
    lines, section = [], None
    for i, (sec, key, value) in enumerate(FUZZ_FIELDS):
        key = param if key == "param" else key
        value = {"dispersion": kind, "cutoff": str(cutoff)}.get(key, value)
        new = replace.get(i, value)
        if isinstance(new, tuple):
            key, new = new[1], value
        if sec != section:
            lines.append(f"\n[{sec}]")
            section = sec
        lines.append(f"{key} = {new}")
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_cases(draw):
    fields = draw(st.lists(st.integers(0, len(FUZZ_FIELDS) - 1), min_size=1, max_size=3,
                           unique=True))
    replace = {}
    for i in fields:
        if FUZZ_FIELDS[i][0] == "couplings" and draw(st.booleans()):
            replace[i] = ("offset", draw(st.sampled_from(FUZZ_OFFSETS)))
        else:
            replace[i] = draw(st.sampled_from(FUZZ_VALUES))
    return (draw(st.sampled_from(sorted(FUZZ_COMMANDS))),
            draw(st.sampled_from(sorted(ecsim.hilbert.DISPERSION_PARAMETERS))),
            draw(st.sampled_from([12, 13])), replace)


@settings(PINNED, max_examples=150)
@given(fuzz_cases())
@example(("properties", "tight_binding", 12, {6: "1e300, 0.0", 7: "1e300, 0.0"}))
@example(("sweep", "tight_binding", 12, {3: "1e-12"}))
@example(("gamma", "quadratic", 12, {3: "5e-324"}))
@example(("evolve", "tight_binding", 12, {5: "1e300"}))
def test_cli_fuzz_exits_cleanly(case):
    """Every command on a small config with one to three fields replaced by
    extreme, degenerate or malformed values: no exception or warning escapes
    `main`, the exit code is 0, 1 or 2, and exit 2 writes no output.  Pinned:
    +-1 = 1e300 (amplitude^2 overflows), a sweep exact up to round-off, a
    quadratic spectrum that overflows, and evolve at omega = 1e300 (whose
    huge phases once overflowed a discarded Taylor form)."""
    command, kind, cutoff, replace = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "fuzz.ini"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fuzz_config(kind, cutoff, replace))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, caught = main_recording_warnings(FUZZ_COMMANDS[command]
                                                   + ["--config", path, "--out", out])
        assert caught == []
        assert code in (0, 1, 2)
        assert os.path.exists(out) == (code != 2)
