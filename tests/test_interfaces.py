"""Cross-module plumbing: the public exports, unused imports, Frostman
constants against energies, and experiments run end to end through the CLI
dispatcher."""
import ast
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import decaylab
from decaylab import energy_spatial, frostman_constant, uniform_measure
from decaylab.cli import dispatch, exit_code_for, parse_config

from conftest import random_cantor_measure

MODULES = ["decaylab"] + [f"decaylab.{m.name}"
                          for m in pkgutil.iter_modules(decaylab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _unused_imports(tree: ast.Module) -> list:
    """Imported names neither read anywhere in the module nor listed in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_flags_dead_names():
    src = "import os\nfrom a import b, c as d\nfrom b import e\n__all__ = ['e']\nd()\n"
    assert _unused_imports(ast.parse(src)) == [(1, "os"), (2, "b")]


def test_no_unused_imports():
    found = {path.name: _unused_imports(ast.parse(path.read_text()))
             for path in sorted(Path(decaylab.__file__).parent.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_frostman_constant_monotone_in_range():
    mu = random_cantor_measure(5, depth=4)
    wide = frostman_constant(mu, 0.5, (2.0 ** -8, 0.5)).constant
    narrow = frostman_constant(mu, 0.5, (2.0 ** -6, 0.5)).constant
    assert narrow <= wide + 1e-12


def test_frostman_implies_energy_bound():
    # a measure with Frostman constant C over [delta, delta^eps] has
    # s'-energy at delta bounded by 10 * C * delta^(-eps) for s' = s - 0.01
    delta, eps = 2.0 ** -10, 0.5
    for seed in range(3):
        mu = random_cantor_measure(seed, depth=5)
        s = 0.5
        C = frostman_constant(mu, s, (delta, delta ** eps)).constant
        e = energy_spatial(mu, s - 0.01, delta)
        assert e <= 10.0 * C * delta ** -eps


def test_cli_decay_experiment(tmp_path):
    text = ("experiment = decay\nscale = 10\nseed = 0\n"
            "band_lo = 16\nband_hi = 256\nn_samples = 48\n"
            "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n")
    cfg = parse_config(text)
    rep = dispatch(cfg, tmp_path)
    assert exit_code_for(rep) == 0
    assert (tmp_path / "decay.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert 0.8 <= doc["payload"]["tau_hat"] <= 1.2


def test_cli_file_input_round_trip(tmp_path):
    mu = uniform_measure(1.0, 2.0, 11)
    mpath = tmp_path / "measure.txt"
    mpath.write_text(mu.to_text())
    text = ("experiment = decay\nscale = 8\nseed = 0\n"
            "band_lo = 16\nband_hi = 128\nn_samples = 24\n"
            f"input1.kind = file\ninput1.path = {mpath}\n")
    cfg = parse_config(text)
    rep = dispatch(cfg, tmp_path / "out")
    assert exit_code_for(rep) == 0


def test_cli_induction_experiment(tmp_path):
    text = ("experiment = induction\nscale = 7\nseed = 2\n"
            "exponents = 0.5,0.5,0.5\nk = 1\nn_samples = 8\n"
            "input1.kind = cantor\ninput1.d = 2\ninput1.keep = 2\ninput1.depth = 3\n"
            "input2.kind = cantor\ninput2.d = 2\ninput2.keep = 2\ninput2.depth = 3\n"
            "input3.kind = cantor\ninput3.d = 2\ninput3.keep = 2\ninput3.depth = 3\n")
    cfg = parse_config(text)
    rep = dispatch(cfg, tmp_path)
    assert exit_code_for(rep) == 0
    assert (tmp_path / "chain.csv").exists()


def test_cli_keystep_and_level_sets(tmp_path):
    text = ("experiment = level-sets\nscale = 6\nseed = 0\nr = 0.03125\n"
            "input1.kind = uniform\ninput1.a = 0.0\ninput1.b = 1.0\n")
    cfg = parse_config(text)
    assert exit_code_for(dispatch(cfg, tmp_path / "ls")) == 0
    text = ("experiment = keystep\nscale = 7\nseed = 0\ns = 0.5\nt = 0.5\n"
            "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n"
            "input2.kind = uniform\ninput2.a = 1.0\ninput2.b = 2.0\n")
    cfg = parse_config(text)
    assert exit_code_for(dispatch(cfg, tmp_path / "ks")) == 0
