"""Cross-module plumbing: the public exports, unused imports, unread
dataclass fields, Frostman constants against energies, experiments run end
to end through the CLI dispatcher, and one injected fault per exact verdict
that makes it fail."""
import ast
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import decaylab
from decaylab import (GridMeasure, convolution, energy_spatial,
                      frostman_constant, pipelines, spectral, uniform_measure)
from decaylab.cli import dispatch, main, parse_config

from conftest import lossy, random_cantor_measure

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


def _fft_uses(tree: ast.Module) -> list:
    """Lines importing numpy.fft (in any form) or reading np.fft / numpy.fft."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("numpy.fft") for a in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("numpy.fft") or (
                    node.module == "numpy" and any(a.name == "fft" for a in node.names)):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.add(node.lineno)
    return sorted(lines)


def test_fft_scan_flags_every_form():
    src = ("import numpy.fft\nfrom numpy.fft import rfft\nfrom numpy import fft\n"
           "x = np.fft.rfft\nfrom numpy import sum\ny = fft\n")
    assert _fft_uses(ast.parse(src)) == [1, 2, 3, 4]


def test_numpy_fft_lives_in_measures_and_spectral():
    # one FFT home per layer: convolutions and autocorrelations in measures,
    # transforms in spectral; every other module calls those
    found = {path.stem for path in Path(decaylab.__file__).parent.glob("*.py")
             if _fft_uses(ast.parse(path.read_text()))}
    assert found == {"measures", "spectral"}


def _cached_functions(tree: ast.Module) -> list:
    """Functions decorated with functools.lru_cache or functools.cache, in any
    import form, with or without a call, in source order."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names
                      if a.name in ("lru_cache", "cache")}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if ((isinstance(dec, ast.Name) and dec.id in names)
                    or (isinstance(dec, ast.Attribute) and dec.attr in ("lru_cache", "cache")
                        and isinstance(dec.value, ast.Name) and dec.value.id in modules)):
                found.append((node.lineno, node.name))
    return [name for _, name in sorted(found)]


def test_cache_scan_flags_every_form():
    src = ("import functools\nfrom functools import cache, lru_cache as memo\n"
           "@functools.lru_cache(maxsize=8)\ndef a(): pass\n"
           "@cache\ndef b(): pass\n"
           "class C:\n    @memo(maxsize=None)\n    def c(self): pass\n"
           "@functools.cache\nasync def d(): pass\n"
           "@other.cache\ndef e(): pass\n@functools.wraps(f)\ndef g(): pass\n")
    assert _cached_functions(ast.parse(src)) == ["a", "b", "c", "d"]


def test_only_next_fast_len_keeps_per_argument_state():
    # a cache keyed on a call's arguments is module state that outlives the
    # call; the one allowed is the pure FFT-length lookup
    found = [f"{path.stem}.{name}"
             for path in sorted(Path(decaylab.__file__).parent.glob("*.py"))
             for name in _cached_functions(ast.parse(path.read_text()))]
    assert found == ["measures.next_fast_len"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in {ast.unparse(d.func if isinstance(d, ast.Call) else d)
                           for d in node.decorator_list}


def test_every_dataclass_field_is_read():
    """Every annotated field of a decaylab dataclass is read as an attribute
    somewhere in the package or its tests.

    The scan matches by name only: a field counts as read when any
    `obj.<name>` load exists, so it misses a field whose name is read on
    some other object.
    """
    package = Path(decaylab.__file__).parent
    src = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))]
    tests = [ast.parse(p.read_text()) for p in sorted(Path(__file__).parent.glob("*.py"))]
    read = {n.attr for tree in src + tests for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls.name}.{st.target.id}"
              for tree in src for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for st in cls.body
              if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
              and st.target.id not in read]
    assert unread == []


def test_frostman_constant_monotone_in_range():
    mu = random_cantor_measure(5, depth=4)
    wide = frostman_constant(mu, 0.5, (2.0 ** -8, 0.5))
    narrow = frostman_constant(mu, 0.5, (2.0 ** -6, 0.5))
    assert narrow <= wide + 1e-12


def test_frostman_implies_energy_bound():
    # a measure with Frostman constant C over [delta, delta^eps] has
    # s'-energy at delta bounded by 10 * C * delta^(-eps) for s' = s - 0.01
    delta, eps = 2.0 ** -10, 0.5
    for seed in range(3):
        mu = random_cantor_measure(seed, depth=5)
        s = 0.5
        C = frostman_constant(mu, s, (delta, delta ** eps))
        e = energy_spatial(mu, s - 0.01, delta)
        assert e <= 10.0 * C * delta ** -eps


def test_cli_decay_experiment(tmp_path):
    text = ("experiment = decay\nscale = 10\nseed = 0\n"
            "band_lo = 16\nband_hi = 256\nn_samples = 48\n"
            "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n")
    cfg = parse_config(text)
    rep = dispatch(cfg, tmp_path)
    assert rep["status"] == "pass"
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
    assert rep["status"] == "pass"


def test_cli_induction_experiment(tmp_path):
    text = ("experiment = induction\nscale = 7\nseed = 2\n"
            "exponents = 0.5,0.5,0.5\nk = 1\nn_samples = 8\n"
            "input1.kind = cantor\ninput1.d = 2\ninput1.keep = 2\ninput1.depth = 3\n"
            "input2.kind = cantor\ninput2.d = 2\ninput2.keep = 2\ninput2.depth = 3\n"
            "input3.kind = cantor\ninput3.d = 2\ninput3.keep = 2\ninput3.depth = 3\n")
    cfg = parse_config(text)
    rep = dispatch(cfg, tmp_path)
    assert rep["status"] == "pass"
    assert (tmp_path / "chain.csv").exists()


def test_cli_keystep_and_level_sets(tmp_path):
    text = ("experiment = level-sets\nscale = 6\nseed = 0\nr = 0.03125\n"
            "input1.kind = uniform\ninput1.a = 0.0\ninput1.b = 1.0\n")
    cfg = parse_config(text)
    assert dispatch(cfg, tmp_path / "ls")["status"] == "pass"
    text = ("experiment = keystep\nscale = 7\nseed = 0\ns = 0.5\nt = 0.5\n"
            "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n"
            "input2.kind = uniform\ninput2.a = 1.0\ninput2.b = 2.0\n")
    cfg = parse_config(text)
    assert dispatch(cfg, tmp_path / "ks")["status"] == "pass"


# ---------------------------------------------------------------------------
# every exact verdict can fail: one injected fault each, seen through main
# ---------------------------------------------------------------------------

def _rescaled(fn, factor: float):
    """fn with the masses of its measure scaled: a normalisation bug that
    sits past the mass checks."""
    def faulty(*args, **kwargs):
        m = fn(*args, **kwargs)
        return GridMeasure(m.level, m.origin_index, m.masses * factor)
    return faulty


def _shifted(fn):
    """fn with its measure moved one cell right: an off-by-one origin."""
    def faulty(*args, **kwargs):
        m = fn(*args, **kwargs)
        return GridMeasure(m.level, m.origin_index + 1, m.masses)
    return faulty


def _class_too_high(fn):
    """_level_set_classes with every class j >= 1 one too high."""
    def faulty(*args, **kwargs):
        cls, sup, base = fn(*args, **kwargs)
        return np.where(cls >= 1, cls + 1, cls), sup, base
    return faulty


def _lossy_plan(kernel, factor: float):
    """A kernel of spectral whose prepared values function loses a factor."""
    def faulty(*args):
        plan = kernel(*args)
        return plan and (plan[0], lambda: lossy(plan[1](), factor))
    return faulty


_FLATTEN = ("experiment = flatten\nscale = 8\nseed = 5\ns = 0.5\nt = 0.5\n"
            "k_max = 1\ninput1.kind = cantor\ninput1.depth = 4\n"
            "input2.kind = cantor\ninput2.depth = 4\n")
# point masses make |F^| = 1, so the order chain holds with equality
_POINT_CHAIN = ("experiment = induction\nscale = 7\nexponents = 0.5,0.5,0.5\n"
                "k = 1\nn_samples = 8\n"
                + "".join(f"input{i}.kind = point\ninput{i}.x = 1.5\n" for i in (1, 2, 3)))
_POINT_LEVELS = ("experiment = level-sets\nscale = 6\nr = 0.00390625\n"
                 "input1.kind = point\ninput1.x = 0.3\n")
_COUNTEREXAMPLE = "experiment = counterexample\nscale = 20\nseed = 1\ns = 0.4\n"

# exact verdict -> (config, module, attribute, fault wrapping the attribute)
FIRE_TESTS = {
    "young-monotone": (_FLATTEN, pipelines, "convolve", lambda f: _rescaled(f, 2.0)),
    "pi-symmetry": (_FLATTEN, convolution, "_reflected", _shifted),
    "order-chain": (_POINT_CHAIN, pipelines, "fourier_lattice", lambda f: lossy(f, 1e-3)),
    "lower-sandwich": (_POINT_LEVELS, pipelines, "_level_set_classes", _class_too_high),
    "l2-size": (_COUNTEREXAMPLE, spectral, "kernel_weights", lambda f: lossy(f, 0.9)),
    "triple-transform": (_COUNTEREXAMPLE, spectral, "_chirp_z", lambda f: _lossy_plan(f, 0.9)),
}


@pytest.mark.parametrize("name", sorted(FIRE_TESTS))
def test_exact_verdict_fires(name, tmp_path, capsys, monkeypatch):
    text, module, attr, fault = FIRE_TESTS[name]
    cfg = tmp_path / "fire.cfg"
    cfg.write_text(text)
    assert main([str(cfg), "--output", str(tmp_path / "clean")]) == 0
    assert f"[PASS] {name}:" in capsys.readouterr().out
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert main([str(cfg), "--output", str(tmp_path / "faulty")]) == 1
    assert f"[FAIL] {name}:" in capsys.readouterr().out


def _exact_verdict_names(tree: ast.Module) -> set:
    """First arguments of the Verdict(<name>, "exact", ...) calls; a Verdict
    whose name or kind is not a literal fails the scan."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Verdict":
            name, kind = node.args[:2]
            assert isinstance(name, ast.Constant) and isinstance(kind, ast.Constant), \
                f"Verdict at line {node.lineno} needs a literal name and kind"
            if kind.value == "exact":
                names.add(name.value)
    return names


def test_exact_verdict_scan_reads_literals():
    tree = ast.parse('Verdict("a", "exact", True)\nVerdict("b", "evidence", True)\n')
    assert _exact_verdict_names(tree) == {"a"}
    with pytest.raises(AssertionError, match="literal name and kind"):
        _exact_verdict_names(ast.parse('Verdict(name, "exact", True)\n'))


def test_every_exact_verdict_has_a_fire_test():
    found = set()
    for path in Path(decaylab.__file__).parent.glob("*.py"):
        found |= _exact_verdict_names(ast.parse(path.read_text()))
    assert found == set(FIRE_TESTS)


# ---------------------------------------------------------------------------
# the test session itself
# ---------------------------------------------------------------------------

_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(pytester):
    # the inner session runs under this project's pytest settings; on a
    # failure hypothesis's plugin imports libcst, whose DeprecationWarning
    # must not become an INTERNALERROR that skips every later test
    inner = pytester.makepyfile(test_inner=_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = pytester.runpytest_subprocess("-c", str(config), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", str(inner))
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
