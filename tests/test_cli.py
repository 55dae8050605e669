import glob
import importlib.util
import json
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from decaylab import cli
from decaylab.cli import (ConfigError, ExperimentConfig, dispatch,
                          exit_code_for, main, parse_config)

BASE_CASE = """
experiment = base-case
scale = 7
seed = 3
s = 1.0
t = 1.0
n_samples = 6
input1.kind = uniform
input1.a = 1.0
input1.b = 2.0
input2.kind = uniform
input2.a = 1.0
input2.b = 2.0
"""


def test_parse_minimal_valid():
    cfg = parse_config(BASE_CASE)
    assert cfg.experiment == "base-case"
    assert cfg.scale == 7
    assert cfg.parameters["s"] == 1.0
    assert cfg.inputs["input1"]["kind"] == "uniform"


def test_parse_rejects_sigma_zero():
    text = """
experiment = quantitative
scale = 6
sigma = 0
input1.kind = uniform
input1.a = 1.0
input1.b = 2.0
input2.kind = uniform
input2.a = 1.0
input2.b = 2.0
"""
    with pytest.raises(ConfigError, match="sigma"):
        parse_config(text)


def test_parse_rejects_duplicates_with_both_lines():
    text = "experiment = decay\nscale = 5\nscale = 6\nband_lo = 2\nband_hi = 8\ninput1.kind = uniform\ninput1.a = 0.0\ninput1.b = 1.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "lines 2 and 3" in msg


def test_parse_collects_all_violations():
    # bad scale + missing s, t + unknown parameter + missing inputs: all listed
    text = "experiment = base-case\nscale = -3\nmystery = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    v = exc.value.violations
    assert len(v) >= 4
    assert any("scale" in x for x in v)
    assert any("mystery" in x for x in v)
    assert any("'s'" in x for x in v)


def test_parse_rejects_unknown_parameter():
    with pytest.raises(ConfigError, match="unknown parameter"):
        parse_config(BASE_CASE + "bogus = 1\n")


def test_dispatch_writes_artifacts(tmp_path):
    report = dispatch(parse_config(BASE_CASE), tmp_path)
    assert exit_code_for(report) == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "band.csv").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "pass"
    assert doc["config"]["experiment"] == "base-case"
    for art in doc["artifacts"]:
        assert (tmp_path / art).exists()


def test_dispatch_deterministic_bytes(tmp_path):
    cfg = parse_config(BASE_CASE)
    outs = []
    for sub in ("a", "b"):
        dispatch(cfg, tmp_path / sub)
        outs.append(tmp_path / sub)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "band.csv").read_bytes() == (outs[1] / "band.csv").read_bytes()


def test_exit_code_fail_on_corrupted_exact_verdict(tmp_path, monkeypatch):
    import decaylab.cli as cli
    from decaylab.pipelines import BaseCaseReport, Verdict

    real = cli.run_base_case

    def corrupted(*args, **kwargs):
        rep = real(*args, **kwargs)
        bad = tuple(list(rep.verdicts) +
                    [Verdict("order-fixture", "exact", False, measured=1.0)])
        return BaseCaseReport(**{**rep.__dict__, "verdicts": bad})

    monkeypatch.setattr(cli, "run_base_case", corrupted)
    report = dispatch(parse_config(BASE_CASE), tmp_path)
    assert exit_code_for(report) == 1
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["status"] == "fail"


def test_main_config_error_exit_2(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("experiment = nope\nscale = 5\n")
    assert main([str(p)]) == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_main_non_finite_parameter_exit_2(tmp_path, capsys, value):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(BASE_CASE)
    code = main([str(cfg_path), "--output", str(tmp_path / "out"),
                 "--param", f"t={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error:" in err and "t must be finite" in err
    assert not (tmp_path / "out" / "report.json").exists()


def test_parse_rejects_non_finite_input_and_list_values():
    with pytest.raises(ConfigError) as exc:
        parse_config(BASE_CASE.replace("input1.b = 2.0", "input1.b = inf")
                     + "exponents_extra = 0.5,nan\n")
    v = exc.value.violations
    assert any("input1.b must be finite" in x for x in v)
    assert any("exponents_extra must be finite" in x for x in v)


def test_main_unexpected_exception_exit_2(tmp_path, capsys, monkeypatch):
    import decaylab.cli as cli

    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "run_base_case", broken)
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(BASE_CASE)
    assert main([str(cfg_path), "--output", str(tmp_path / "out")]) == 2
    assert "runtime error: ZeroDivisionError" in capsys.readouterr().err


def test_main_unwritable_output_exit_2(tmp_path):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(BASE_CASE)
    blocker = tmp_path / "blocker"
    blocker.write_text("i am a file")
    assert main([str(cfg_path), "--output", str(blocker / "sub")]) == 2


@pytest.mark.parametrize("text", [
    "level 11\norigin 1.0\ncount 10\n0.5\n0.5\n",
    "level 11\norigin 1.0\ncount 2\n0.25\n0.25\n0.5\n",
    "level 4\norigin 0.03\ncount 2\n0.5\n0.5\n",
    "origin 4\nlevel 0.0625\ncount 2\n0.5\n0.5\n",
    "level 1100\norigin 0.0\ncount 2\n0.5\n0.5\n",
], ids=["short-body", "long-body", "origin-off-grid", "keys-swapped", "level-past-1022"])
def test_main_rejects_malformed_measure_file(tmp_path, capsys, text):
    mpath = tmp_path / "measure.txt"
    mpath.write_text(text)
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text("experiment = decay\nscale = 8\nseed = 0\n"
                        "band_lo = 16\nband_hi = 128\nn_samples = 24\n"
                        f"input1.kind = file\ninput1.path = {mpath}\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    assert "runtime error: ValueError" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def _shipped(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("text, band", [
    # depth-1 Cantor inputs leave a level-4 product grid: 1/(8h) = 4 < 16
    (lambda: _shipped("induction.cfg").replace("depth = 5", "depth = 1"),
     "lo=16.0, hi=4.0"),
    (lambda: QUANTITATIVE.replace("scale = 6", "scale = 3"), "lo=16.0, hi=8.0"),
], ids=["induction-depth-1", "quantitative-scale-3"])
def test_main_rejects_empty_wide_band(tmp_path, capsys, text, band):
    cfg_path = tmp_path / "band.cfg"
    cfg_path.write_text(text())
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError" in err and band in err
    assert not (out / "report.json").exists()


def test_main_param_override(tmp_path, capsys):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(BASE_CASE)
    out = tmp_path / "out"
    code = main([str(cfg_path), "--output", str(out), "--param", "seed=9"])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["seed"] == 9


def test_main_runs_counterexample_quickly(tmp_path):
    cfg_path = tmp_path / "ce.cfg"
    cfg_path.write_text(
        "experiment = counterexample\nscale = 15\nseed = 1\ns = 0.4\n")
    out = tmp_path / "out"
    code = main([str(cfg_path), "--output", str(out)])
    assert code == 2   # phase budget at scale 15 is too large: runtime error
    cfg_path.write_text(
        "experiment = counterexample\nscale = 20\nseed = 1\ns = 0.4\n")
    code = main([str(cfg_path), "--output", str(out)])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["payload"]["triple_magnitude"] >= 1.0 / 8


def _child_env() -> dict:
    """Environment under which a child interpreter imports decaylab from
    the same tree as this process."""
    import decaylab
    src = os.path.dirname(os.path.dirname(decaylab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_determinism_across_processes(tmp_path):
    import subprocess

    env = _child_env()
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CASE)
    blobs = []
    for sub in ("p1", "p2"):
        out = tmp_path / sub
        r = subprocess.run(
            [sys.executable, "-m", "decaylab.cli", str(cfg_path),
             "--output", str(out)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert r.returncode == 0, r.stderr
        blobs.append(((out / "report.json").read_bytes(), (out / "band.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_dispatch_lattice_and_project(tmp_path):
    text = ("experiment = lattice-set\nscale = 8\nseed = 0\n"
            "s = 0.5\nschedule = 16\n")
    rep = dispatch(parse_config(text), tmp_path / "l")
    assert exit_code_for(rep) == 0
    text = ("experiment = project\nscale = 10\nseed = 0\ns = 0.5\nt = 1.0\n"
            "input1.kind = cantor\ninput1.d = 2\ninput1.keep = 2\ninput1.depth = 5\n"
            "input2.kind = cantor\ninput2.d = 2\ninput2.keep = 2\ninput2.depth = 5\n"
            "input2.seed = 5\n")
    rep = dispatch(parse_config(text), tmp_path / "p")
    assert exit_code_for(rep) == 0
    assert (tmp_path / "p" / "projection.csv").exists()


_IMPORT_PROBE = """
import sys
import decaylab.cli
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy, scipy[:5]
before = set(sys.modules)
assert decaylab.cli.main([sys.argv[1], "--output", sys.argv[2]]) == 0
late = sorted(set(sys.modules) - before)
assert not late, late
"""


def test_import_loads_no_scipy_and_run_loads_nothing(tmp_path):
    # a module first loaded by main() would be timed as part of the run
    import subprocess

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CASE.replace("scale = 7", "scale = 5"))
    r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(cfg_path),
                        str(tmp_path / "out")],
                       capture_output=True, text=True, timeout=300, env=_child_env())
    assert r.returncode == 0, r.stderr


def test_successive_mains_do_not_share_parsed_state(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(BASE_CASE)
    for seed, out in (("11", "a"), ("12", "b")):
        assert main([str(cfg_path), "--output", str(tmp_path / out),
                     "--param", f"seed={seed}"]) == 0
    assert json.loads((tmp_path / "a" / "report.json").read_text())["config"]["seed"] == 11
    assert json.loads((tmp_path / "b" / "report.json").read_text())["config"]["seed"] == 12
    # no --param: the config's own seed, not one left over from a previous call
    assert main([str(cfg_path), "--output", str(tmp_path / "c")]) == 0
    assert json.loads((tmp_path / "c" / "report.json").read_text())["config"]["seed"] == 3


def test_atomic_write_refuses_non_ascii_and_leaves_no_temp(tmp_path):
    target = tmp_path / "report.json"
    cli._atomic_write(str(target), "plain\n")
    assert target.read_bytes() == b"plain\n"
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(str(target), "\u03bc\n")
    assert target.read_bytes() == b"plain\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


# ---------------------------------------------------------------------------
# parameter domains: the registry refuses out-of-domain values before any work
# ---------------------------------------------------------------------------

INDUCTION = """
experiment = induction
scale = 7
seed = 2
exponents = 0.5,0.5,0.5
k = 1
n_samples = 8
input1.kind = cantor
input1.depth = 3
input2.kind = cantor
input2.depth = 3
input3.kind = cantor
input3.depth = 3
"""

PROJECT = """
experiment = project
scale = 10
seed = 0
s = 0.5
t = 1.0
input1.kind = cantor
input1.depth = 5
input2.kind = cantor
input2.depth = 5
"""

FLATTEN = """
experiment = flatten
scale = 8
seed = 5
s = 0.5
t = 0.5
k_max = 1
input1.kind = cantor
input1.depth = 4
input2.kind = cantor
input2.depth = 4
"""

QUANTITATIVE = "experiment = quantitative\nscale = 6\nsigma = 1.0\nn_samples = 24\n" + "".join(
    f"input{i}.kind = uniform\ninput{i}.a = 1.0\ninput{i}.b = 2.0\n" for i in range(1, 5))

LATTICE = "experiment = lattice-set\nscale = 8\nseed = 0\ns = 0.5\nschedule = 4,16\n"

SMALL = {
    "base-case": BASE_CASE,
    "decay": ("experiment = decay\nscale = 8\nband_lo = 16\nband_hi = 128\nn_samples = 12\n"
              "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n"),
    "flatten": FLATTEN,
    "level-sets": ("experiment = level-sets\nscale = 6\nr = 0.03125\n"
                   "input1.kind = uniform\ninput1.a = 0.0\ninput1.b = 1.0\n"),
    "induction": INDUCTION,
    "quantitative": QUANTITATIVE,
    "keystep": ("experiment = keystep\nscale = 7\ns = 0.5\nt = 0.5\n"
                "input1.kind = uniform\ninput1.a = 1.0\ninput1.b = 2.0\n"
                "input2.kind = uniform\ninput2.a = 1.0\ninput2.b = 2.0\n"),
    "project": PROJECT,
    "counterexample": "experiment = counterexample\nscale = 20\nseed = 1\ns = 0.4\n",
    "lattice-set": LATTICE,
}


@pytest.mark.parametrize("base, key, value", [
    (BASE_CASE, "n_samples", "2.5"),
    (BASE_CASE, "s", "-1"),
    (BASE_CASE, "t", "7"),
    (BASE_CASE, "s", "abc"),
    (INDUCTION, "k", "1.7"),
    (INDUCTION, "exponents", "1.5,0.5,0.5"),
    (INDUCTION, "exponents", "0.6,0.6"),
    (PROJECT, "s", "5"),
    (PROJECT, "c", "-1"),
    (PROJECT, "directions.kind", "weird"),
    (FLATTEN, "kappa", "-5"),
    (FLATTEN, "k_max", "2.9"),
    (QUANTITATIVE, "c0", "-2"),
    (LATTICE, "schedule", "0"),
])
def test_out_of_domain_value_is_a_config_error(tmp_path, capsys, base, key, value):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(base)
    out = tmp_path / "out"
    code = main([str(cfg_path), "--output", str(out), "--param", f"{key}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {key} must" in err
    assert not (out / "report.json").exists()


def test_violations_are_reported_together():
    text = BASE_CASE.replace("n_samples = 6", "n_samples = 2.5").replace(
        "input2.a = 1.0", "input2.a = 1.0\ninput2.depth = 3")
    with pytest.raises(ConfigError) as exc:
        parse_config(text.replace("s = 1.0", "s = -1"))
    v = exc.value.violations
    assert any(x.startswith("n_samples must be an integer") for x in v)
    assert any(x.startswith("s must be a real in (0, 1]") for x in v)
    assert any("'input2.depth'" in x for x in v)


def test_inputs_are_numbered_from_one():
    with pytest.raises(ConfigError, match="unknown key group 'input3'"):
        parse_config(BASE_CASE.replace("input2.", "input3."))


_KEYS = ["experiment", "scale", "seed", "s", "t", "c", "k", "r", "k_max", "kappa",
         "sigma", "c0", "exponents", "schedule", "n_samples", "band_lo", "band_hi",
         "input1.kind", "input1.a", "input1.depth", "input1.seed", "input2.kind",
         "input3.kind", "directions.kind", "directions.depth", "input1", ".x", "a.b.c"]
_VALUES = (["base-case", "decay", "flatten", "level-sets", "induction", "quantitative",
            "keystep", "project", "counterexample", "lattice-set", "uniform", "cantor",
            "full", "file", "true", "nan", "-inf", "1e400", "9" * 400, "0.5,0.5,0.5",
            "1,2", "0", "-1", "", "a,b"])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SMALL) + [None]), st.lists(st.tuples(
    st.one_of(st.sampled_from(_KEYS), st.text(max_size=8)),
    st.one_of(st.sampled_from(_VALUES), st.integers(-2 ** 70, 2 ** 70).map(str),
              st.floats(allow_nan=True, allow_infinity=True).map(repr),
              st.text(max_size=8))), max_size=8))
def test_parse_config_raises_only_config_errors(base, overrides):
    # a valid config with some keys overridden, or arbitrary lines
    text = SMALL.get(base, "")
    for key, value in overrides:
        text = cli._apply_override(text, key, value)
    try:
        assert isinstance(parse_config(text), ExperimentConfig)
    except ConfigError:
        pass


def test_extreme_values_raise_only_config_errors():
    # every parameter of every experiment and input kind, at values past any domain
    extremes = ["9" * 400, "-" + "9" * 400, "1e308", "-1e308", "5e-324", "0", "-1",
                "abc", "1,2", "0.5,2", "true", "uniform"]
    for name, text in SMALL.items():
        keys = [*cli.EXPERIMENTS[name].params, "scale", "seed", "input1.kind",
                *(f"input1.{k}" for k in cli.INPUT_KINDS["cantor"]),
                *(f"input1.{k}" for k in cli.INPUT_KINDS["uniform"])]
        for key in keys:
            for value in extremes:
                try:
                    parse_config(cli._apply_override(text, key, value))
                except ConfigError:
                    pass


def _bench_workloads():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # dataclasses resolves the module by name
    spec.loader.exec_module(mod)
    return mod.WORKLOADS.values()


def test_shipped_configs_parse():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.cfg")))
    assert len(paths) == 5
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            parse_config(fh.read())
    for w in _bench_workloads():
        for seed in (w.default_seed, 0, 9):
            parse_config(w.render(seed))


def test_reports_match_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import decaylab
    path = os.path.join(os.path.dirname(decaylab.__file__), "schemas",
                        "runreport.schema.json")
    with open(path, encoding="utf-8") as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    assert sorted(SMALL) == sorted(cli.EXPERIMENTS)
    for name, text in SMALL.items():
        out = tmp_path / name
        dispatch(parse_config(text), out)
        validator.validate(json.loads((out / "report.json").read_text()))
