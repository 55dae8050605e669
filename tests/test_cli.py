import glob
import importlib.util
import json
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decaylab import GridMeasure, cli, uniform_measure
from decaylab.cli import ConfigError, ExperimentConfig, dispatch, main, parse_config

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
    assert report["status"] == "pass"
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
    from decaylab.pipelines import Verdict

    real = cli.run_base_case

    def corrupted(*args, **kwargs):
        payload, verdicts, tables = real(*args, **kwargs)
        bad = verdicts + (Verdict("order-fixture", "exact", False, measured=1.0),)
        return payload, bad, tables

    monkeypatch.setattr(cli, "run_base_case", corrupted)
    report = dispatch(parse_config(BASE_CASE), tmp_path)
    assert report["status"] == "fail"
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


def test_main_rejects_file_input_of_mass_two(tmp_path, capsys):
    # past the loader, a mass-2 input fails young-monotone: a bad input, not a bug
    mu = uniform_measure(0.0, 1.0, 9)
    mpath = tmp_path / "measure.txt"
    mpath.write_text(GridMeasure(mu.level, mu.origin_index, 2 * mu.masses).to_text())
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text("experiment = flatten\nscale = 6\ns = 0.5\nt = 0.5\nk_max = 2\n"
                        f"input1.kind = file\ninput1.path = {mpath}\n"
                        f"input2.kind = file\ninput2.path = {mpath}\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError" in err and "total mass 2.0" in err
    assert not (out / "report.json").exists()


def test_main_refuses_file_input_past_int64_cells(tmp_path, capsys):
    # cells 2**63 - 1024 and 2**63 - 1023 at level 45: their odd numerators
    # would wrap int64, and the band read 0.99734 where the exact value is 0.04094
    paths = []
    for i, origin in enumerate(("262143.99999999997", "0.015625")):
        paths.append(tmp_path / f"m{i}.txt")
        paths[-1].write_text(f"level 45\norigin {origin}\ncount 2\n0.5\n0.5\n")
    cfg_path = tmp_path / "far.cfg"
    cfg_path.write_text("experiment = base-case\nscale = 45\ns = 1.0\nt = 1.0\n"
                        "n_samples = 8\n"
                        f"input1.kind = file\ninput1.path = {paths[0]}\n"
                        f"input2.kind = file\ninput2.path = {paths[1]}\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ValueError: level-45 window")
    assert "2**62" in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_main_refuses_negative_mass_in_file_input(tmp_path, capsys):
    # no roundoff clip: a mass below 0, however small, is a bad input
    mpath = tmp_path / "measure.txt"
    mpath.write_text("level 9\norigin 1.0\ncount 4\n0.5\n-1e-20\n0.0\n0.5\n")
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text("experiment = decay\nscale = 6\nseed = 0\n"
                        "band_lo = 16\nband_hi = 128\nn_samples = 12\n"
                        f"input1.kind = file\ninput1.path = {mpath}\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    assert "runtime error: ValueError: negative mass -1e-20" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_main_refuses_level_sets_at_grid_spacing(tmp_path, capsys):
    # at r = spacing the density is not mollified, and lower-sandwich would read 12 > 8
    masses = np.zeros(64)
    masses[[10, 40]] = 0.5001, 0.4999
    mpath = tmp_path / "atoms.txt"
    mpath.write_text(GridMeasure(9, 0, masses).to_text())
    cfg_path = tmp_path / "ls.cfg"
    cfg_path.write_text("experiment = level-sets\nscale = 6\nr = 0.001953125\n"
                        f"input1.kind = file\ninput1.path = {mpath}\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    assert "below twice the grid spacing" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert main([str(cfg_path), "--output", str(out), "--param", "r=0.00390625"]) == 0
    assert "[PASS] lower-sandwich: measured=6.0" in capsys.readouterr().out


def _shipped(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("text, band", [
    # depth-1 Cantor inputs leave a level-4 product grid: 1/(8h) = 4 < 16
    (lambda: _shipped("induction.cfg").replace("depth = 5", "depth = 1"),
     "lo=16.0, hi=4.0"),
    # quantitative's exact fit is uncapped: [16, 2/delta] is [16, 16] at scale 3
    (lambda: QUANTITATIVE.replace("scale = 6", "scale = 3"), "lo=16.0, hi=16.0"),
], ids=["induction-depth-1", "quantitative-scale-3"])
def test_main_rejects_empty_wide_band(tmp_path, capsys, text, band):
    cfg_path = tmp_path / "band.cfg"
    cfg_path.write_text(text())
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError" in err and band in err
    assert not (out / "report.json").exists()


def test_main_refuses_projection_past_int64(tmp_path, capsys):
    # one level-58 direction cell near y = 1/2: (2a+1) << 59 leaves int64
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text(_shipped("project.cfg") + "directions.kind = cantor\n"
                        "directions.keep = 1\ndirections.depth = 29\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError" in err and "level 10 (A1, A2) and level 58 (Y)" in err
    assert not (out / "report.json").exists()


def test_main_refuses_direction_measure_past_int64_cells(tmp_path, capsys):
    # depth 30 lays the direction measure out at level 63, where a cell near
    # y = 1/2 has index ~2**62: refused when the measure is built
    cfg_path = tmp_path / "deep.cfg"
    cfg_path.write_text(_shipped("project.cfg") + "directions.kind = cantor\n"
                        "directions.keep = 1\ndirections.depth = 30\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ValueError: level-63 window")
    assert "2**62" in err and len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def test_main_refuses_point_past_float_resolution(tmp_path, capsys):
    # scale 40 is grid level 43, where 131072 +- 2**-43 rounds to 131072
    cfg_path = tmp_path / "far.cfg"
    cfg_path.write_text("experiment = project\nscale = 40\ns = 0.5\nt = 1.0\n"
                        "input1.kind = point\ninput1.x = 131072\n"
                        "input2.kind = point\ninput2.x = 0.5\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError: point x=131072.0" in err and "level-43" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("a, b", [
    ("2.0", "1.0"), ("1.0", "1.0"),
    # at scale 8 (level 11) the centers nearest are 204.5 h < 0.1 and 205.5 h > 0.1001
    ("0.1", "0.1001"),
], ids=["inverted", "empty", "no-center"])
def test_main_rejects_bad_uniform_window(tmp_path, capsys, a, b):
    cfg_path = tmp_path / "window.cfg"
    cfg_path.write_text(BASE_CASE.replace("scale = 7", "scale = 8")
                        .replace("input1.a = 1.0", f"input1.a = {a}")
                        .replace("input1.b = 2.0", f"input1.b = {b}"))
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ValueError: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_main_refuses_tiny_non_dyadic_comb(tmp_path, capsys):
    # an absolute tolerance would read r = 1e-9 as 2**-30: a 512 GiB grid
    cfg_path = tmp_path / "comb.cfg"
    cfg_path.write_text("experiment = decay\nscale = 4\nband_lo = 1\nband_hi = 8\n"
                        "input1.kind = comb\ninput1.r = 1e-9\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "runtime error: ValueError" in err and "not a dyadic power" in err
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


def test_main_runs_counterexample_off_the_integer_exponents(tmp_path, capsys):
    # s * scale = 5.1 and 6.6: the comb spacing is the dyadic one nearest delta**s
    cfg_path = tmp_path / "ce.cfg"
    for scale, s in ((17, 0.3), (20, 0.33)):
        cfg_path.write_text(f"experiment = counterexample\nscale = {scale}\ns = {s}\n")
        assert main([str(cfg_path), "--output", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "[PASS] l2-size" in out and "[PASS] triple-transform" in out


def test_main_refuses_counterexample_spacing_above_a_quarter(tmp_path, capsys):
    # round(0.1 * 8) = 1: the dyadic spacing nearest delta**s is 1/2
    cfg_path = tmp_path / "ce.cfg"
    cfg_path.write_text("experiment = counterexample\nscale = 8\ns = 0.1\n")
    out = tmp_path / "out"
    assert main([str(cfg_path), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: ValueError: delta=0.00390625 and s=0.1 give "
                          "the comb spacing 2**-1, above 1/4")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_main_reads_a_file_input_named_true(tmp_path, monkeypatch):
    # "true" is a string like any other: no config value parses as a bool
    monkeypatch.chdir(tmp_path)
    (tmp_path / "true").write_text(uniform_measure(0.0, 1.0, 9).to_text())
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text("experiment = decay\nscale = 6\nband_lo = 16\nband_hi = 128\n"
                        "n_samples = 12\ninput1.kind = file\ninput1.path = true\n")
    assert main([str(cfg_path), "--output", str(tmp_path / "out")]) == 0


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


def test_flatten_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # mul's cumulative route sums its rows with a BLAS matrix-vector product;
    # one BLAS thread and the default count must write the same bytes
    import subprocess

    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "flatten.cfg")
    blobs = []
    for threads in ("1", None):
        env = _child_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        r = subprocess.run([sys.executable, "-m", "decaylab.cli", cfg, "--output", str(out)],
                           capture_output=True, text=True, timeout=300, env=env)
        assert r.returncode == 0, r.stderr
        blobs.append(((out / "report.json").read_bytes(), (out / "flatten.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_dispatch_lattice_and_project(tmp_path):
    text = ("experiment = lattice-set\nscale = 8\nseed = 0\n"
            "s = 0.5\nschedule = 16\n")
    rep = dispatch(parse_config(text), tmp_path / "l")
    assert rep["status"] == "pass"
    assert rep["verdicts"] == [] and rep["payload"] == {"cells": 128}
    text = ("experiment = project\nscale = 10\nseed = 0\ns = 0.5\nt = 1.0\n"
            "input1.kind = cantor\ninput1.d = 2\ninput1.keep = 2\ninput1.depth = 5\n"
            "input2.kind = cantor\ninput2.d = 2\ninput2.keep = 2\ninput2.depth = 5\n"
            "input2.seed = 5\n")
    rep = dispatch(parse_config(text), tmp_path / "p")
    assert rep["status"] == "pass"
    assert (tmp_path / "p" / "projection.csv").exists()


def test_project_payload_summarises_its_scan(tmp_path):
    for t in (1.0, 0.5):        # t = 0.5 tells s + c*t from s + c
        out = tmp_path / str(t)
        dispatch(parse_config(PROJECT.replace("t = 1.0\n", f"t = {t}\n")), out)
        payload = json.loads((out / "report.json").read_text())["payload"]
        y, covering = np.loadtxt(out / "projection.csv", delimiter=",", skiprows=1).T
        assert payload["min_covering"] == covering.min()
        assert payload["max_covering"] == payload["best_covering"] == covering.max()
        assert payload["best_y"] == y[np.argmax(covering)]
        assert payload["fraction_above"] == np.mean(covering >= payload["threshold"])
        # delta**-(s + c*t) at delta = 2**-10, s = 0.5 and the default c = 1/24
        assert payload["threshold"] == pytest.approx(2.0 ** (10 * (0.5 + t / 24)))
        assert payload["passed"] is (payload["best_covering"] >= payload["threshold"])


_IMPORT_PROBE = """
import sys
import decaylab.cli
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not scipy, scipy[:5]
assert "concurrent.futures" not in sys.modules
before = set(sys.modules)
assert decaylab.cli.main([sys.argv[1], "--output", sys.argv[2]]) == 0
late = sorted(set(sys.modules) - before - set(sys.argv[3].split()))
assert not late, late
"""

# the modules `import numpy.random` loads by itself, after decaylab.cli
_RANDOM_PROBE = """
import sys
import decaylab.cli
before = set(sys.modules)
import numpy.random
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_timing_records_stages(tmp_path):
    dispatch(parse_config(PROJECT), tmp_path)
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert sorted(timing) == ["stages"]
    assert [name for name, _ in timing["stages"]] == ["experiment", "write"]


@pytest.mark.parametrize("config", [
    "project.cfg",          # projection_scan's batches
    "flatten.cfg",          # mul's row chunks and l2_at_scale's rows
    "induction.cfg",        # fourier_lattice's batches
    "quantitative.cfg",     # mul's row chunks at scale 8, several per product
], ids=lambda c: c[:-4])
def test_run_starts_no_thread(config, tmp_path):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", config)
    with mock.patch("threading.Thread.start",
                    side_effect=AssertionError("a run started a thread")):
        assert main([path, "--output", str(tmp_path)]) == 0


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


def test_csv_writes_numpy_scalars_as_python_scalars():
    floats = [0.1, -0.0, 5e-324, 1e22, float(2 ** 53 + 1)]
    ints = [2 ** 53 + 1, 0, -7, 1 << 62, 1]
    names = ["a", "b", "c", "d", "e"]
    text = ("name,x,n\n" "a,0.1,9007199254740993\n" "b,-0.0,0\n" "c,5e-324,-7\n"
            "d,1e+22,4611686018427387904\n" "e,9007199254740992.0,1\n")
    py_rows = list(zip(names, floats, ints))
    np_rows = list(zip(names, np.array(floats), np.array(ints, dtype=np.int64)))
    # columns mixing Python and numpy scalars are written value by value
    mixed = [py if i % 2 else nq for i, (py, nq) in enumerate(zip(py_rows, np_rows))]
    for rows in (py_rows, np_rows, mixed):
        assert cli._csv(rows, ("name", "x", "n")) == text
    # and so are columns mixing ints and floats, or text, numbers and bools
    rows = [(1, "x"), (0.5, 2), (np.int64(3), 0.125), (np.float64(0.25), True)]
    assert cli._csv(rows, ("m", "k")) == "m,k\n1,x\n0.5,2\n3,0.125\n0.25,True\n"
    assert cli._csv([], ("x", "n")) == "x,n\n"


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


@pytest.mark.parametrize("experiment", SMALL)
def test_import_loads_no_scipy_and_run_loads_nothing(tmp_path, experiment):
    # a module first loaded by main() would be timed as part of the run;
    # configs with Cantor inputs draw from numpy.random, so it alone may load
    # late there
    import subprocess

    cfg_path = tmp_path / "exp.cfg"
    text = SMALL[experiment]
    cfg_path.write_text(text.replace("scale = 7", "scale = 5") if experiment == "base-case"
                        else text)
    allowed = ""
    if "kind = cantor" in text:
        r = subprocess.run([sys.executable, "-c", _RANDOM_PROBE], capture_output=True,
                           text=True, timeout=300, env=_child_env())
        assert r.returncode == 0, r.stderr
        allowed = r.stdout.strip()
    r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(cfg_path),
                        str(tmp_path / "out"), allowed],
                       capture_output=True, text=True, timeout=300, env=_child_env())
    assert r.returncode == 0, r.stderr


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


SHIPPED = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "configs", "*.cfg")))


def test_shipped_configs_parse():
    assert len(SHIPPED) == 10
    for path in SHIPPED:
        with open(path, encoding="utf-8") as fh:
            parse_config(fh.read())
    for w in _bench_workloads():
        for seed in (w.default_seed, 0, 9):
            parse_config(w.render(seed))


def test_every_experiment_has_a_shipped_config():
    shipped = set()
    for path in SHIPPED:
        with open(path, encoding="utf-8") as fh:
            shipped.add(parse_config(fh.read()).experiment)
    assert shipped == set(cli.EXPERIMENTS)


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_shipped_config_runs(tmp_path, path):
    assert main([path, "--output", str(tmp_path)]) == 0


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


# per experiment: sorted payload keys, the keys of each record in a payload
# list, and the header line of each CSV
FORMATS = {
    "base-case": ("delta l2_mu_sq l2_nu_sq max_magnitude measured_constant "
                  "preconditions_ok reference s t verdicts", {},
                  {"band.csv": "xi,magnitude"}),
    "counterexample": ("l2_reference l2_sq triple_magnitude", {},
                       {"counterexample.csv": "quantity,value"}),
    "decay": ("fit_residual floor_hits tau_hat", {}, {"decay.csv": "xi,magnitude"}),
    "flatten": ("delta energies kappa s symmetry_defect t verdicts", {},
                {"flatten.csv": "r,k,J"}),
    "induction": ("delta exponents input_energies k max_violation rescaled_energy "
                  "tau_hat verdicts", {}, {"chain.csv": "xi,lhs,rhs"}),
    "keystep": ("C delta implication_ok rows s t tau verdicts",
                {"rows": "antecedent consequent diag_indicator_l2 l2_mu_sq l2_pi_sq rho"},
                {"keystep.csv": "rho,l2_mu_sq,antecedent,l2_pi_sq,consequent,diag"}),
    "lattice-set": ("cells", {}, {"covering.csv": "r,covering"}),
    "level-sets": ("class_count classes lower_constant r verdicts", {},
                   {"level_sets.csv": "class,count"}),
    "project": ("best_covering best_y fraction_above max_covering min_covering "
                "passed threshold", {}, {"projection.csv": "y,covering"}),
    "quantitative": ("c0 delta ell n sigma stages tau_measured tau_theory verdicts",
                     {"stages": "energy exponent l2_sq stage"},
                     {"stages.csv": "stage,exponent,energy,l2_sq"}),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_report_format(tmp_path, name):
    keys, records, headers = FORMATS[name]
    rep = dispatch(parse_config(SMALL[name]), tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert json.dumps(rep, sort_keys=True, indent=1) == text
    payload = json.loads(text)["payload"]
    assert sorted(payload) == keys.split()
    for key, fields in records.items():
        assert payload[key]
        assert all(sorted(record) == fields.split() for record in payload[key])
    assert {a: (tmp_path / a).read_text().split("\n", 1)[0] for a in rep["artifacts"]} == headers
