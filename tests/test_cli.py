import json
import os

import numpy as np
import pytest

from decaylab.cli import (ConfigError, ExperimentConfig, dispatch,
                          exit_code_for, main, parse_config, serialize_config)

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


def test_round_trip():
    cfg = parse_config(BASE_CASE)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_dispatch_writes_artifacts(tmp_path):
    cfg = parse_config(BASE_CASE)
    cfg = ExperimentConfig(cfg.experiment, cfg.scale, cfg.seed, cfg.parameters,
                           cfg.inputs, str(tmp_path), cfg.threads)
    report = dispatch(cfg)
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
        d = tmp_path / sub
        c = ExperimentConfig(cfg.experiment, cfg.scale, cfg.seed,
                             cfg.parameters, cfg.inputs, str(d), cfg.threads)
        dispatch(c)
        outs.append(d)
    ra = (outs[0] / "report.json").read_bytes()
    rb = (outs[1] / "report.json").read_bytes()
    # the output_dir is echoed in the config block; normalize it away
    assert ra.replace(b"/a", b"/") == rb.replace(b"/b", b"/")
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
    cfg = parse_config(BASE_CASE)
    cfg = ExperimentConfig(cfg.experiment, cfg.scale, cfg.seed, cfg.parameters,
                           cfg.inputs, str(tmp_path), cfg.threads)
    report = dispatch(cfg)
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


def test_output_dir_env_var(tmp_path, monkeypatch):
    from decaylab.cli import ENV_OUTPUT_DIR
    target = tmp_path / "via-env"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(target))
    cfg = parse_config(BASE_CASE)
    report = dispatch(cfg)
    assert exit_code_for(report) == 0
    assert (target / "report.json").exists()


def test_determinism_across_processes(tmp_path):
    import subprocess
    import sys

    import decaylab
    # the child imports decaylab from the same tree as this process
    src = os.path.dirname(os.path.dirname(decaylab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
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
        blobs.append(((out / "report.json").read_bytes().replace(sub.encode(), b"p"),
                      (out / "band.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_dispatch_lattice_and_project(tmp_path):
    text = ("experiment = lattice-set\nscale = 8\nseed = 0\n"
            "s = 0.5\nschedule = 16\n")
    cfg = parse_config(text)
    cfg = ExperimentConfig(cfg.experiment, cfg.scale, cfg.seed, cfg.parameters,
                           cfg.inputs, str(tmp_path / "l"), cfg.threads)
    rep = dispatch(cfg)
    assert exit_code_for(rep) == 0
    text = ("experiment = project\nscale = 10\nseed = 0\ns = 0.5\nt = 1.0\n"
            "input1.kind = cantor\ninput1.d = 2\ninput1.keep = 2\ninput1.depth = 5\n"
            "input2.kind = cantor\ninput2.d = 2\ninput2.keep = 2\ninput2.depth = 5\n"
            "input2.seed = 5\n")
    cfg = parse_config(text)
    cfg = ExperimentConfig(cfg.experiment, cfg.scale, cfg.seed, cfg.parameters,
                           cfg.inputs, str(tmp_path / "p"), cfg.threads)
    rep = dispatch(cfg)
    assert exit_code_for(rep) == 0
    assert (tmp_path / "p" / "projection.csv").exists()
