"""Config-driven command line front end.

One experiment per run, named inside a flat key-value config file so a run
is reproducible from that single file:

    experiment = base-case
    scale = 10
    seed = 7
    s = 1.0
    t = 1.0
    input1.kind = uniform
    input1.a = 1.0
    input1.b = 2.0
    input2.kind = uniform
    input2.a = 1.0
    input2.b = 2.0

`decaylab CONFIG [--param key=value ...] [--output DIR]` runs it, writing a
deterministic report.json plus per-figure CSVs (atomic temp+rename writes).
Wall-clock timings go to a separate timing.json sidecar so that report.json
and the CSVs are byte-identical for identical (config, seed, version).

Exit codes: 0 all verdicts pass (evidence verdicts never gate), 1 an exact
inequality verdict failed, 2 config or runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .constructions import (CantorSpec, make_comb, make_lattice_neighborhood,
                            make_random_frostman, make_shifted_comb,
                            make_thin_interval)
from .dyadic import DyadicGridSet, projection_scan
from .measures import GridMeasure, OVERSAMPLE_BITS, point_mass, uniform_measure
from .pipelines import (Verdict, run_base_case, run_flattening,
                        run_induction_chain, run_keystep_scan, run_level_sets,
                        run_quantitative_decay)
from .spectral import decay_profile, l2_at_scale, product_fourier

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "RunReport",
    "dispatch",
    "emit_plot_data",
    "exit_code_for",
    "main",
]

ENV_OUTPUT_DIR = "DECAYLAB_OUTPUT_DIR"

EXPERIMENTS = {
    "base-case": {"required": ["s", "t"], "optional": {"n_samples": 32},
                  "inputs": 2},
    "decay": {"required": ["band_lo", "band_hi"], "optional": {"n_samples": 48},
              "inputs": 1},
    "flatten": {"required": ["s", "t", "k_max"], "optional": {"kappa": 0.1},
                "inputs": 2},
    "level-sets": {"required": ["r"], "optional": {}, "inputs": 1},
    "induction": {"required": ["exponents", "k"], "optional": {"n_samples": 64},
                  "inputs": -3},
    "quantitative": {"required": ["sigma"], "optional": {"c0": 2.0, "n_samples": 48},
                     "inputs": -2},
    "keystep": {"required": ["s", "t"], "optional": {"C": 2.0, "eps": 0.05},
                "inputs": 2},
    "project": {"required": ["s", "t"], "optional": {"c": 1.0 / 24}, "inputs": 2},
    "counterexample": {"required": ["s"], "optional": {"c": 1.0 / 16}, "inputs": 0},
    "lattice-set": {"required": ["s", "schedule"], "optional": {}, "inputs": 0},
}

_CORE_KEYS = {"experiment", "scale", "seed", "output_dir", "threads"}

_INPUT_KINDS = {"uniform", "cantor", "comb", "shifted-comb", "thin-interval",
                "point", "file"}


class ConfigError(ValueError):
    """Carries every violation found while validating one config."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    scale: int
    seed: int
    parameters: dict
    inputs: dict          # group name ("input1", "directions") -> spec dict
    output_dir: str | None = None
    threads: int = 0      # 0 = all cores (kernels here are single threaded)

    @property
    def delta(self) -> float:
        return 2.0 ** -self.scale

    def as_dict(self) -> dict:
        return {"experiment": self.experiment, "scale": self.scale,
                "seed": self.seed, "parameters": dict(sorted(self.parameters.items())),
                "inputs": {k: dict(sorted(v.items())) for k, v in sorted(self.inputs.items())},
                "output_dir": self.output_dir, "threads": self.threads}


def _parse_scalar(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if "," in raw:
        return tuple(_parse_scalar(p) for p in raw.split(","))
    return raw


def _all_finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation found."""
    violations = []
    seen: dict[str, int] = {}
    flat: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            violations.append(f"line {lineno}: expected 'key = value'")
            continue
        key, raw = (p.strip() for p in body.split("=", 1))
        if key in seen:
            violations.append(
                f"duplicate key {key!r} (lines {seen[key]} and {lineno})")
            continue
        seen[key] = lineno
        flat[key] = _parse_scalar(raw)
        if not _all_finite(flat[key]):
            violations.append(f"line {lineno}: {key} must be finite, got {raw!r}")

    experiment = flat.pop("experiment", None)
    if experiment is None:
        violations.append("missing required key 'experiment'")
    elif experiment not in EXPERIMENTS:
        violations.append(
            f"unknown experiment {experiment!r}; valid: {sorted(EXPERIMENTS)}")
    scale = flat.pop("scale", None)
    if scale is None:
        violations.append("missing required key 'scale' (dyadic level m)")
    elif not isinstance(scale, int) or scale < 1:
        violations.append(f"scale must be a positive integer level, got {scale!r}")
    seed = flat.pop("seed", 0)
    if not isinstance(seed, int):
        violations.append(f"seed must be an integer, got {seed!r}")
    output_dir = flat.pop("output_dir", None)
    threads = flat.pop("threads", 0)
    if not isinstance(threads, int) or threads < 0:
        violations.append(f"threads must be a nonnegative integer, got {threads!r}")

    groups: dict[str, dict] = {}
    params: dict[str, object] = {}
    for key, val in flat.items():
        if "." in key:
            group, sub = key.split(".", 1)
            groups.setdefault(group, {})[sub] = val
        else:
            params[key] = val

    if experiment in EXPERIMENTS:
        schema = EXPERIMENTS[experiment]
        for name in schema["required"]:
            if name not in params:
                violations.append(
                    f"experiment {experiment!r} requires parameter {name!r}")
        known = set(schema["required"]) | set(schema["optional"])
        for name in params:
            if name not in known:
                violations.append(
                    f"unknown parameter {name!r} for experiment {experiment!r}")
        for name, default in schema["optional"].items():
            params.setdefault(name, default)
        n_inputs = schema["inputs"]
        given = sorted(g for g in groups if g.startswith("input"))
        if n_inputs >= 0 and len(given) != n_inputs:
            violations.append(
                f"experiment {experiment!r} needs exactly {n_inputs} inputs, got {len(given)}")
        if n_inputs < 0 and len(given) < -n_inputs:
            violations.append(
                f"experiment {experiment!r} needs at least {-n_inputs} inputs, got {len(given)}")
        for g, spec in groups.items():
            if not g.startswith("input") and g != "directions":
                violations.append(f"unknown key group {g!r}")
            elif spec.get("kind") not in _INPUT_KINDS and g != "directions":
                violations.append(
                    f"{g}.kind must be one of {sorted(_INPUT_KINDS)}, got {spec.get('kind')!r}")
        if experiment == "quantitative":
            sig = params.get("sigma")
            if sig is not None and not (isinstance(sig, (int, float)) and 0 < sig <= 1):
                violations.append(f"sigma must lie in (0, 1], got {sig!r}")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment=experiment, scale=scale, seed=seed,
                            parameters=params, inputs=groups,
                            output_dir=output_dir, threads=threads)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(serialize_config(c)) round-trips."""
    lines = [f"experiment = {config.experiment}",
             f"scale = {config.scale}",
             f"seed = {config.seed}"]
    if config.output_dir is not None:
        lines.append(f"output_dir = {config.output_dir}")
    if config.threads:
        lines.append(f"threads = {config.threads}")
    for k in sorted(config.parameters):
        lines.append(f"{k} = {_format_value(config.parameters[k])}")
    for g in sorted(config.inputs):
        for k in sorted(config.inputs[g]):
            lines.append(f"{g}.{k} = {_format_value(config.inputs[g][k])}")
    return "\n".join(lines) + "\n"


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------

def _build_input(spec: dict, config: ExperimentConfig, index: int) -> GridMeasure:
    kind = spec["kind"]
    level = config.scale + OVERSAMPLE_BITS
    if kind == "uniform":
        return uniform_measure(float(spec["a"]), float(spec["b"]), level)
    if kind == "cantor":
        depth = int(spec.get("depth", 0)) or max(1, config.scale // int(spec.get("d", 2)))
        cs = CantorSpec(block=int(spec.get("d", 2)), keep=int(spec.get("keep", 2)),
                        depth=depth, seed=int(spec.get("seed", config.seed + index)))
        _, mu = make_random_frostman(cs)
        return mu
    if kind == "comb":
        _, rho = make_comb(float(spec["r"]), float(spec.get("c", 1.0 / 16)))
        return rho
    if kind == "shifted-comb":
        return make_shifted_comb(float(spec["s"]), config.delta,
                                 float(spec.get("c", 1.0 / 16)))
    if kind == "thin-interval":
        return make_thin_interval(float(spec["s"]), config.delta,
                                  float(spec.get("c", 0.25)))
    if kind == "point":
        return point_mass(float(spec["x"]), level)
    if kind == "file":
        with open(spec["path"], "r", encoding="ascii") as fh:
            return GridMeasure.from_text(fh.read())
    raise ConfigError([f"unknown input kind {kind!r}"])


def _sorted_inputs(config: ExperimentConfig):
    names = sorted((g for g in config.inputs if g.startswith("input")),
                   key=lambda g: int(g[5:] or 0))
    return [_build_input(config.inputs[g], config, i)
            for i, g in enumerate(names, start=1)]


# ---------------------------------------------------------------------------
# report and dispatch
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    config: dict
    version: str
    verdicts: list
    artifacts: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def status(self) -> str:
        if any(v["kind"] == "exact" and not v["passed"] for v in self.verdicts):
            return "fail"
        return "pass"

    def to_json(self) -> str:
        doc = {"schema": "decaylab-run-report/1",
               "version": self.version,
               "config": self.config,
               "status": self.status(),
               "verdicts": self.verdicts,
               "artifacts": self.artifacts,
               "payload": self.payload}
        return json.dumps(doc, sort_keys=True, indent=1)


def exit_code_for(report: RunReport) -> int:
    return 0 if report.status() == "pass" else 1


def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return "\n".join(lines) + "\n"


def dispatch(config: ExperimentConfig) -> RunReport:
    """Run the configured experiment and write its artifacts atomically."""
    out_dir = config.output_dir or os.environ.get(ENV_OUTPUT_DIR) or "."
    os.makedirs(out_dir, exist_ok=True)
    timings: list[tuple[str, float]] = []
    t0 = time.perf_counter()
    result, verdicts, tables = _run_experiment(config)
    timings.append(("experiment", time.perf_counter() - t0))

    report = RunReport(config=config.as_dict(), version=__version__,
                       verdicts=[_verdict_dict(v) for v in verdicts],
                       payload=result)
    t0 = time.perf_counter()
    paths = emit_plot_data(tables, out_dir)
    report.artifacts = [os.path.basename(p) for p in paths]
    _atomic_write(os.path.join(out_dir, "report.json"), report.to_json())
    timings.append(("write", time.perf_counter() - t0))
    # timings are deliberately outside report.json: they are the only
    # non-reproducible quantity, and report.json is byte-stable per config
    _atomic_write(os.path.join(out_dir, "timing.json"),
                  json.dumps({"stages": [[n, t] for n, t in timings]}, indent=1))
    return report


def _verdict_dict(v: Verdict) -> dict:
    d = v.as_dict()
    d["status"] = ("evidence" if v.kind == "evidence"
                   else ("pass" if v.passed else "fail"))
    return d


def emit_plot_data(tables: dict, out_dir: str) -> list:
    """Write per-figure CSV tables; returns the written paths."""
    paths = []
    for name, (header, rows) in sorted(tables.items()):
        path = os.path.join(out_dir, name)
        _atomic_write(path, _csv(rows, header))
        paths.append(path)
    return paths


def _run_experiment(config: ExperimentConfig):
    exp = config.experiment
    p = config.parameters
    delta = config.delta
    if exp == "base-case":
        mu, nu = _sorted_inputs(config)
        rep = run_base_case(mu, nu, float(p["s"]), float(p["t"]), delta,
                            n_samples=int(p["n_samples"]))
        tables = {"band.csv": (("xi", "magnitude"),
                               list(zip(rep.xi_samples, rep.magnitudes)))}
        return rep.as_dict(), rep.verdicts, tables
    if exp == "decay":
        (mu,) = _sorted_inputs(config)
        prof = decay_profile(mu, (float(p["band_lo"]), float(p["band_hi"])),
                             int(p["n_samples"]))
        verd = (Verdict("tau-finite", "evidence",
                        bool(not prof.all_below_floor), measured=prof.tau_hat),)
        tables = {"decay.csv": (("xi", "magnitude"),
                                list(zip(prof.xi_samples, prof.magnitudes)))}
        payload = {"tau_hat": prof.tau_hat, "fit_residual": prof.fit_residual,
                   "floor_hits": prof.floor_hits}
        return payload, verd, tables
    if exp == "flatten":
        mu, nu = _sorted_inputs(config)
        tr = run_flattening(mu, nu, float(p["s"]), float(p["t"]), delta,
                            int(p["k_max"]), kappa=float(p["kappa"]))
        rows = [(float(r), int(k), float(tr.l2_by_scale[ki, ri]))
                for ki, k in enumerate(tr.k_values)
                for ri, r in enumerate(tr.r_values)]
        tables = {"flatten.csv": (("r", "k", "J"), rows)}
        return tr.as_dict(), tr.verdicts, tables
    if exp == "level-sets":
        (mu,) = _sorted_inputs(config)
        rep = run_level_sets(mu, float(p["r"]))
        rows = sorted((int(j), int(c)) for j, c in rep.classes.items())
        tables = {"level_sets.csv": (("class", "count"), rows)}
        return rep.as_dict(), rep.verdicts, tables
    if exp == "induction":
        measures = _sorted_inputs(config)
        exps = p["exponents"]
        exps = exps if isinstance(exps, tuple) else (exps,)
        rep = run_induction_chain(measures, [float(e) for e in exps], delta,
                                  int(p["k"]), n_samples=int(p["n_samples"]))
        rows = list(zip(rep.xi_samples, rep.lhs, rep.rhs))
        tables = {"chain.csv": (("xi", "lhs", "rhs"), rows)}
        return rep.as_dict(), rep.verdicts, tables
    if exp == "quantitative":
        measures = _sorted_inputs(config)
        rep = run_quantitative_decay(measures, float(p["sigma"]), delta,
                                     c0=float(p["c0"]),
                                     n_samples=int(p["n_samples"]))
        rows = [(s.stage, s.exponent, s.energy, s.l2_sq) for s in rep.stage_reports]
        tables = {"stages.csv": (("stage", "exponent", "energy", "l2_sq"), rows)}
        return rep.as_dict(), rep.verdicts, tables
    if exp == "keystep":
        mu, nu = _sorted_inputs(config)
        rep = run_keystep_scan(mu, nu, float(p["s"]), float(p["t"]), delta,
                               big_c=float(p["C"]), eps=float(p["eps"]))
        rows = [(r.rho, r.l2_mu_sq, int(r.antecedent), r.l2_pi_sq,
                 int(r.consequent), r.diag_indicator_l2) for r in rep.rows]
        tables = {"keystep.csv": (("rho", "l2_mu_sq", "antecedent", "l2_pi_sq",
                                   "consequent", "diag"), rows)}
        return rep.as_dict(), rep.verdicts, tables
    if exp == "project":
        sets = []
        for g in ("input1", "input2"):
            spec = config.inputs[g]
            cs = CantorSpec(block=int(spec.get("d", 2)), keep=int(spec.get("keep", 2)),
                            depth=int(spec["depth"]),
                            seed=int(spec.get("seed", config.seed)))
            X, _ = make_random_frostman(cs)
            sets.append(X)
        level = sets[0].level
        dirs = config.inputs.get("directions", {"kind": "full"})
        if dirs.get("kind", "full") == "full":
            Y = DyadicGridSet(1, level, np.arange(1 << level))
        else:
            cs = CantorSpec(block=int(dirs.get("d", 2)), keep=int(dirs.get("keep", 2)),
                            depth=int(dirs["depth"]), seed=int(dirs.get("seed", config.seed)))
            Y, _ = make_random_frostman(cs)
        rep = projection_scan(sets[0], sets[1], Y,
                              float(p["s"]), float(p["t"]), float(p["c"]))
        verd = (Verdict("projection-floor", "evidence", rep.passed,
                        measured=float(rep.best_covering),
                        detail=f"threshold {rep.threshold}"),)
        rows = list(zip(rep.directions, rep.covering))
        tables = {"projection.csv": (("y", "covering"), rows)}
        return rep.as_dict(), verd, tables
    if exp == "counterexample":
        mu = make_shifted_comb(float(p["s"]), delta, float(p["c"]))
        from .convolution import convolve
        l2 = l2_at_scale(mu, delta) ** 2
        t2 = convolve(mu, mu, "mul")
        mag = abs(product_fourier(t2, mu, 1.0 / delta))
        ref = delta ** (float(p["s"]) - 1.0)
        verd = (
            Verdict("l2-size", "exact", bool(ref / 16 <= l2 <= 16 * ref),
                    measured=float(l2 / ref)),
            Verdict("triple-transform", "exact", bool(mag >= 1.0 / 8),
                    measured=float(mag)),
        )
        payload = {"l2_sq": float(l2), "l2_reference": float(ref),
                   "triple_magnitude": float(mag)}
        tables = {"counterexample.csv": (("quantity", "value"),
                                         [("l2_sq", float(l2)),
                                          ("triple_magnitude", float(mag))])}
        return payload, verd, tables
    if exp == "lattice-set":
        sched = p["schedule"]
        sched = sched if isinstance(sched, tuple) else (sched,)
        X, _ = make_lattice_neighborhood(float(p["s"]),
                                        tuple(int(n) for n in sched), config.scale)
        from .dyadic import covering_number
        rows = []
        for l in range(1, config.scale + 1):
            rows.append((2.0 ** -l, covering_number(X, 2.0 ** -l)))
        verd = (Verdict("nonempty", "exact", bool(X.size > 0),
                        measured=float(X.size)),)
        payload = {"cells": X.size}
        tables = {"covering.csv": (("r", "covering"), rows)}
        return payload, verd, tables
    raise ConfigError([f"unknown experiment {exp!r}"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="decaylab",
                                 description="run one configured experiment")
    ap.add_argument("config", help="path to the experiment config file")
    ap.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE", help="override a config key")
    ap.add_argument("--output", default=None, help="output directory override")
    args = ap.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        for ov in args.param:
            if "=" not in ov:
                raise ConfigError([f"--param needs KEY=VALUE, got {ov!r}"])
            key, val = ov.split("=", 1)
            text = _apply_override(text, key.strip(), val.strip())
        config = parse_config(text)
        if args.output:
            config = ExperimentConfig(config.experiment, config.scale, config.seed,
                                      config.parameters, config.inputs,
                                      args.output, config.threads)
        report = dispatch(config)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for a failed exact verdict: any other failure,
        # expected (I/O, bad input values) or not, is a runtime error
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for v in report.verdicts:
        mark = {"pass": "PASS", "fail": "FAIL", "evidence": "EVID"}[v["status"]]
        print(f"[{mark}] {v['name']}: measured={v['measured']}")
    return exit_code_for(report)


def _apply_override(text: str, key: str, val: str) -> str:
    lines = []
    replaced = False
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        if "=" in body and body.split("=", 1)[0].strip() == key:
            lines.append(f"{key} = {val}")
            replaced = True
        else:
            lines.append(line)
    if not replaced:
        lines.append(f"{key} = {val}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
