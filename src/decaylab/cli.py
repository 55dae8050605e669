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

`decaylab CONFIG [--param key=value ...] [--output DIR]` runs it in DIR
(default: the current directory), writing a deterministic report.json plus
per-figure CSVs (atomic temp+rename writes).  Wall-clock timings go to a
separate timing.json sidecar, so that report.json and the CSVs are
byte-identical for identical (config, seed, version).  dispatch(config,
out_dir) runs one parsed config and returns the report.json document it
wrote, as a dict.

Each experiment is one EXPERIMENTS entry: its parameters (type, domain,
default), its input arity and its runner; input groups are checked against
their kind in INPUT_KINDS.  parse_config reports every violation at once,
before any work runs.

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
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .constructions import (CantorSpec, make_comb, make_lattice_neighborhood,
                            make_random_frostman, make_shifted_comb,
                            make_thin_interval)
from .convolution import convolve
from .dyadic import DyadicGridSet, covering_number, projection_scan
from .measures import (GridMeasure, OVERSAMPLE_BITS, _MASS_RTOL, point_mass,
                       uniform_measure)
from .pipelines import (Verdict, run_base_case, run_flattening,
                        run_induction_chain, run_keystep_scan, run_level_sets,
                        run_quantitative_decay)
from .spectral import decay_profile, l2_at_scale, product_fourier

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "EXPERIMENTS",
    "INPUT_KINDS",
    "parse_config",
    "dispatch",
    "main",
]


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

    @property
    def delta(self) -> float:
        return 2.0 ** -self.scale


# ---------------------------------------------------------------------------
# parameter domains
# ---------------------------------------------------------------------------

REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One config value: its type, its domain and its default.

    The domain is an interval such as "(0, 1]" or "[1, inf)" for numbers, and
    "a|b" for a choice of strings ("" for any string).  The default is
    REQUIRED when the value must be given, and None when it is derived from
    other values at run time.
    """

    type: type = float            # int, float or str
    domain: str = "(-inf, inf)"
    default: object = REQUIRED
    many: bool = False            # a comma-separated list of such values

    def accepts(self, v) -> bool:
        if self.many and isinstance(v, tuple):
            return all(Param(self.type, self.domain).accepts(x) for x in v)
        if self.type is str:
            return isinstance(v, str) and (not self.domain or v in self.domain.split("|"))
        if isinstance(v, bool) or not isinstance(v, int if self.type is int else (int, float)):
            return False
        # bounds as the constructors and pipelines compare them, in floats
        lo, hi = (float(b) if "inf" in b else float(Fraction(b))
                  for b in self.domain[1:-1].split(","))
        return ((lo < v if self.domain[0] == "(" else lo <= v)
                and (v < hi if self.domain[-1] == ")" else v <= hi))

    def describe(self) -> str:
        if self.type is str:
            return "one of " + self.domain.replace("|", ", ") if self.domain else "a string"
        noun = "integer" if self.type is int else "real"
        text = f"a list of {noun}s" if self.many else f"a{'n' * (noun == 'integer')} {noun}"
        return f"{text} in {self.domain}"


_UNIT = Param(float, "(0, 1]")
_CORE = {"scale": Param(int, "[1, inf)"), "seed": Param(int, "[0, inf)", 0)}
_CANTOR = {"d": Param(int, "[1, inf)", 2), "keep": Param(int, "[1, inf)", 2),
           "depth": Param(int, "[0, inf)", 0),      # 0: max(1, scale // d)
           "seed": Param(int, "[0, inf)", None)}     # None: config seed + input index
INPUT_KINDS = {
    "uniform": {"a": Param(), "b": Param()},
    "cantor": _CANTOR,
    "comb": {"r": Param(float, "(0, 1/4]"), "c": Param(float, "(0, 1/8]", 1.0 / 16)},
    "shifted-comb": {"s": Param(float, "(0, 1/2)"), "c": Param(float, "(0, 1/8]", 1.0 / 16)},
    "thin-interval": {"s": Param(float, "(0, 2/3)"), "c": Param(float, "(0, 1/2]", 0.25)},
    "point": {"x": Param()},
    "file": {"path": Param(str, "")},
}
_INPUT_KIND = Param(str, "|".join(INPUT_KINDS))
_DIRECTIONS = (Param(str, "full|cantor", "full"), {"full": {}, "cantor": _CANTOR})


def _as_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _build_input(spec: dict, config: ExperimentConfig, index: int) -> GridMeasure:
    kind = spec["kind"]
    spec = {**{k: p.default for k, p in INPUT_KINDS[kind].items()}, **spec}
    level = config.scale + OVERSAMPLE_BITS
    if kind == "uniform":
        return uniform_measure(float(spec["a"]), float(spec["b"]), level)
    if kind == "cantor":
        depth = spec["depth"] or max(1, config.scale // spec["d"])
        seed = config.seed + index if spec["seed"] is None else spec["seed"]
        return make_random_frostman(CantorSpec(block=spec["d"], keep=spec["keep"],
                                               depth=depth, seed=seed))[1]
    if kind == "comb":
        return make_comb(float(spec["r"]), float(spec["c"]))
    if kind == "shifted-comb":
        return make_shifted_comb(float(spec["s"]), config.delta, float(spec["c"]))
    if kind == "thin-interval":
        return make_thin_interval(float(spec["s"]), config.delta, float(spec["c"]))
    if kind == "point":
        return point_mass(float(spec["x"]), level)
    with open(spec["path"], "r", encoding="ascii") as fh:
        mu = GridMeasure.from_text(fh.read())
    if abs(mu.total_mass - 1.0) > _MASS_RTOL:
        raise ValueError(f"file input {spec['path']} has total mass "
                         f"{mu.total_mass!r}; it must be a probability measure")
    return mu


def _cells(mu: GridMeasure) -> DyadicGridSet:
    """The cells carrying mass, at the level the measure was oversampled from."""
    return mu.occupied_set(mu.level - OVERSAMPLE_BITS)


# ---------------------------------------------------------------------------
# runners: (parameters, inputs, config) -> (payload, verdicts, tables); they
# look pipelines up in module globals at call time, so callers may rebind them
# ---------------------------------------------------------------------------

def _run_base_case(p, inputs, config):
    return run_base_case(*inputs, float(p["s"]), float(p["t"]), config.delta,
                         n_samples=int(p["n_samples"]))


def _run_decay(p, inputs, config):
    prof = decay_profile(*inputs, (float(p["band_lo"]), float(p["band_hi"])),
                         int(p["n_samples"]))
    verd = (Verdict("tau-finite", "evidence",
                    bool(not prof.all_below_floor), measured=prof.tau_hat),)
    payload = {"tau_hat": prof.tau_hat, "fit_residual": prof.fit_residual,
               "floor_hits": prof.floor_hits}
    rows = list(zip(prof.xi_samples, prof.magnitudes))
    return payload, verd, {"decay.csv": (("xi", "magnitude"), rows)}


def _run_flatten(p, inputs, config):
    return run_flattening(*inputs, float(p["s"]), float(p["t"]), config.delta,
                          int(p["k_max"]), kappa=float(p["kappa"]))


def _run_level_sets(p, inputs, config):
    return run_level_sets(*inputs, float(p["r"]))


def _run_induction(p, inputs, config):
    return run_induction_chain(inputs, [float(e) for e in _as_tuple(p["exponents"])],
                               config.delta, int(p["k"]), n_samples=int(p["n_samples"]))


def _run_quantitative(p, inputs, config):
    return run_quantitative_decay(inputs, float(p["sigma"]), config.delta,
                                  c0=float(p["c0"]), n_samples=int(p["n_samples"]))


def _run_keystep(p, inputs, config):
    return run_keystep_scan(*inputs, float(p["s"]), float(p["t"]), config.delta,
                            big_c=float(p["C"]), eps=float(p["eps"]))


def _run_project(p, inputs, config):
    A1, A2 = map(_cells, inputs)
    dirs = config.inputs.get("directions", {})
    if dirs.get("kind", "full") == "full":
        Y = DyadicGridSet(A1.level, np.arange(1 << A1.level))
    else:
        Y = _cells(_build_input(dirs, config, 0))
    counts = projection_scan(A1, A2, Y)
    # the scan can confirm instances of the projection lower bound
    # |pi_y(A1 x A2)|_delta >= delta**-(s + c*t), never refute it
    s, t, c = (float(p[k]) for k in ("s", "t", "c"))
    threshold = float(A1.spacing ** -(s + c * t))
    best = int(np.argmax(counts))
    ys = Y.centers()
    passed = bool(counts[best] >= threshold)
    verd = (Verdict("projection-floor", "evidence", passed,
                    measured=float(counts[best]), detail=f"threshold {threshold}"),)
    payload = {"threshold": threshold, "min_covering": int(counts.min()),
               "max_covering": int(counts.max()), "best_y": float(ys[best]),
               "best_covering": int(counts[best]),
               "fraction_above": float(np.mean(counts >= threshold)), "passed": passed}
    rows = list(zip(ys, counts))
    return payload, verd, {"projection.csv": (("y", "covering"), rows)}


def _run_counterexample(p, inputs, config):
    delta, s = config.delta, float(p["s"])
    mu = make_shifted_comb(s, delta, float(p["c"]))
    l2 = float(l2_at_scale(mu, delta) ** 2)
    mag = float(abs(product_fourier(convolve(mu, mu, "mul"), mu, 1.0 / delta)))
    ref = delta ** (s - 1.0)
    verd = (Verdict("l2-size", "exact", bool(ref / 16 <= l2 <= 16 * ref), measured=l2 / ref),
            Verdict("triple-transform", "exact", bool(mag >= 1.0 / 8), measured=mag))
    payload = {"l2_sq": l2, "l2_reference": ref, "triple_magnitude": mag}
    rows = [("l2_sq", l2), ("triple_magnitude", mag)]
    return payload, verd, {"counterexample.csv": (("quantity", "value"), rows)}


def _run_lattice_set(p, inputs, config):
    X = make_lattice_neighborhood(float(p["s"]),
                                  tuple(int(n) for n in _as_tuple(p["schedule"])),
                                  config.scale)
    rows = [(2.0 ** -l, covering_number(X, 2.0 ** -l)) for l in range(1, config.scale + 1)]
    return {"cells": X.size}, (), {"covering.csv": (("r", "covering"), rows)}


@dataclass(frozen=True)
class Experiment:
    """One experiment: its parameters, input arity, runner and cross-value rules."""

    params: dict                  # name -> Param
    inputs: tuple                 # (fewest, most) input groups
    run: Callable                 # (parameters, inputs, config) -> (payload, verdicts, tables)
    rules: tuple = ()             # (message, check(parameters, n_inputs) -> ok)
    groups: dict = field(default_factory=dict)   # other key group -> (kind Param, kinds)


EXPERIMENTS = {
    "base-case": Experiment(
        {"s": _UNIT, "t": _UNIT, "n_samples": Param(int, "[1, inf)", 32)},
        (2, 2), _run_base_case),
    "decay": Experiment(
        {"band_lo": Param(float, "[1, inf)"), "band_hi": Param(float, "[1, inf)"),
         "n_samples": Param(int, "[3, inf)", 48)},
        (1, 1), _run_decay,
        (("band_hi must exceed band_lo", lambda p, n: p["band_hi"] > p["band_lo"]),)),
    "flatten": Experiment(
        {"s": _UNIT, "t": _UNIT, "k_max": Param(int, "[0, inf)"),
         "kappa": Param(float, "(0, inf)", 0.1)},
        (2, 2), _run_flatten,
        (("s + t must be at most 1", lambda p, n: p["s"] + p["t"] <= 1.0 + 1e-12),)),
    "level-sets": Experiment({"r": Param(float, "(0, 1/2]")}, (1, 1), _run_level_sets),
    "induction": Experiment(
        {"exponents": Param(float, "(0, 1]", many=True), "k": Param(int, "[0, inf)"),
         "n_samples": Param(int, "[1, inf)", 64)},
        (3, math.inf), _run_induction,
        (("exponents must hold one value per input",
          lambda p, n: len(_as_tuple(p["exponents"])) == n),
         ("exponents must sum to more than 1",
          lambda p, n: np.sum(_as_tuple(p["exponents"])) > 1.0))),
    # c0 = 2 is a practical knob: the literal constant chain from the
    # flattening analysis (c0 = 524 * 24) is far beyond desk scale
    "quantitative": Experiment(
        {"sigma": _UNIT, "c0": Param(float, "(0, inf)", 2.0),
         "n_samples": Param(int, "[3, inf)", 48)},
        (2, math.inf), _run_quantitative,
        # 2 * ceil(c0 / sigma) <= n  <=>  c0 / sigma <= n // 2
        (("c0 and sigma need at least 2*ceil(c0/sigma) inputs",
          lambda p, n: p["c0"] / p["sigma"] <= n // 2),)),
    "keystep": Experiment(
        {"s": _UNIT, "t": _UNIT, "C": Param(float, "(0, inf)", 2.0),
         "eps": Param(float, "(0, 1]", 0.05)},
        (2, 2), _run_keystep),
    "project": Experiment(
        {"s": _UNIT, "t": _UNIT, "c": Param(float, "(0, 1]", 1.0 / 24)},
        (2, 2), _run_project, groups={"directions": _DIRECTIONS}),
    "counterexample": Experiment(
        {"s": Param(float, "(0, 1/2)"), "c": Param(float, "(0, 1/8]", 1.0 / 16)},
        (0, 0), _run_counterexample),
    "lattice-set": Experiment(
        {"s": Param(float, "(0, 1)"), "schedule": Param(int, "[1, inf)", many=True)},
        (0, 0), _run_lattice_set,
        (("schedule must be strictly increasing",
          lambda p, n: list(_as_tuple(p["schedule"]))
          == sorted(set(_as_tuple(p["schedule"])))),)),
}


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def _parse_scalar(raw: str):
    raw = raw.strip()
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
    """No inf or nan, and no integer beyond the float range."""
    if isinstance(value, tuple):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max


def _check_values(params: dict, values: dict, prefix: str, owner: str,
                  violations: list):
    """Unknown, missing and out-of-domain values; non-finite ones are reported already."""
    for key in sorted(values.keys() - params.keys()):
        violations.append(f"unknown parameter {prefix + key!r} for {owner}")
    for key, param in params.items():
        if key not in values:
            if param.default is REQUIRED:
                violations.append(f"{owner} requires parameter {prefix + key!r}")
        elif _all_finite(values[key]) and not param.accepts(values[key]):
            violations.append(
                f"{prefix}{key} must be {param.describe()}, got {values[key]!r}")


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
    core = {k: flat.pop(k) for k in _CORE if k in flat}
    _check_values(_CORE, core, "", "every config", violations)
    groups: dict[str, dict] = {}
    params: dict[str, object] = {}
    for key, val in flat.items():
        if "." in key:
            group, sub = key.split(".", 1)
            groups.setdefault(group, {})[sub] = val
        else:
            params[key] = val

    n = sum(1 for g in groups if g.startswith("input"))
    if experiment is None:
        violations.append("missing required key 'experiment'")
    elif experiment not in EXPERIMENTS:
        violations.append(
            f"unknown experiment {experiment!r}; valid: {sorted(EXPERIMENTS)}")
    else:
        exp = EXPERIMENTS[experiment]
        _check_values(exp.params, params, "", f"experiment {experiment!r}", violations)
        params = {**{k: p.default for k, p in exp.params.items()}, **params}
        fewest, most = exp.inputs
        if not fewest <= n <= most:
            how = "exactly" if fewest == most else "at least"
            violations.append(
                f"experiment {experiment!r} needs {how} {fewest} inputs, got {n}")
        allowed = {f"input{i}": (_INPUT_KIND, INPUT_KINDS) for i in range(1, n + 1)}
        allowed.update(exp.groups)
        for g, spec in sorted(groups.items()):
            if g not in allowed:
                violations.append(
                    f"unknown key group {g!r} (inputs are numbered input1, input2, ...)")
                continue
            kind_param, kinds = allowed[g]
            kind = spec.get("kind", kind_param.default)
            if kind is REQUIRED or not kind_param.accepts(kind):
                violations.append(
                    f"{g}.kind must be {kind_param.describe()}, got {spec.get('kind')!r}")
            else:
                values = {k: v for k, v in spec.items() if k != "kind"}
                _check_values(kinds[kind], values, f"{g}.", f"{g} of kind {kind!r}",
                              violations)
        if not violations:
            violations = [m for m, ok in exp.rules if not ok(params, n)]
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(experiment, core["scale"],
                            core.get("seed", _CORE["seed"].default), params, groups)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        # encode up front: an "ascii" text handle would load its codec on
        # first use, inside the run
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header) -> str:
    """The table as CSV text: a float is written as the repr of a Python
    float, anything else with str.  A column of one type is formatted as a
    whole, from the Python scalars of one array's tolist()."""
    cols = []
    for col in zip(*rows):
        if len(set(map(type, col))) > 1:
            cols.append([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                         for v in col])
        else:
            vals = np.asarray(col)
            cols.append(map(float.__repr__ if vals.dtype.kind == "f" else str, vals.tolist()))
    return "\n".join(map(",".join, [header, *zip(*cols)])) + "\n"


def dispatch(config: ExperimentConfig, out_dir) -> dict:
    """Run the configured experiment, write its artifacts atomically to out_dir,
    and return the report.json document."""
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    timings: list[tuple[str, float]] = []
    t0 = time.perf_counter()
    inputs = [_build_input(config.inputs[f"input{i}"], config, i)
              for i in range(1, sum(g.startswith("input") for g in config.inputs) + 1)]
    payload, verdicts, tables = EXPERIMENTS[config.experiment].run(
        config.parameters, inputs, config)
    timings.append(("experiment", time.perf_counter() - t0))

    failed = any(v.kind == "exact" and not v.passed for v in verdicts)
    report = {
        "schema": "decaylab-run-report/1",
        "version": __version__,
        "config": {"experiment": config.experiment, "scale": config.scale,
                   "seed": config.seed, "parameters": config.parameters,
                   "inputs": config.inputs},
        "status": "fail" if failed else "pass",
        "verdicts": [{**v.as_dict(), "status": "evidence" if v.kind == "evidence"
                      else ("pass" if v.passed else "fail")} for v in verdicts],
        "artifacts": sorted(tables),
        "payload": payload,
    }
    t0 = time.perf_counter()
    for name in report["artifacts"]:
        header, rows = tables[name]
        _atomic_write(os.path.join(out_dir, name), _csv(rows, header))
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(report, sort_keys=True, indent=1))
    timings.append(("write", time.perf_counter() - t0))
    # timings are deliberately outside report.json: they are the only
    # non-reproducible quantity, and report.json is byte-stable per config
    _atomic_write(os.path.join(out_dir, "timing.json"),
                  json.dumps({"stages": [[n, t] for n, t in timings]}, indent=1))
    return report


# built once at import: building it calls gettext, whose first use imports locale
_PARSER = argparse.ArgumentParser(prog="decaylab",
                                  description="run one configured experiment")
_PARSER.add_argument("config", help="path to the experiment config file")
_PARSER.add_argument("--param", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")
_PARSER.add_argument("--output", default=".",
                     help="output directory (default: the current directory)")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        for ov in args.param:
            if "=" not in ov:
                raise ConfigError([f"--param needs KEY=VALUE, got {ov!r}"])
            key, val = ov.split("=", 1)
            text = _apply_override(text, key.strip(), val.strip())
        report = dispatch(parse_config(text), args.output)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is reserved for a failed exact verdict: any other failure,
        # expected (I/O, bad input values) or not, is a runtime error
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for v in report["verdicts"]:
        mark = {"pass": "PASS", "fail": "FAIL", "evidence": "EVID"}[v["status"]]
        print(f"[{mark}] {v['name']}: measured={v['measured']}")
    return 1 if report["status"] == "fail" else 0


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
