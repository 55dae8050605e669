"""Output checks for one benchmark sample.

Every seed: the exit code matches the reference, every `exact` verdict
passes, the verdict list (name, kind, status), the artifact names, the CSV
headers and row counts match the reference, and a workload oracle holds
(see ORACLES).  At the reference seed, and on every seed of a seed-independent
workload, every number in report.json and the CSVs must also lie within
RTOL * |reference| + ATOL of the reference.  Bytes are never compared:
report.json embeds the output directory, and a correct faster kernel may move
the last bits.  The config echo in report.json is not compared.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random

RTOL = 1e-9
# every workload's inputs are probability measures, so total mass is 1 and
# roundoff in a transform or convolution is ~1e-16 in absolute terms; base-case
# band magnitudes go down to ~4e-8 at scale 7 (~5e-9 at scale 10), where
# roundoff alone exceeds RTOL, so a relative test needs this absolute floor
TOTAL_MASS = 1.0
ATOL = 1e-12 * TOTAL_MASS
# report.json keys holding results; "config" only echoes the rendered input
COMPARED = ("status", "verdicts", "payload")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(out_dir: str) -> dict:
    """report.json without config.output_dir, and every CSV as header + rows."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report.get("config", {}).pop("output_dir", None)
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="ascii", newline="") as fh:
                header, *rows = list(csv.reader(fh))
            tables[name] = {"header": header,
                            "rows": [[_cell(v) for v in row] for row in rows]}
    return {"report": report, "csv": tables}


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    if math.isinf(want):
        return got == want
    return abs(got - want) <= RTOL * abs(want) + ATOL


def compare(path: str, got, want, problems: list):
    """Structural equality with numbers compared within tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            problems.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                            f" != {sorted(want)}")
            return
        for k in want:
            compare(f"{path}.{k}", got[k], want[k], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: length {len(got) if isinstance(got, list) else got!r}"
                            f" != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare(f"{path}[{i}]", g, w, problems)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not _close(float(got), float(want))):
            problems.append(f"{path}: {got!r} != {want!r} (rtol {RTOL}, atol {ATOL})")
    elif got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


# ---------------------------------------------------------------------------
# workload oracles: hold on every seed
# ---------------------------------------------------------------------------

def _flatten_oracle(config_text, outputs, problems):
    """J(k+1, r) <= J(k, r) + 1e-9 on every r, recomputed from flatten.csv."""
    J = {}
    for r, k, j in outputs["csv"]["flatten.csv"]["rows"]:
        J[(r, k)] = j
    gaps = [J[(r, k + 1)] - J[(r, k)] for (r, k) in J if (r, k + 1) in J]
    if not gaps or max(gaps) > 1e-9:
        problems.append(f"flatten.csv: J not monotone in k (max gap {max(gaps, default=None)})")


def _induction_oracle(config_text, outputs, problems):
    """lhs <= rhs + 1e-6 at every sampled frequency, read from chain.csv."""
    worst = max(lhs - rhs for _, lhs, rhs in outputs["csv"]["chain.csv"]["rows"])
    if worst > 1e-6:
        problems.append(f"chain.csv: order chain violated by {worst}")


def _project_oracle(config_text, outputs, problems, n_directions=64):
    """Covering numbers at seeded directions, recounted in exact integers.

    Cell centers (2a+1)/(2N) and directions (2k+1)/(2N) are dyadic, so
    floor((c1 - y c2) / h) = floor(((2a+1) 2N - (2k+1)(2b+1)) / 4N) exactly.
    The Cantor sets are rebuilt with the program's own constructor from the
    rendered config; the oracle checks the scan, not the construction.
    """
    from decaylab.cli import parse_config
    from decaylab.constructions import CantorSpec, make_random_frostman
    config = parse_config(config_text)
    cells = []
    for g in ("input1", "input2"):
        spec = config.inputs[g]
        X, _ = make_random_frostman(CantorSpec(block=int(spec["d"]), keep=int(spec["keep"]),
                                               depth=int(spec["depth"]), seed=int(spec["seed"])))
        cells.append([int(c) for c in X.cells])
        level = X.level
    N = 1 << level
    rows = outputs["csv"]["projection.csv"]["rows"]
    if len(rows) != N:
        problems.append(f"projection.csv: {len(rows)} directions, expected {N}")
        return
    picks = random.Random(config.seed).sample(range(N), n_directions) + [0, N - 1]
    for k in picks:
        y, covering = rows[k]
        want = len({((2 * a + 1) * 2 * N - (2 * k + 1) * (2 * b + 1)) // (4 * N)
                    for a in cells[0] for b in cells[1]})
        if y != (2 * k + 1) / (2 * N) or covering != want:
            problems.append(f"projection.csv row {k}: ({y}, {covering}) != "
                            f"({(2 * k + 1) / (2 * N)}, {want})")


ORACLES = {"flatten-l12": _flatten_oracle, "induction": _induction_oracle,
           "project-l12": _project_oracle}


def check_sample(workload, seed: int, config_text: str, exit_code,
                 out_dir: str, reference: dict) -> list:
    """Problems found in one sample's outputs; an empty list means correct."""
    if exit_code != reference["exit_code"]:
        return [f"exit code {exit_code}, expected {reference['exit_code']}"]
    try:
        outputs = read_outputs(out_dir)
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = []
    got, want = outputs["report"], reference["outputs"]["report"]
    verdicts = got.get("verdicts", [])
    problems += [f"exact verdict {v['name']} failed" for v in verdicts
                 if v.get("kind") == "exact" and v.get("status") != "pass"]
    compare("verdicts(name, kind, status)",
            [[v.get(k) for k in ("name", "kind", "status")] for v in verdicts],
            [[v[k] for k in ("name", "kind", "status")] for v in want["verdicts"]], problems)
    compare("artifacts", got.get("artifacts"), want["artifacts"], problems)
    want_csv = reference["outputs"]["csv"]
    compare("csv files", sorted(outputs["csv"]), sorted(want_csv), problems)
    for name, table in want_csv.items():
        t = outputs["csv"].get(name, {"header": None, "rows": []})
        compare(f"{name} header", t["header"], table["header"], problems)
        compare(f"{name} rows", len(t["rows"]), len(table["rows"]), problems)
    if problems:
        return problems
    if seed == reference["seed"] or workload.seed_independent:
        for key in COMPARED:
            compare(f"report.json {key}", got.get(key), want[key], problems)
        compare("csv", outputs["csv"], want_csv, problems)
    if workload.name in ORACLES:
        ORACLES[workload.name](config_text, outputs, problems)
    return problems
