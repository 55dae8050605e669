"""decaylab benchmark: end-to-end CLI runs, output checks, per-layer trace.

    python3 bench/run.py --workload NAME|all --seed S --seconds T --trace 0|1

Each sample is a fresh interpreter (bench/sample.py) running one rendered
config through `decaylab.cli.main`; samples run one after another, with the
program's default thread settings, until T seconds have passed (at least
MIN_SAMPLES).  Every sample's outputs are checked against bench/reference/.

--trace 0 reports the end-to-end metrics as medians over the samples.
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics (medians over the traced samples) and trace.overhead_ratio.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Run records, with the environment and every span, go to .bench_out/.
`--write-reference` re-records the reference outputs at each default seed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
from checks import check_sample, read_outputs
from workloads import WORKLOADS, input_seeds

BENCH_VERSION = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the projection oracle rebuilds its Cantor sets with decaylab's constructor
sys.path.insert(0, os.path.join(ROOT, "src"))
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "reference")
MIN_SAMPLES = 3
# one workload run, samples and checks included, ends within this budget
RUN_BUDGET_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "decaylab")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _warm_up():
    """Import decaylab once untimed: compiles bytecode and fails fast if absent."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import decaylab.cli"
    try:
        subprocess.run([sys.executable, "-c", code], timeout=60, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"cannot import decaylab from {ROOT}/src:\n"
                         f"{exc.stderr.decode(errors='replace')}") from None
    except subprocess.TimeoutExpired:
        raise BenchError("importing decaylab took over 60 s") from None


def _run_sample(config_path: str, index: int, trace: bool, timeout: float) -> dict:
    out_dir = os.path.join(WORK, f"sample{index}")
    result_path = os.path.join(WORK, f"sample{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), ROOT, config_path,
           out_dir, result_path, "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"trace": trace, "out_dir": out_dir, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode == 3:
        raise BenchError(proc.stderr.decode(errors="replace"))
    if proc.returncode != 0:
        return {"trace": trace, "out_dir": out_dir,
                "error": f"sample process exited {proc.returncode}: "
                         + proc.stderr.decode(errors="replace")[-2000:]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(trace=trace, out_dir=out_dir)
    return result


def _load_reference(name: str) -> dict:
    path = os.path.join(REFERENCES, f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"no reference outputs for {name}: {exc}") from None


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return {"s": "s", "incl_s": "s", "ns_per_term": "ns", "ns_per_pair": "ns",
            "useful_cell_ratio": "ratio", "accept_ratio": "ratio",
            "overhead_ratio": "ratio", "artifact_bytes": "bytes"}.get(last, "count")


def _prepare(workload, seed: int):
    """Fresh work directory, warm import, rendered config: (text, path)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    _warm_up()
    config_text = workload.render(seed)
    config_path = os.path.join(WORK, "run.cfg")
    with open(config_path, "w", encoding="ascii") as fh:
        fh.write(config_text)
    return config_text, config_path


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    reference = _load_reference(workload.name)
    config_text, config_path = _prepare(workload, seed)

    samples = []
    t0 = time.perf_counter()
    longest = 0.0
    min_samples = 2 if trace else MIN_SAMPLES
    # start another sample only if it should end within the measuring time
    while (len(samples) < min_samples
           or time.perf_counter() - t0 + longest <= seconds):
        left = RUN_BUDGET_S - (time.perf_counter() - started)
        if left <= 0:
            break
        traced = trace and len(samples) % 2 == 1
        t1 = time.perf_counter()
        s = _run_sample(config_path, len(samples), traced, left)
        longest = max(longest, time.perf_counter() - t1)
        if "error" in s:
            s["problems"] = [s["error"]]
        else:
            raised = [f"raised:\n{s['raised']}"] if s["raised"] else []
            s["problems"] = raised or check_sample(workload, seed, config_text,
                                                   s["exit_code"], s["out_dir"], reference)
        shutil.rmtree(s["out_dir"], ignore_errors=True)
        samples.append(s)
        if s["problems"]:
            print(f"sample {len(samples) - 1} failed: " + "; ".join(s["problems"][:5]),
                  file=sys.stderr)
    shutil.rmtree(WORK, ignore_errors=True)

    timed = [s for s in samples if "run_s" in s]
    plain = [s for s in timed if not s["trace"]]
    traced = [s for s in timed if s["trace"]]
    if trace:
        layers = [s["layers"] for s in traced]
        metrics = {k: _median([m[k] for m in layers]) for k in spans.layer_metrics([], 0.0, 0)}
        plain_run = _median([s["run_s"] for s in plain])
        metrics["trace.overhead_ratio"] = (_median([s["run_s"] for s in traced]) / plain_run
                                           if plain_run else 0.0)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {k: _median([s[k] for s in plain]) for k in END_TO_END}
        units = END_TO_END
    return {"workload": workload.name, "seed": seed,
            "seed_independent": workload.seed_independent,
            "input_seeds": input_seeds(config_text), "config": config_text,
            "trace": trace, "seconds": seconds,
            "attempted": len(samples), "failed": sum(1 for s in samples if s["problems"]),
            "samples_timed": {"untraced": len(plain), "traced": len(traced)},
            "metrics": metrics, "units": units,
            "environment": timed[0]["environment"] if timed else None,
            "samples": [{k: v for k, v in s.items() if k not in ("spans", "environment")}
                        for s in samples],
            "spans": [s["spans"] for s in traced]}


def _print_summary(rec: dict):
    seeds = ", ".join(f"{k}={v}" for k, v in rec["input_seeds"].items()) or "none"
    note = " (seed-independent)" if rec["seed_independent"] else ""
    print(f"== {rec['workload']} seed {rec['seed']}{note}; input seeds: {seeds}")
    n = rec["samples_timed"]
    for name, value in rec["metrics"].items():
        unit = rec["units"][name]
        base = (f"median of {n['untraced']} samples" if not rec["trace"]
                else f"median of {n['traced']} traced samples")
        print(f"  {name:48s} {value:14.6g} {unit:4s} {base}")
    print(f"  {'fail_ratio':48s} {rec['failed']:>6d} / {rec['attempted']:<6d} failed / attempted")


def _write_reference(workload) -> None:
    _, config_path = _prepare(workload, workload.default_seed)
    s = _run_sample(config_path, 0, False, RUN_BUDGET_S)
    if "error" in s or s["raised"]:
        raise BenchError(f"{workload.name}: reference run failed: {s.get('error') or s['raised']}")
    ref = {"workload": workload.name, "seed": workload.default_seed,
           "exit_code": s["exit_code"], "outputs": read_outputs(s["out_dir"])}
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(REFERENCES, exist_ok=True)
    with open(os.path.join(REFERENCES, f"{workload.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote reference/{workload.name}.json (exit code {s['exit_code']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: each workload's reference seed)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.write_reference:
            for name in names:
                _write_reference(WORKLOADS[name])
            return 0
        meta = {"bench_version": BENCH_VERSION, "git_commit": _git_commit(),
                "source_sha256": _source_digest()}
        records = []
        for name in names:
            w = WORKLOADS[name]
            seed = w.default_seed if args.seed is None else args.seed
            rec = run_workload(w, seed, args.seconds, bool(args.trace))
            rec.update(meta)
            records.append(rec)
            _print_summary(rec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env = records[0]["environment"]
    print("environment: " + json.dumps({**meta, **(env or {})}, sort_keys=True))
    os.makedirs(RESULTS, exist_ok=True)
    for rec in records:
        path = os.path.join(RESULTS, f"{rec['workload']}-seed{rec['seed']}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
        print(f"run record: {os.path.relpath(path, ROOT)}")

    def key(rec, metric):
        return metric if len(records) == 1 else f"{rec['workload']}.{metric}"

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {key(r, k): {"value": v, "unit": r["units"][k]}
               for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
