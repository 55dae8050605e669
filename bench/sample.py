"""One benchmark sample: a fresh interpreter that imports decaylab and runs
one config through `decaylab.cli.main`, then writes what it measured as JSON.

    python3 bench/sample.py ROOT CONFIG OUT_DIR RESULT_JSON TRACE

setup_s is the wall time of `import decaylab.cli` (numpy and scipy included),
run_s the wall time of `main([CONFIG, "--output", OUT_DIR])`.  With TRACE=1
the public functions of every layer are wrapped first (see spans.py).
Exit code 3 means decaylab could not be imported at all.
"""
import json
import os
import resource
import sys
import time
import traceback


def _blas():
    """BLAS name, version and thread count as configured; changes nothing."""
    import ctypes
    import glob

    import numpy as np
    info = {"name": None, "version": None, "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _environment():
    import platform

    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def main(root, config, out_dir, result_path, trace):
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    try:
        import decaylab.cli
    except ImportError:
        traceback.print_exc()
        return 3
    setup_s = time.perf_counter() - t0

    tracer = None
    run = decaylab.cli.main
    argv = [config, "--output", out_dir]
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
        run = tracer.wrap("cli.main", run)
    raised = None
    t0 = time.perf_counter()
    try:
        exit_code = run(argv)
    except Exception:
        exit_code, raised = None, traceback.format_exc()
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
              "exit_code": exit_code, "raised": raised,
              "environment": _environment()}
    if tracer is not None:
        write_s = 0.0
        try:
            with open(os.path.join(out_dir, "timing.json"), encoding="utf-8") as fh:
                write_s = dict(json.load(fh)["stages"]).get("write", 0.0)
        except (OSError, ValueError, KeyError):
            pass
        artifact_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                             for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0
        result["layers"] = spans.layer_metrics(tracer.spans, write_s, artifact_bytes)
        result["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    root_, config_, out_, result_, trace_ = sys.argv[1:6]
    sys.exit(main(root_, config_, out_, result_, trace_ == "1"))
