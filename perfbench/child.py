"""One benchmark process. run.py starts a fresh one per set-up or pass.

    python3 perfbench/child.py '{"workload": "cora-full", "seed": 1,
                                 "seconds": 30, "tiny": false, "mode": "run"}'

Modes:
  run     set up, then run passes in a closed loop for ``seconds``
          (0: one pass)
  setup   set up only (more set-up samples for the median)
  traced  as ``run``, with span wrappers installed
  memory  as ``traced``, with tracemalloc peaks per span

Prints one JSON object as its last stdout line.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: before numpy or mvge load

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"  # work dirs live here while a pass runs


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, or None outside a git repository (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for p in sorted((SRC / "mvge").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    tracer = None
    if mode in ("traced", "memory"):
        tracer = Tracer(track_memory=mode == "memory")
        if tracer.track_memory:
            tracemalloc.start()
    sys.path.insert(0, str(SRC))
    if tracer is None:
        import mvge
    else:
        with tracer.span("mvge.import"):
            import mvge
    if Path(mvge.__file__).resolve().parent != SRC / "mvge":
        print(f"imported mvge from {mvge.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    size = wl.tiny if spec["tiny"] else wl.size
    result = {"mode": mode}
    if tracer is not None:
        tracer.install()
    state = None
    try:
        state = workloads.setup(wl, size, spec["seed"], RESULTS)
        result["setup_s"] = time.perf_counter() - T0
        if mode != "setup":
            result["ops"] = _loop(workloads.run_operations, state, spec["seconds"])
        result["wall_s"] = time.perf_counter() - T0
    finally:
        if tracer is not None:
            tracer.restore()
        if state is not None:
            workloads.cleanup(state)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "run":
        result["env"] = environment()
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["pairs"] = tracer.accept_ratios()
        result["absent"] = tracer.absent
        result["spans"] = tracer.span_records()
    print(json.dumps(result))
    return 0


def _loop(run_operations, state, seconds: float) -> list[dict]:
    """Closed loop, one caller: start the next pass only after the last one
    ends, and only if a pass of median length still fits in ``seconds``."""
    ops = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        op = dataclasses.asdict(run_operations(state))
        op["op_s"] = time.perf_counter() - t0
        ops.append(op)
        elapsed = time.perf_counter() - start
        if op["failures"] or elapsed + statistics.median(o["op_s"] for o in ops) > seconds:
            return ops


if __name__ == "__main__":
    sys.exit(main())
