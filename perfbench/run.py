#!/usr/bin/env python3
"""mvge benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py                                # every workload
    python3 perfbench/run.py --workload cora-full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload protocols --trace 1  # per-layer spans

Each set-up and each pass runs in a fresh child process (perfbench/child.py),
one at a time, with the BLAS thread count fixed. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every correctness check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("cora-full", "pubmed-sampled", "protocols")
BLAS_THREADS = 1  # steadier than 2 on a 2-core box; identical on both sides of a comparison
SETUP_REPEATS = 3  # set-up samples per run (one is the measuring process's own)
TIME_LIMIT_S = 170.0  # per workload; every child is killed and reaped before it

# end-to-end metrics, reported on every workload: name -> unit
END_TO_END = {"setup_s": "s", "train_s": "s", "eval_s": "s",
              "peak_rss_mb": "MB", "node_f1": "ratio"}
# printed with the end-to-end metrics but kept out of the result line, whose
# metrics must exist on every workload and never read 0: the AUCs exist only on
# protocols, and fail_ratio is 0 on a healthy commit
PRINTED_ONLY = {"link_auc": "ratio", "pair_auc": "ratio", "fail_ratio": "ratio"}

# spans every workload exercises; their figures form the per-layer metrics.
# The other spans (data.*, evaluate samplers, roc_auc) and the pair-acceptance
# ratios are printed and written to the results file.
LAYER_SPANS = (
    "mvge.import", "synth.generate_synthetic", "walks.build_views", "graph.validate",
    "graph.normalized_adjacency", "model.train", "model.train_step",
    "model.encode_ego", "model.encode_agg", "model.backward_ego", "model.backward_agg",
    "numerics.spmm", "model.kl_decoders", "model.adjacency_loss",
    "numerics.adam_step.train", "numerics.adam_step.probe", "evaluate.logreg_fit",
)
LAYER_FIELDS = {"calls": "count", "total_s": "s", "self_s": "s", "peak_alloc_mb": "MB"}
PER_LAYER = {f"{span}.{field}": unit for span in LAYER_SPANS
             for field, unit in LAYER_FIELDS.items()}
PER_LAYER["trace.overhead_s"] = "s"


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion (or kill it at the deadline) and parse its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"time limit reached before the {spec['mode']} pass")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{spec['mode']} pass killed at the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(passes: list[dict]) -> tuple[int, list[str]]:
    """Attempted operations and one message per failed operation, over all passes.

    Every pass runs on the same inputs and seed, so every pass must produce
    the same embedding and scores as the first; a pass that does not fails
    its training operation.
    """
    attempted, failed = 0, []
    first = None
    for p_i, p in enumerate(passes):
        for o_i, op in enumerate(p.get("ops", [])):
            attempted += op["attempted"]
            where = f"{p['mode']} pass {p_i} operation set {o_i}"
            failed += [f"{where} {name}: {msg}" for name, msg in op["failures"]]
            if op["failures"]:
                continue
            if first is None:
                first = op
            elif (op["digest"], op["scores"]) != (first["digest"], first["scores"]):
                failed.append(f"{where} train: output differs from the first "
                              f"identical run (not deterministic)")
    return attempted, failed


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_untraced(name: str, seed: int, seconds: int, tiny: bool, deadline: float):
    spec = {"workload": name, "seed": seed, "seconds": seconds, "tiny": tiny}
    run = spawn(dict(spec, mode="run"), deadline)
    setups = [run["setup_s"]] + [spawn(dict(spec, mode="setup"), deadline)["setup_s"]
                                 for _ in range(SETUP_REPEATS - 1)]
    ops = run["ops"]
    attempted, failed = _failures([run])
    first = next((o for o in ops if not o["failures"]), ops[0])
    values = {
        "setup_s": statistics.median(setups),
        "train_s": _median(o["train_s"] for o in ops),
        "eval_s": _median(o["eval_s"] for o in ops),
        "peak_rss_mb": run["peak_rss_mb"],
        **first["scores"],
        "fail_ratio": len(failed) / attempted,
    }
    samples = {"setup_s": setups, "train_s": [o["train_s"] for o in ops],
               "eval_s": [o["eval_s"] for o in ops]}
    lines = []
    for metric, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        if metric not in values or values[metric] is None:
            continue
        note = ""
        if metric in samples:
            xs = [x for x in samples[metric] if x is not None]
            note = f"median of {len(xs)}: min {min(xs):.4f} max {max(xs):.4f}"
        elif metric == "fail_ratio":
            note = f"{len(failed)} failed of {attempted} operations"
        lines.append(f"{metric:<14}{values[metric]:>12.4f} {unit:<6} {note}")
    metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()
               if values.get(m) is not None}
    record = {"env": run["env"], "samples": samples, "values": values, "ops": ops}
    return metrics, attempted, failed, lines, record


def run_traced(name: str, seed: int, tiny: bool, deadline: float):
    """Untraced reference pass, traced timing pass, tracemalloc pass."""
    spec = {"workload": name, "seed": seed, "seconds": 0, "tiny": tiny}
    ref = spawn(dict(spec, mode="run"), deadline)
    traced = spawn(dict(spec, mode="traced"), deadline)
    memory = spawn(dict(spec, mode="memory"), deadline)
    attempted, failed = _failures([ref, traced, memory])
    layers = traced["layers"]  # both passes run the same code, so the same spans
    for span, row in layers.items():
        row["peak_alloc_mb"] = memory["layers"][span]["peak_alloc_mb"]
    overhead = traced["wall_s"] - ref["wall_s"]
    values = {f"{span}.{field}": layers.get(span, {}).get(field, 0)
              for span in LAYER_SPANS for field in LAYER_FIELDS}
    values["trace.overhead_s"] = overhead
    lines = [f"{'span':<34}{'calls':>7}{'total_s':>10}{'self_s':>10}{'peak_MB':>9}"]
    for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["total_s"]):
        lines.append(f"{span:<34}{row['calls']:>7}{row['total_s']:>10.4f}"
                     f"{row['self_s']:>10.4f}{row['peak_alloc_mb']:>9.1f}")
    for metric, c in traced["pairs"].items():
        ratio = "n/a" if c["ratio"] is None else f"{c['ratio']:.4f}"
        lines.append(f"{metric}: {ratio} ({c['kept']} kept of {c['drawn']} drawn)")
    absent = sorted(set(traced["absent"]))
    lines.append(f"absent names: {', '.join(absent) if absent else 'none'}")
    lines.append(f"trace overhead: {overhead:.4f} s ({traced['wall_s']:.4f} s traced, "
                 f"{ref['wall_s']:.4f} s untraced)")
    metrics = {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}
    record = {"env": ref["env"], "layers": layers, "pairs": traced["pairs"],
              "absent": absent, "spans": traced["spans"],
              "wall_s": {"untraced": ref["wall_s"], "traced": traced["wall_s"],
                         "memory": memory["wall_s"]}}
    return metrics, attempted, failed, lines, record


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    print(f"== {name}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"blas_threads {BLAS_THREADS}{'  tiny' if tiny else ''}", flush=True)
    if trace:
        metrics, attempted, failed, lines, record = run_traced(name, seed, tiny, deadline)
    else:
        metrics, attempted, failed, lines, record = run_untraced(
            name, seed, seconds, tiny, deadline)
    for line in lines:
        print(line)
    for msg in failed:
        print(f"CHECK FAILED {name}: {msg}", file=sys.stderr)
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}.json"
    out.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                               "trace": trace, "tiny": tiny, "blas_threads": BLAS_THREADS,
                               "result": result, "failures": failed, **record}, indent=1))
    print("env " + json.dumps(record["env"]))
    print(f"written {out.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1, help="drives synth, model and split seeds")
    ap.add_argument("--seconds", type=int, default=30, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer spans instead of end-to-end metrics")
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; same code path, figures not comparable")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mvge" / "__init__.py").is_file():
        print(f"no mvge sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.tiny)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, r in results.items():
            print(f"result {name} {json.dumps(r)}")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
