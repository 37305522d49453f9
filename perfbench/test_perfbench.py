"""Tests of the benchmark itself: tiny smoke runs and the tracer's contract.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import MVGE_LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _assert_result(proc, declared):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric_with_its_unit(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--tiny")
    result = _assert_result(proc, SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(m['unit'])}\b",
                         proc.stdout, re.M), name
    assert re.search(r"^fail_ratio\s+0\.0000 ratio\s+0 failed of \d+ operations",
                     proc.stdout, re.M)
    if workload == "protocols":
        assert re.search(r"^link_auc\s+\S+ ratio", proc.stdout, re.M)
        assert re.search(r"^pair_auc\s+\S+ ratio", proc.stdout, re.M)


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _run("--workload", "protocols", "--seconds", "1", "--trace", "1", "--tiny")
    result = _assert_result(proc, SPEC["per_layer"])
    assert result["metrics"]["model.train.calls"]["value"] >= 2  # full graph + a retrain
    assert "trace overhead:" in proc.stdout
    assert "absent names: none" in proc.stdout
    for span in MVGE_LAYERS:
        if not span.startswith("data."):  # protocols writes no files
            assert re.search(rf"^{re.escape(span)}", proc.stdout, re.M), span


def test_missing_wrapped_name_is_reported_absent():
    tracer = Tracer()
    layers = {"model.renamed": ("mvge.model:_no_such_function",),
              "graph.renamed": ("mvge.graph:Graph.no_such_method",),
              "gone.module": ("mvge.no_such_module:anything",)}
    tracer.install(layers)
    try:
        assert tracer.absent == [t for targets in layers.values() for t in targets]
    finally:
        tracer.restore()


def _resolve(target):
    import importlib

    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_wrappers_are_removed_after_the_traced_pass():
    import numpy as np

    import mvge.model
    import mvge.synth

    targets = [t for ts in MVGE_LAYERS.values() for t in ts]
    targets.append("mvge.graph:Graph.has_edge_mask")
    before = {t: vars(_resolve(t)[0]).get(_resolve(t)[1]) for t in targets}

    tracer = Tracer()
    tracer.install()
    assert not tracer.absent
    ds = mvge.synth.generate_synthetic(mvge.synth.SynthSpec(60, 3, 0.5, 4, seed=1))
    cfg = mvge.model.MVGEConfig(epochs=2, adj_loss_mode="sampled")
    mvge.model.train(ds, cfg)
    tracer.restore()

    summary = tracer.summary()
    assert summary["model.train_step"]["calls"] == 2
    assert summary["numerics.adam_step.train"]["calls"] == 2
    assert tracer.accept_ratios()["model.adjacency_loss.neg_accept_ratio"]["drawn"] > 0
    for t in targets:
        owner, attr = _resolve(t)
        assert vars(owner).get(attr) is before[t], t
    n_spans = len(tracer.spans)
    _, emb, _ = mvge.model.train(ds, cfg)  # an untraced run after the traced pass
    assert len(tracer.spans) == n_spans
    assert np.isfinite(emb.h).all()


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    s = tracer.summary()
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert s["outer"]["self_s"] == pytest.approx((outer.end - outer.start)
                                                 - (inner.end - inner.start))


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "protocols", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
