"""Smoke runs of the helper scripts, so a renamed mvge name they import
fails here instead of at the next real-data run."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvge.data import load_dataset, save_dataset
from mvge.synth import SynthSpec, generate_synthetic

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, env=None):
    r = subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                       capture_output=True, text=True, timeout=300, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_convert_linqs(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "toy.content").write_text(
        "p1\t1\t0\t0\tB\np2\t0\t1\t0\tA\np3\t0\t0\t1\tB\np4\t1\t1\t0\tA\n")
    # one self-citation, one duplicate in reverse and one unknown id
    (raw / "toy.cites").write_text(
        "p1\tp2\np2\tp3\np3\tp1\np1\tp1\np2\tp1\np9\tp1\n")
    out = run_script("convert_linqs.py", raw, "--name", "toy", "--out", tmp_path / "toy")
    assert "dropped: 1 citations with unknown ids, 1 self loops, 1 duplicates" in out
    ds = load_dataset(tmp_path / "toy")
    assert (ds.num_nodes, ds.graph.num_edges, ds.num_features) == (4, 3, 3)
    assert ds.labels.tolist() == [1, 0, 1, 0]
    assert ds.graph.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_convert_webkb(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "out1_node_feature_label.txt").write_text(
        "node_id\tfeature\tlabel\n2\t0,1\t1\n0\t1,0\t0\n1\t1,1\t2\n")
    (raw / "out1_graph_edges.txt").write_text(
        "node_id\tnode_id\n0\t1\n1\t2\n2\t2\n1\t0\n")
    out = run_script("convert_webkb.py", raw, "--name", "toy", "--out", tmp_path / "toy")
    assert "dropped: 1 self loops, 1 duplicates" in out
    ds = load_dataset(tmp_path / "toy")
    assert ds.labels.tolist() == [0, 2, 1]
    np.testing.assert_array_equal(ds.features, [[1, 0], [1, 1], [0, 1]])
    assert ds.graph.edge_array().tolist() == [[0, 1], [1, 2]]


def test_crossover_sweep(tmp_path):
    run_script("crossover_sweep.py", "--h", "0.5", "--n", 60, "--epochs", 2,
               "--csv", tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.5")


def test_benchmark_real(tmp_path):
    ds = generate_synthetic(SynthSpec(num_nodes=60, num_classes=3, target_homophily=0.5,
                                      avg_degree=4.0, feature_dim=6, seed=2))
    save_dataset(ds, tmp_path / "toy")
    out = run_script("benchmark_real.py", tmp_path / "toy", "--epochs", 2, "--repeats", 1)
    tasks = [line.split()[1] for line in out.splitlines()[1:]]
    assert tasks == ["node", "link", "pair"]


def test_output_digest_same_on_one_or_two_workers():
    # at one BLAS thread the script's process runs a second worker thread
    # when it may use two CPUs; pinned to one CPU, every part runs on one thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    free = run_script("output_digest.py", "--tiny", env=env)
    rows = [line.split("  ") for line in free.splitlines()]
    assert all(re.fullmatch("[0-9a-f]{64}", sha) for sha, _ in rows)
    names = [name for _, name in rows]
    assert len(names) == 2 * 3 * 2 * 3 + 6 + 7
    assert names[0] == "train/linear/concat/full/all"
    assert names[36:] == ["synth", "sample_non_edges", "sample_label_pairs",
                          "report/node", "report/link", "report/pair",
                          "cli/synth", "cli/stats", "cli/embed", "cli/eval-node",
                          "cli/eval-pair", "cli/gridsearch", "cli/diag"]
    taskset = shutil.which("taskset")
    if taskset is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs taskset to pin a run to one CPU")
    pinned = subprocess.run([taskset, "-c", str(min(os.sched_getaffinity(0))), sys.executable,
                             str(SCRIPTS / "output_digest.py"), "--tiny"],
                            capture_output=True, text=True, timeout=300, env=env)
    assert pinned.returncode == 0, pinned.stderr
    assert "adjacency workers: 1" in pinned.stderr
    assert pinned.stdout == free
