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


def run(name, *args, env=None):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300, env=env)


def run_script(name, *args, env=None):
    r = run(name, *args, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout


# the raw files of each layout, by name
LINQS = {
    "toy.content": "p1\t1\t0\t0\tB\np2\t0\t1\t0\tA\np3\t0\t0\t1\tB\np4\t1\t1\t0\tA\n",
    # one self-citation, one duplicate in reverse and one unknown id
    "toy.cites": "p1\tp2\np2\tp3\np3\tp1\np1\tp1\np2\tp1\np9\tp1\n",
}
WEBKB = {
    "out1_node_feature_label.txt": "node_id\tfeature\tlabel\n2\t0,1\t1\n0\t1,0\t0\n1\t1,1\t2\n",
    # one self loop and one duplicate in reverse
    "out1_graph_edges.txt": "node_id\tnode_id\n0\t1\n1\t2\n2\t2\n1\t0\n",
}


def convert(tmp_path, *files):
    """Run convert.py on a raw directory holding the given files, later ones
    overwriting earlier ones of the same name."""
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, text in {k: v for f in files for k, v in f.items()}.items():
        (raw / name).write_text(text)
    return run("convert.py", raw, "--name", "toy", "--out", tmp_path / "toy")


def test_convert_reads_a_linqs_release(tmp_path):
    r = convert(tmp_path, LINQS)
    assert r.returncode == 0, r.stderr
    assert "dropped: 1 edges with unknown ids, 1 self loops, 1 duplicates" in r.stdout
    ds = load_dataset(tmp_path / "toy")
    assert (ds.num_nodes, ds.graph.num_edges, ds.num_features) == (4, 3, 3)
    assert ds.labels.tolist() == [1, 0, 1, 0]
    assert ds.graph.edge_array().tolist() == [[0, 1], [0, 2], [1, 2]]


def test_convert_reads_a_webkb_release(tmp_path):
    r = convert(tmp_path, WEBKB)
    assert r.returncode == 0, r.stderr
    assert "dropped: 0 edges with unknown ids, 1 self loops, 1 duplicates" in r.stdout
    ds = load_dataset(tmp_path / "toy")
    assert ds.labels.tolist() == [0, 2, 1]
    np.testing.assert_array_equal(ds.features, [[1, 0], [1, 1], [0, 1]])
    assert ds.graph.edge_array().tolist() == [[0, 1], [1, 2]]


def test_convert_drops_a_webkb_edge_with_an_unknown_id(tmp_path):
    # this ended in a KeyError traceback when each layout had its own script
    edges = {"out1_graph_edges.txt": WEBKB["out1_graph_edges.txt"] + "7\t0\n"}
    r = convert(tmp_path, WEBKB, edges)
    assert r.returncode == 0, r.stderr
    assert "dropped: 1 edges with unknown ids, 1 self loops, 1 duplicates" in r.stdout
    assert load_dataset(tmp_path / "toy").graph.edge_array().tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("layout, repeat", [
    (LINQS, {"toy.content": LINQS["toy.content"] + "p2\t1\t1\t1\tB\n"}),
    # the WebKB reader kept the last of the repeated rows
    (WEBKB, {"out1_node_feature_label.txt":
             WEBKB["out1_node_feature_label.txt"] + "1\t0,0\t0\n"}),
])
def test_convert_refuses_a_repeated_node_id(tmp_path, layout, repeat):
    r = convert(tmp_path, layout, repeat)
    assert r.returncode == 2
    assert r.stderr.startswith("error: repeated node ids in ")
    assert not (tmp_path / "toy").exists()


@pytest.mark.parametrize("layouts", [(), (LINQS, WEBKB), ({"toy.content": LINQS["toy.content"]},)],
                         ids=["neither", "both", "half"])
def test_convert_needs_exactly_one_layout(tmp_path, layouts):
    r = convert(tmp_path, *layouts)
    assert r.returncode == 2
    assert "LINQS (toy.content, toy.cites)" in r.stderr
    assert "WebKB (out1_node_feature_label.txt, out1_graph_edges.txt)" in r.stderr


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
    assert len(names) == 2 * 3 * 2 * 4 + 10 + 3 + 11 + 11
    assert names[:4] == ["train/linear/concat/full/all", "train/linear/concat/full/no-ego",
                         "train/linear/concat/full/no-agg", "train/linear/concat/full/no-adj"]
    assert names[48:] == ["model/init", "graph/from_edges", "synth", "sample_non_edges",
                          "sample_label_pairs", "probe/multiclass", "probe/binary", "report/node",
                          "report/link", "report/pair",
                          "save_embeddings/concat", "save_embeddings/sum", "save_embeddings/mean",
                          "cli/synth", "cli/stats", "cli/embed", "cli/eval-node", "cli/eval-link",
                          "cli/eval-pair", "cli/gridsearch", "cli/diag", "cli/synth-defaults",
                          "cli/eval-node-defaults", "cli/eval-pair-defaults",
                          "errors/MVGEConfig", "errors/WalkConfig", "errors/SplitSpec",
                          "errors/SynthSpec", "errors/generate_synthetic", "errors/meta.json",
                          "errors/files", "errors/not-utf8", "errors/save_embeddings",
                          "errors/load_embeddings",
                          "errors/embeddings"]
    taskset = shutil.which("taskset")
    if taskset is None or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs taskset to pin a run to one CPU")
    pinned = subprocess.run([taskset, "-c", str(min(os.sched_getaffinity(0))), sys.executable,
                             str(SCRIPTS / "output_digest.py"), "--tiny"],
                            capture_output=True, text=True, timeout=300, env=env)
    assert pinned.returncode == 0, pinned.stderr
    assert "adjacency workers: 1" in pinned.stderr
    assert pinned.stdout == free


def test_output_digest_digests_the_tree_on_pythonpath(tmp_path):
    # a PYTHONPATH entry wins over the script's own src/, so one script can
    # digest another commit's tree; the loaded package is named on stderr
    copy = tmp_path / "src" / "mvge"
    shutil.copytree(SCRIPTS.parent / "src" / "mvge", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tmp_path / "src"))
    r = subprocess.run([sys.executable, str(SCRIPTS / "output_digest.py"), "--tiny"],
                       capture_output=True, text=True, timeout=300, env=env)
    assert r.returncode == 0, r.stderr
    loaded = [line.removeprefix("mvge: ") for line in r.stderr.splitlines()
              if line.startswith("mvge: ")]
    assert [Path(p).resolve() for p in loaded] == [copy.resolve()]
