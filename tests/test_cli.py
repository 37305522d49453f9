"""Command-line interface: subcommands, exit codes, artifacts, replay."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

from mvge.data import load_matrix_binary, load_matrix_csv
from mvge.model import adjacency_workers
from mvge.numerics import blas_info, usable_cpus


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mvge", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "toy"
    r = run_cli(
        "synth", "--n", 60, "--c", 3, "--h", "0.8", "--avg-degree", 4,
        "--feature-dim", 6, "--class-separation", "2.0", "--noise-sigma", "0.5",
        "--seed", 7, "--out", out,
    )
    assert r.returncode == 0, r.stderr
    return out


def test_synth_writes_dataset_and_manifest(synth_dir):
    for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt",
                 "run_manifest.json"):
        assert (synth_dir / name).is_file()
    meta = json.loads((synth_dir / "meta.json").read_text())
    assert meta["num_nodes"] == 60
    assert meta["num_classes"] == 3
    manifest = json.loads((synth_dir / "run_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert "dataset" in manifest and "sha256" in manifest["dataset"]


def test_synth_determinism(tmp_path, synth_dir):
    out2 = tmp_path / "again"
    r = run_cli(
        "synth", "--n", 60, "--c", 3, "--h", "0.8", "--avg-degree", 4,
        "--feature-dim", 6, "--class-separation", "2.0", "--noise-sigma", "0.5",
        "--seed", 7, "--out", out2,
    )
    assert r.returncode == 0
    for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt"):
        assert (out2 / name).read_bytes() == (synth_dir / name).read_bytes()


def test_synth_bad_homophily_exits_2(tmp_path):
    r = run_cli("synth", "--n", 20, "--c", 2, "--h", "1.5",
                "--out", tmp_path / "x")
    assert r.returncode == 2
    assert "homophily" in r.stderr.lower() or "h" in r.stderr


def test_stats_reports_homophily(synth_dir, tmp_path):
    r = run_cli("stats", synth_dir)
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert 0.7 <= report["global"] <= 0.9
    # isolated nodes have no local value and sit outside the histogram
    assert sum(report["histogram"]) + report["num_undefined_local"] == 60
    assert report["bins"] == 10


def test_stats_local_csv(synth_dir, tmp_path):
    local = tmp_path / "local.csv"
    r = run_cli("stats", synth_dir, "--local-csv", local, "--out", tmp_path / "rep.json")
    assert r.returncode == 0
    lines = local.read_text().strip().split("\n")
    assert lines[0] == "node,local_homophily"
    assert len(lines) == 61
    assert (tmp_path / "rep.json").is_file()


def test_stats_missing_dataset_exits_2(tmp_path):
    r = run_cli("stats", tmp_path / "nope")
    assert r.returncode == 2
    assert "missing" in r.stderr.lower()


def test_stats_unlabeled_exits_2(tmp_path, synth_dir):
    import shutil
    target = tmp_path / "unlabeled"
    shutil.copytree(synth_dir, target)
    (target / "labels.txt").unlink()
    r = run_cli("stats", target)
    assert r.returncode == 2
    assert "labels.txt" in r.stderr


@pytest.fixture(scope="module")
def embed_run(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("emb")
    r = run_cli(
        "embed", synth_dir, "--epochs", 5, "--dim-ego", 8, "--dim-agg", 8,
        "--hidden-dim", 8, "--walk-lengths", "3,5", "--seed", 3,
        "--format", "both", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    return out


def test_embed_writes_all_artifacts(embed_run):
    for name in ("embeddings.bin", "embeddings.ego.bin", "embeddings.agg.bin",
                 "embeddings.csv", "trace.csv", "run_manifest.json"):
        assert (embed_run / name).is_file(), name


def test_embed_output_shapes(embed_run):
    h = load_matrix_binary(embed_run / "embeddings.bin")
    assert h.shape == (60, 16)
    ego = load_matrix_binary(embed_run / "embeddings.ego.bin")
    agg = load_matrix_binary(embed_run / "embeddings.agg.bin")
    assert ego.shape == (60, 8) and agg.shape == (60, 8)
    csv = load_matrix_csv(embed_run / "embeddings.csv")
    assert np.allclose(csv, h, atol=1e-6)


def test_embed_trace_format(embed_run):
    lines = (embed_run / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,l_ego,l_agg,l_s,l_total"
    assert len(lines) == 6  # header + 5 epochs
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(float(x) >= 0.0 for x in first[1:])


def test_embed_manifest_resolved_config(embed_run):
    manifest = json.loads((embed_run / "run_manifest.json").read_text())
    cfg = manifest["resolved_config"]
    assert cfg["epochs"] == 5
    assert cfg["walk_lengths"] == [3, 5]
    assert cfg["seed"] == 3
    assert manifest["outputs"]
    assert manifest["duration_seconds"] >= 0.0


# each manifest env field against the same reader run in this process, which
# inherits the same environment as the CLI child
MANIFEST_ENV = {
    "python": platform.python_version,
    "numpy": lambda: np.__version__,
    "scipy": lambda: scipy.__version__,
    "blas": lambda: blas_info()[0],
    "blas_threads": lambda: blas_info()[1],
    "cpus": usable_cpus,
    "adjacency_workers": adjacency_workers,
}


def test_embed_manifest_env_fields(embed_run):
    manifest = json.loads((embed_run / "run_manifest.json").read_text())
    assert sorted(manifest["env"]) == sorted(MANIFEST_ENV)


@pytest.mark.parametrize("field", sorted(MANIFEST_ENV))
def test_embed_manifest_env_value(embed_run, field):
    manifest = json.loads((embed_run / "run_manifest.json").read_text())
    assert manifest["env"][field] == MANIFEST_ENV[field]()


def test_manifest_env_follows_blas_thread_pin(tmp_path, synth_dir):
    if blas_info()[1] is None:
        pytest.skip("no OpenBLAS thread count to pin")
    out = tmp_path / "pinned"
    r = subprocess.run(
        [sys.executable, "-m", "mvge", "embed", str(synth_dir), "--epochs", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert r.returncode == 0, r.stderr
    env = json.loads((out / "run_manifest.json").read_text())["env"]
    assert env["blas_threads"] == 1
    assert env["adjacency_workers"] == (2 if env["cpus"] >= 2 else 1)


def test_embed_byte_identical_rerun(tmp_path, synth_dir, embed_run):
    out2 = tmp_path / "emb2"
    r = run_cli(
        "embed", synth_dir, "--epochs", 5, "--dim-ego", 8, "--dim-agg", 8,
        "--hidden-dim", 8, "--walk-lengths", "3,5", "--seed", 3,
        "--format", "both", "--out", out2,
    )
    assert r.returncode == 0
    for name in ("embeddings.bin", "embeddings.ego.bin", "embeddings.agg.bin",
                 "embeddings.csv", "trace.csv"):
        assert (out2 / name).read_bytes() == (embed_run / name).read_bytes()


def test_embed_manifest_replay(tmp_path, synth_dir, embed_run):
    """Feeding a manifest back through --config reproduces the run."""
    out2 = tmp_path / "replay"
    r = run_cli("embed", synth_dir, "--config", embed_run / "run_manifest.json",
                "--format", "both", "--out", out2)
    assert r.returncode == 0, r.stderr
    assert (out2 / "embeddings.bin").read_bytes() == (embed_run / "embeddings.bin").read_bytes()
    assert (out2 / "trace.csv").read_bytes() == (embed_run / "trace.csv").read_bytes()


def test_embed_task_mask_zeroes_trace_column(tmp_path, synth_dir):
    out = tmp_path / "masked"
    r = run_cli("embed", synth_dir, "--epochs", 3, "--dim-ego", 4, "--dim-agg", 4,
                "--hidden-dim", 4, "--walk-lengths", "3", "--task-mask", "ego",
                "--out", out)
    assert r.returncode == 0
    rows = (out / "trace.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        _, l_ego, l_agg, l_s, _ = row.split(",")
        assert float(l_agg) == 0.0 and float(l_s) == 0.0
        assert float(l_ego) > 0.0


def test_embed_zero_epochs(tmp_path, synth_dir):
    out = tmp_path / "zero"
    r = run_cli("embed", synth_dir, "--epochs", 0, "--dim-ego", 4, "--dim-agg", 4,
                "--hidden-dim", 4, "--walk-lengths", "3", "--out", out)
    assert r.returncode == 0
    rows = (out / "trace.csv").read_text().strip().split("\n")
    assert rows == ["epoch,l_ego,l_agg,l_s,l_total"]
    assert load_matrix_binary(out / "embeddings.bin").shape == (60, 8)


def test_embed_unknown_config_key_exits_2(tmp_path, synth_dir):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"epochz": 3}))
    r = run_cli("embed", synth_dir, "--config", cfgfile, "--out", tmp_path / "o")
    assert r.returncode == 2
    assert "epochz" in r.stderr


def test_eval_node_on_informative_embeddings(tmp_path, synth_dir):
    # hand-build one-hot embeddings so the probe has a perfect signal
    from mvge.data import load_dataset, save_matrix_binary

    ds = load_dataset(synth_dir)
    h = np.eye(3)[ds.labels]
    save_matrix_binary(h, tmp_path / "onehot.bin")
    out = tmp_path / "node"
    r = run_cli("eval-node", synth_dir, "--embeddings", tmp_path / "onehot.bin",
                "--repeats", 3, "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["task"] == "node"
    assert report["mean"] == 1.0
    saved = json.loads((out / "report.json").read_text())
    assert saved == report
    repeats = (out / "repeats.csv").read_text().strip().split("\n")
    assert repeats[0] == "repeat,micro_f1"
    assert len(repeats) == 4
    # no training happened, so there is no resolved config to pin
    assert not (out / "run_manifest.json").exists()


def test_eval_link_writes_split_manifest(tmp_path):
    data = tmp_path / "ring"
    r = run_cli("synth", "--n", 80, "--c", 2, "--h", "0.7", "--avg-degree", 4,
                "--feature-dim", 4, "--seed", 1, "--out", data)
    assert r.returncode == 0
    out = tmp_path / "link"
    r = run_cli("eval-link", data, "--epochs", 5, "--dim-ego", 4, "--dim-agg", 4,
                "--hidden-dim", 4, "--walk-lengths", "3", "--repeats", 2,
                "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["task"] == "link"
    assert len(report["scores"]) == 2
    splits = json.loads((out / "splits.json").read_text())
    assert len(splits) == 2
    assert splits[0]["repeat"] == 0
    assert splits[0]["test_pos"]


def test_eval_pair_runs(tmp_path, synth_dir):
    out = tmp_path / "pair"
    r = run_cli("eval-pair", synth_dir, "--epochs", 5, "--dim-ego", 4,
                "--dim-agg", 4, "--hidden-dim", 4, "--walk-lengths", "3",
                "--repeats", 2, "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["task"] == "pair"
    assert report["metric"] == "roc_auc"
    assert len(report["scores"]) == 2


def test_gridsearch_artifacts(tmp_path, synth_dir):
    out = tmp_path / "grid"
    r = run_cli("gridsearch", synth_dir, "--grid-step", "0.5", "--epochs", 2,
                "--dim-ego", 4, "--dim-agg", 4, "--hidden-dim", 4,
                "--walk-lengths", "3", "--out", out)
    assert r.returncode == 0, r.stderr
    lines = (out / "grid.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,score"
    assert len(lines) == 10  # header + 3x3 grid
    best = json.loads((out / "best.json").read_text())
    assert {"alpha", "beta", "score"} <= set(best)
    scores = [float(l.split(",")[2]) for l in lines[1:]]
    assert best["score"] == max(scores)


def test_diag_reports_view_sigmas(tmp_path, embed_run):
    r = run_cli("diag", "--embeddings", embed_run / "embeddings.bin")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "view,dim,sigma"
    views = {l.split(",")[0] for l in lines[1:]}
    assert views == {"ego", "agg"}
    assert len(lines) == 17  # header + 8 dims per view


def test_missing_out_flag_is_usage_error(tmp_path, synth_dir):
    r = run_cli("embed", synth_dir)
    assert r.returncode == 2
    r = run_cli("synth", "--n", 10, "--c", 2, "--h", "1.0")
    assert r.returncode == 2


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


# -- malformed outside input ends in exit 2 and one error line --------------

def _set_meta(ds, **values):
    meta = json.loads((ds / "meta.json").read_text())
    meta.update(values)
    (ds / "meta.json").write_text(json.dumps(meta))


def _meta_not_json(ds, tmp):
    (ds / "meta.json").write_text("{not json")
    return ["stats", ds], "meta.json"


def _num_nodes_not_int(ds, tmp):
    _set_meta(ds, num_nodes="sixty")
    return ["stats", ds], "meta.json"


def _ragged_features(ds, tmp):
    rows = (ds / "features.csv").read_text().splitlines()
    rows[2] = "1.0,2.0"
    (ds / "features.csv").write_text("\n".join(rows) + "\n")
    return ["stats", ds], "features.csv"


def _non_numeric_features(ds, tmp):
    rows = (ds / "features.csv").read_text().splitlines()
    rows[1] = "abc" + rows[1][rows[1].index(","):]
    (ds / "features.csv").write_text("\n".join(rows) + "\n")
    return ["stats", ds], "features.csv"


def _config_value(value):
    def case(ds, tmp):
        (tmp / "cfg.json").write_text(json.dumps(value))
        return ["embed", ds, "--config", tmp / "cfg.json", "--out", tmp / "o"], "cfg.json"
    return case


def _non_numeric_embedding_csv(ds, tmp):
    (tmp / "e.csv").write_text("node,e0,e1\n0,1.0,x\n")
    return ["eval-node", ds, "--embeddings", tmp / "e.csv"], "e.csv"


def _pair_embedding_rows(rows):
    def case(ds, tmp):
        from mvge.data import save_matrix_binary

        save_matrix_binary(np.ones((rows, 4)), tmp / "h.bin")
        return ["eval-pair", ds, "--embeddings", tmp / "h.bin", "--repeats", 1], \
            f"embedding rows {rows} != num_nodes 60"
    return case


def _embed_value(flag, value, named):
    return lambda ds, tmp: (["embed", ds, "--adj-loss-mode", "sampled", flag, value,
                             "--out", tmp / "o"], named)


def _synth_value(flag, value, named):
    return lambda ds, tmp: (["synth", "--n", 20, "--c", 2, "--h", "0.5", flag, value,
                             "--out", tmp / "s"], named)


def _eval_node_seed_negative(ds, tmp):
    from mvge.data import save_matrix_binary

    save_matrix_binary(np.ones((60, 4)), tmp / "h.bin")
    return ["eval-node", ds, "--embeddings", tmp / "h.bin", "--seed", -1], "seed"


MALFORMED = {
    "meta_not_json": _meta_not_json,
    "num_nodes_not_int": _num_nodes_not_int,
    "ragged_features": _ragged_features,
    "non_numeric_features": _non_numeric_features,
    "config_epochs_str": _config_value({"epochs": "ten"}),
    "config_walk_lengths_int": _config_value({"walk_lengths": 5}),
    "config_epochs_float": _config_value({"epochs": 2.5}),
    "seed_negative": lambda ds, tmp: (["embed", ds, "--seed", -1, "--out", tmp / "o"], "seed"),
    "synth_seed_negative": lambda ds, tmp: (
        ["synth", "--n", 20, "--c", 2, "--h", "0.5", "--seed", -1, "--out", tmp / "s"], "seed"),
    "eval_node_seed_negative": _eval_node_seed_negative,
    "non_numeric_embedding_csv": _non_numeric_embedding_csv,
    "pair_embedding_rows_10": _pair_embedding_rows(10),
    "pair_embedding_rows_61": _pair_embedding_rows(61),
    "lr_nan": _embed_value("--lr", "nan", "lr must be finite"),
    "lr_inf": _embed_value("--lr", "inf", "lr must be finite"),
    "sample_ratio_nan": _embed_value("--sample-ratio", "nan", "sample_ratio"),
    "sample_ratio_inf": _embed_value("--sample-ratio", "inf", "sample_ratio"),
    "synth_avg_degree_nan": _synth_value("--avg-degree", "nan", "avg_degree"),
    "synth_avg_degree_inf": _synth_value("--avg-degree", "inf", "avg_degree"),
    "synth_noise_sigma_negative": _synth_value("--noise-sigma", -1, "noise_sigma"),
    "synth_noise_sigma_nan": _synth_value("--noise-sigma", "nan", "noise_sigma"),
    "synth_class_separation_nan": _synth_value("--class-separation", "nan", "class_separation"),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_without_traceback(tmp_path, synth_dir, case):
    import shutil

    ds = tmp_path / "ds"
    shutil.copytree(synth_dir, ds)
    argv, named = case(ds, tmp_path)
    r = run_cli(*argv)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and named in r.stderr


def test_diverged_training_exits_3_without_traceback(synth_dir, tmp_path):
    r = run_cli("embed", synth_dir, "--epochs", 5, "--lr", "1e300", "--out", tmp_path / "o")
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    errors = [line for line in r.stderr.splitlines() if line.startswith("error:")]
    assert errors == ["error: non-finite loss nan at epoch 1"]


def test_diverged_training_prints_no_numpy_warnings(synth_dir, tmp_path):
    r = run_cli("embed", synth_dir, "--epochs", 5, "--lr", "1e300", "--out", tmp_path / "o")
    assert r.returncode == 3, r.stderr
    assert "RuntimeWarning" not in r.stderr
