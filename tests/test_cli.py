"""Command-line interface: subcommands, exit codes, artifacts, replay."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

from mvge import cli
from mvge.data import load_matrix_binary, load_matrix_csv
from mvge.evaluate import SplitSpec
from mvge.model import FULL_ADJ_MAX_NODES, MVGEConfig, adjacency_workers
from mvge.numerics import blas_info, usable_cpus
from mvge.synth import SynthSpec


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


@pytest.mark.parametrize("bins", [10**12, 10**20])
def test_stats_refuses_huge_bins(synth_dir, bins):
    # 10**12 bins once ended in a numpy allocation error, 10**20 in an OverflowError
    r = run_cli("stats", synth_dir, "--bins", bins)
    assert r.returncode == 2
    assert r.stderr == f"error: bins must be in [1, 1000000], got {bins}\n"
    assert "1 to 1000000" in " ".join(run_cli("stats", "--help").stdout.split())


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


def test_gridsearch_sizes_the_probe_from_the_labels(tmp_path, synth_dir):
    # a meta.json num_classes of 10**9 sets no allocation: the probe has one
    # class per label value, so the grid is the same as at the true 3
    import shutil

    ds = tmp_path / "ds"
    shutil.copytree(synth_dir, ds)
    _set_meta(ds, num_classes=10**9)
    grids = []
    for data, out in ((synth_dir, tmp_path / "true"), (ds, tmp_path / "huge")):
        r = run_cli("gridsearch", data, "--grid-step", "1", "--epochs", 2, "--dim-ego", 4,
                    "--dim-agg", 4, "--hidden-dim", 4, "--walk-lengths", "3", "--out", out)
        assert r.returncode == 0, r.stderr
        grids.append((out / "grid.csv").read_text())
    assert grids[0] == grids[1]


def test_diag_reports_view_sigmas(tmp_path, embed_run):
    r = run_cli("diag", "--embeddings", embed_run / "embeddings.bin")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "view,dim,sigma"
    views = {l.split(",")[0] for l in lines[1:]}
    assert views == {"ego", "agg"}
    assert len(lines) == 17  # header + 8 dims per view


def test_diag_reads_csv_only_embeddings(tmp_path, synth_dir):
    out = tmp_path / "emb"
    r = run_cli("embed", synth_dir, "--epochs", 2, "--dim-ego", 4, "--dim-agg", 5,
                "--hidden-dim", 8, "--walk-lengths", "3", "--seed", 3,
                "--format", "csv", "--out", out)
    assert r.returncode == 0, r.stderr
    assert not list(out.glob("*.bin"))
    r = run_cli("diag", "--embeddings", out / "embeddings.csv")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "view,dim,sigma"
    rows = [l.split(",") for l in lines[1:]]
    assert [(v, int(i)) for v, i, _ in rows] == (
        [("ego", i) for i in range(4)] + [("agg", i) for i in range(5)])


@pytest.mark.parametrize("command", ["stats", "diag"])
def test_commands_without_randomness_take_no_seed(command, synth_dir):
    args = [synth_dir] if command == "stats" else ["--embeddings", synth_dir / "e.bin"]
    r = run_cli(command, *args, "--seed", 1)
    assert r.returncode == 2
    assert "unrecognized arguments: --seed 1" in r.stderr


def test_missing_out_flag_is_usage_error(tmp_path, synth_dir):
    r = run_cli("embed", synth_dir)
    assert r.returncode == 2
    r = run_cli("synth", "--n", 10, "--c", 2, "--h", "1.0")
    assert r.returncode == 2
    r = run_cli("gridsearch", synth_dir)
    assert r.returncode == 2
    assert "the following arguments are required: --out" in r.stderr
    r = run_cli("synth", "--n", 10, "--c", 2, "--h", "1.0", "--out", "")
    assert r.returncode == 2
    assert "argument --out: an empty path is not an output directory" in r.stderr


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "0.1.0" in r.stdout


# -- setting flags mirror the fields of the specs -----------------------------

# each command's least argv, and the specs it builds from that with every
# optional setting flag left out
SPEC_COMMANDS = {
    "synth": (("--n", 20, "--c", 2, "--h", 0.5, "--out", "o"), (SynthSpec(20, 2, 0.5),)),
    "embed": (("ds", "--out", "o"), (MVGEConfig(),)),
    "eval-node": (("ds", "--embeddings", "e.bin"), (SplitSpec("node"),)),
    "eval-link": (("ds",), (MVGEConfig(), SplitSpec("link"))),
    "eval-pair": (("ds",), (MVGEConfig(), SplitSpec("pair"))),
    "gridsearch": (("ds", "--out", "o"), (MVGEConfig(),)),
}
# the SplitSpec fields a command fixes; the link and pair tasks take the config's seed
SPLIT_FIXED = {"eval-node": ("task",), "eval-link": ("task", "seed"),
               "eval-pair": ("task", "seed")}
# a value other than the default for each setting: (flag text, the field's value)
FIELD_VALUES = {
    "dim_ego": ("7", 7), "dim_agg": ("9", 9), "hidden_dim": ("5", 5),
    "alpha": ("0.25", 0.25), "beta": ("0.75", 0.75), "epochs": ("3", 3), "lr": ("0.5", 0.5),
    "seed": ("5", 5), "walk_lengths": ("2,7", (2, 7)), "aggr": ("mean", "mean"),
    "merge_fn": ("sum", "sum"), "task_mask": ("ego,adj", frozenset({"ego", "adj"})),
    "ego_encoder": ("gcn", "gcn"), "adj_loss_mode": ("sampled", "sampled"),
    "sample_ratio": ("2.5", 2.5), "train_fraction": ("0.5", 0.5), "repeats": ("3", 3),
    "num_nodes": ("30", 30), "num_classes": ("3", 3), "target_homophily": ("0.25", 0.25),
    "avg_degree": ("6.5", 6.5), "feature_dim": ("8", 8), "class_separation": ("2.5", 2.5),
    "noise_sigma": ("0.5", 0.5),
}
FLAG_NAMES = {"num_nodes": "--n", "num_classes": "--c", "target_homophily": "--h"}
SETTING_FLAGS = [
    (command, type(spec), f.name)
    for command, (_, specs) in SPEC_COMMANDS.items() for spec in specs
    for f in dataclasses.fields(spec)
    if not (type(spec) is SplitSpec and f.name in SPLIT_FIXED[command])
]


class _Built(Exception):
    """Raised in place of the work a command does with the specs it built."""


@pytest.fixture
def built_specs(monkeypatch):
    """``mvge.cli.main`` in-process up to the first call handed a spec; returns
    the specs of that call by type. Datasets and embeddings are not read."""
    specs = {}

    def capture(*args, **kwargs):
        specs.update((type(a), a) for a in (*args, *kwargs.values())
                     if dataclasses.is_dataclass(a))
        raise _Built

    for name in ("generate_synthetic", "train", "node_classification_eval",
                 "link_prediction_eval", "pairwise_eval", "grid_search_alpha_beta"):
        monkeypatch.setattr(cli, name, capture)
    for name in ("load_dataset", "_load_labeled", "load_matrix"):
        monkeypatch.setattr(cli, name, lambda *args: SimpleNamespace(labels=None))

    def run(command, *argv):
        specs.clear()
        with pytest.raises(_Built):
            cli.main([command, *map(str, argv)])
        return dict(specs)
    return run


@pytest.mark.parametrize("command, cls, name", SETTING_FLAGS,
                         ids=[f"{c}-{k.__name__}.{n}" for c, k, n in SETTING_FLAGS])
def test_setting_flag_reaches_the_spec(built_specs, command, cls, name):
    argv, defaults = SPEC_COMMANDS[command]
    text, value = FIELD_VALUES[name]
    default = getattr(next(s for s in defaults if type(s) is cls), name)
    assert default != value
    specs = built_specs(command, *argv, FLAG_NAMES.get(name, "--" + name.replace("_", "-")),
                        text)
    assert getattr(specs[cls], name) == value


@pytest.mark.parametrize("command", SPEC_COMMANDS)
def test_setting_flags_left_out_give_the_spec_defaults(built_specs, command):
    argv, defaults = SPEC_COMMANDS[command]
    assert built_specs(command, *argv) == {type(s): s for s in defaults}


@pytest.mark.parametrize("command", ["eval-link", "eval-pair"])
def test_split_seed_is_the_config_seed(built_specs, command, tmp_path):
    assert built_specs(command, "ds", "--seed", 4)[SplitSpec].seed == 4
    (tmp_path / "cfg.json").write_text(json.dumps({"seed": 6}))
    assert built_specs(command, "ds", "--config", tmp_path / "cfg.json")[SplitSpec].seed == 6


def test_help_shows_setting_defaults():
    r = run_cli("embed", "--help")
    assert r.returncode == 0
    help_text = " ".join(r.stdout.split())
    for text in ("--epochs EPOCHS default: 200", "default: 3,5,10", "default: adj,agg,ego",
                 "--merge-fn {concat,sum,mean} default: concat",
                 "--alpha ALPHA default: 0.5; must be in [0, 1]",
                 "--seed SEED default: 0; must be in [0, 2**64)"):
        assert text in help_text


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


def _meta_value(key, value):
    def case(ds, tmp):
        _set_meta(ds, **{key: value})
        return ["stats", ds], f"meta.json: {key} must be an integer, got {value!r}"
    return case


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


def _config_value(value, named="cfg.json"):
    def case(ds, tmp):
        (tmp / "cfg.json").write_text(json.dumps(value))
        return ["embed", ds, "--config", tmp / "cfg.json", "--out", tmp / "o"], named
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


def _eval_node_non_finite(ds, tmp):
    from mvge.data import save_matrix_binary

    h = np.ones((60, 4))
    h[7, 2] = np.nan
    save_matrix_binary(h, tmp / "h.bin")
    return ["eval-node", ds, "--embeddings", tmp / "h.bin"], "embeddings contain non-finite values"


def _dataset_error(message, edit):
    """A dataset made bad as a whole by ``edit(ds)``: the error names its directory."""
    def case(ds, tmp):
        edit(ds)
        return ["stats", ds], f"{ds}: {message}"
    return case


def _append_edge(ds, line="0\t99"):
    with open(ds / "edges.tsv", "a") as f:
        f.write(line + "\n")


def _file_error(message, edit):
    """A dataset with one file made bad by ``edit(ds)``: the error names the file."""
    def case(ds, tmp):
        edit(ds)
        return ["stats", ds], message.format(ds=ds)
    return case


def _first_label(ds, label):
    labels = (ds / "labels.txt").read_text().splitlines()
    (ds / "labels.txt").write_text("\n".join([label, *labels[1:]]) + "\n")


def _drop_meta(ds, key):
    meta = json.loads((ds / "meta.json").read_text())
    del meta[key]
    (ds / "meta.json").write_text(json.dumps(meta))


def _eval_node_seed_negative(ds, tmp):
    from mvge.data import save_matrix_binary

    save_matrix_binary(np.ones((60, 4)), tmp / "h.bin")
    return ["eval-node", ds, "--embeddings", tmp / "h.bin", "--seed", -1], "seed"


MALFORMED = {
    "meta_not_json": _meta_not_json,
    "num_nodes_not_int": _num_nodes_not_int,
    "meta_num_nodes_float": _meta_value("num_nodes", 60.5),
    "meta_num_classes_float": _meta_value("num_classes", 2.5),
    "meta_num_features_str": _meta_value("num_features", "6"),
    "meta_num_nodes_bool": _meta_value("num_nodes", True),
    "ragged_features": _ragged_features,
    "non_numeric_features": _non_numeric_features,
    "config_epochs_str": _config_value({"epochs": "ten"}),
    "config_walk_lengths_int": _config_value({"walk_lengths": 5}),
    "config_epochs_float": _config_value({"epochs": 2.5}),
    "config_walk_lengths_float": _config_value({"walk_lengths": [3.7, 5]},
                                               "walk lengths must be integers, got 3.7"),
    "config_walk_lengths_str": _config_value({"walk_lengths": ["3"]},
                                             "walk lengths must be integers, got '3'"),
    "config_walk_lengths_bool": _config_value({"walk_lengths": [True, 2]},
                                              "walk lengths must be integers, got True"),
    "config_alpha_bool": _config_value({"alpha": True}, "alpha must be a real number, got True"),
    "config_lr_bool": _config_value({"lr": True}, "lr must be a real number, got True"),
    "config_lr_str": _config_value({"lr": "0.1"}, "lr must be a real number, got '0.1'"),
    "config_resolved_config_list": _config_value({"resolved_config": ["epochs"]},
                                                 "cfg.json must be a JSON object"),
    "config_resolved_config_int": _config_value({"resolved_config": 5},
                                                "cfg.json must be a JSON object"),
    "meta_num_nodes_negative": _dataset_error(
        "num_nodes must be non-negative", lambda ds: _set_meta(ds, num_nodes=-1)),
    "meta_num_nodes_above_features": _dataset_error(
        "feature row count 60 != node count 61", lambda ds: _set_meta(ds, num_nodes=61)),
    "edge_endpoint_out_of_range": _dataset_error(
        "edge endpoint out of range [0, 60): found 0..99", _append_edge),
    "meta_num_nodes_2_62": _dataset_error(
        f"feature row count 60 != node count {2**62}", lambda ds: _set_meta(ds, num_nodes=2**62)),
    "meta_num_nodes_10_20": _dataset_error(
        f"feature row count 60 != node count {10**20}", lambda ds: _set_meta(ds, num_nodes=10**20)),
    "edge_id_past_int64": _file_error(
        "node id 99999999999999999999 out of the int64 range in {ds}/edges.tsv:",
        lambda ds: _append_edge(ds, "0\t99999999999999999999")),
    "label_past_int64": _file_error(
        "label 99999999999999999999 out of the int64 range in {ds}/labels.txt:1",
        lambda ds: _first_label(ds, "99999999999999999999")),
    "label_not_int": _file_error("non-integer label 'x' in {ds}/labels.txt:1",
                                 lambda ds: _first_label(ds, "x")),
    "meta_name_missing": _file_error("{ds}/meta.json: missing key 'name'",
                                     lambda ds: _drop_meta(ds, "name")),
    "meta_num_features_wrong": _file_error(
        "{ds}/features.csv: feature column count 6 != meta num_features 7",
        lambda ds: _set_meta(ds, num_features=7)),
    "meta_num_classes_missing": _file_error(
        "{ds}/labels.txt present but {ds}/meta.json lacks num_classes",
        lambda ds: _drop_meta(ds, "num_classes")),
    "seed_negative": lambda ds, tmp: (["embed", ds, "--seed", -1, "--out", tmp / "o"], "seed"),
    "synth_seed_negative": lambda ds, tmp: (
        ["synth", "--n", 20, "--c", 2, "--h", "0.5", "--seed", -1, "--out", tmp / "s"], "seed"),
    "eval_node_seed_negative": _eval_node_seed_negative,
    "eval_node_non_finite": _eval_node_non_finite,
    "non_numeric_embedding_csv": _non_numeric_embedding_csv,
    "pair_embedding_rows_10": _pair_embedding_rows(10),
    "pair_embedding_rows_61": _pair_embedding_rows(61),
    "lr_nan": _embed_value("--lr", "nan", "lr must be finite"),
    "lr_inf": _embed_value("--lr", "inf", "lr must be finite"),
    "alpha_flushed_in_float32": _embed_value(
        "--alpha", "1e-300", "task weight beta * alpha = 8e-301 is below float32's smallest normal"),
    "sample_ratio_nan": _embed_value("--sample-ratio", "nan", "sample_ratio"),
    "sample_ratio_inf": _embed_value("--sample-ratio", "inf", "sample_ratio"),
    "synth_avg_degree_nan": _synth_value("--avg-degree", "nan", "avg_degree"),
    "synth_avg_degree_inf": _synth_value("--avg-degree", "inf", "avg_degree"),
    "synth_noise_sigma_negative": _synth_value("--noise-sigma", -1, "noise_sigma"),
    "synth_noise_sigma_nan": _synth_value("--noise-sigma", "nan", "noise_sigma"),
    "synth_class_separation_nan": _synth_value("--class-separation", "nan", "class_separation"),
    "synth_avg_degree_overflow": _synth_value("--avg-degree", "1e308",
                                              "requested degree exceeds the complete graph"),
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
    assert r.stderr.count("error: ") == 1


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


def test_verbose_flags_log_to_stderr(synth_dir, tmp_path):
    import shutil

    ds = tmp_path / "ds"
    shutil.copytree(synth_dir, ds)
    with open(ds / "edges.tsv", "a") as f:
        f.write("0\t0\n")  # a self-loop, dropped on load
    runs = {}
    for flags in ((), ("-v",), ("-vv",)):
        r = run_cli(*flags, "embed", ds, "--epochs", 2, "--adj-loss-mode", "sampled",
                    "--format", "binary", "--out", tmp_path / f"o{len(flags)}")
        assert r.returncode == 0, r.stderr
        runs[flags] = r.stderr.splitlines()
        emb = (tmp_path / f"o{len(flags)}" / "embeddings.bin").read_bytes()
        assert emb == (tmp_path / "o0" / "embeddings.bin").read_bytes()
    assert runs[()] == []
    info = runs[("-v",)]
    assert "INFO mvge.data: ds: dropped 1 self-loops, 0 duplicate edges" in info
    assert any(line.startswith("INFO mvge.model: training on 60 nodes: sampled adjacency loss "
                               "(adj_loss_mode sampled), ") for line in info)
    assert all(line.startswith("INFO ") for line in info)
    debug = runs[("-vv",)]
    assert set(info) < set(debug)
    assert any(line.startswith("DEBUG mvge.walks: walks: ") for line in debug)
    assert sum(line.startswith("DEBUG mvge.model: sampled adjacency loss: ")
               and "tested pairs were non-edges" in line for line in debug) == 2  # one per epoch


def test_verbose_states_the_cost_of_forced_full_mode(synth_dir, tmp_path):
    """Full mode forced above FULL_ADJ_MAX_NODES logs its O(N^2) epoch estimate
    at -v, 0.24 s at 5000 nodes scaled by (N / 5000)^2; below it, nothing."""
    big = tmp_path / "big"
    r = run_cli("synth", "--n", FULL_ADJ_MAX_NODES + 1, "--c", 3, "--h", 0.5,
                "--feature-dim", 4, "--seed", 1, "--out", big)
    assert r.returncode == 0, r.stderr
    runs = {}
    for name, ds, mode in (("forced", big, "full"), ("auto", big, "auto"),
                           ("small", synth_dir, "full")):
        r = run_cli("-v", "embed", ds, "--epochs", 0, "--adj-loss-mode", mode,
                    "--format", "binary", "--out", tmp_path / name)
        assert r.returncode == 0, r.stderr
        runs[name] = [line for line in r.stderr.splitlines() if "growing as N^2" in line]
    n = FULL_ADJ_MAX_NODES + 1
    assert runs["forced"] == [
        f"INFO mvge.model: full adjacency loss on {n} nodes, above {FULL_ADJ_MAX_NODES}: "
        f"about {0.24 * (n / 5000) ** 2:.3g} s per epoch, growing as N^2"]
    assert runs["auto"] == runs["small"] == []
