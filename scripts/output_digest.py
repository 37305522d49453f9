#!/usr/bin/env python3
"""Print one sha256 per group of mvge outputs, so that two runs can be diffed.

Two runs print the same lines exactly when every output has the same bits.
That checks that a change left outputs byte-identical (run it on both
commits), or that one build gives the same bits on one worker thread and on
two (the adjacency loss and the encoder branches use a second thread only at
one BLAS thread on two or more CPUs):

    OPENBLAS_NUM_THREADS=1 python3 scripts/output_digest.py > two.txt
    OPENBLAS_NUM_THREADS=1 taskset -c 0 python3 scripts/output_digest.py > one.txt
    diff one.txt two.txt

The groups, one line each:
  train/<encoder>/<merge>/<mode>/<tasks>  h, h_ego, h_agg and the loss trace
      of every ego encoder x merge function x adjacency mode x task mask
      (all tasks, or ego, agg or adj dropped);
  model/init        the parameter names, in insertion order, and the shapes and
      initial values of MVGEModel for both ego encoders, at two width sets
      whose ego and agg input widths and embedding widths differ;
  graph/from_edges  the CSR arrays, edge ids and repair counts of graphs built
      from seeded dirty edge lists (self-loops, repeats, both directions,
      isolated nodes) and from empty ones;
  synth             graphs and features over a grid of specs, including specs
      whose edge budget takes the dense fallback;
  sample_non_edges, sample_label_pairs  both evaluate samplers, on their
      rejection and their dense paths; the label pairs also on many small
      classes, on both paths, some of them empty or with one member;
  probe/multiclass, probe/binary  the weights and bias of the logistic-regression
      probe fitted on fixed seeded features, so a probe-only change shows
      apart from the trainings;
  report/node, report/link, report/pair  the protocol scores;
  save_embeddings/<merge>  the six files save_embeddings(fmt="both") writes
      after one training per merge function, in the order it returns them;
  cli/<command>     every file that synth, stats, embed, eval-node, eval-link,
      eval-pair, gridsearch and diag write when run through ``mvge.cli.main`` on
      one small graph, with each run manifest's duration, env block and dataset
      path left out; cli/<command>-defaults runs synth, eval-node and eval-pair
      again with every optional setting flag left out;
  errors/<group>    the outcome of each of a fixed list of bad inputs, one bad
      value at a time: the exception's type and message, or "ok" if it was
      accepted. The groups are the fields of MVGEConfig, WalkConfig, SplitSpec
      and SynthSpec, generate_synthetic on specs whose edge budget exceeds
      the pairs of that edge type, the keys of a dataset's meta.json,
      one-line edits of a dataset's files (numbers past int64, ragged rows, a
      missing key, a num_nodes far above the feature rows), a byte that is
      not UTF-8 in each of a dataset's files and in an embedding CSV, the
      formats of save_embeddings and of load_embeddings, and embeddings with
      NaN or inf given to the protocols.

The worker count and the directory of the mvge package it loaded go to
stderr, so they do not enter the diff. A PYTHONPATH entry comes before this
checkout's src/, so that one script digests another commit's tree:

    PYTHONPATH=<export of that commit>/src python3 scripts/output_digest.py

The default trains on 1000 nodes (multi-strip full mode, several sampled row
chunks) and takes about 5 s on a 2-vCPU VM; --tiny uses 40 nodes and takes
about 1 s.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# this checkout's src/ goes after the PYTHONPATH entries, which Python puts right
# after the script's own directory, so PYTHONPATH=<other tree>/src digests that tree
_pythonpath = os.environ.get("PYTHONPATH")
sys.path.insert(1 + len(_pythonpath.split(os.pathsep)) if _pythonpath else 1,
                str(Path(__file__).resolve().parents[1] / "src"))

import mvge
from mvge.cli import main as mvge_main
from mvge.data import (DATASET_FILES, EmbeddingSet, load_dataset, load_embeddings,
                       save_dataset, save_embeddings)
from mvge.evaluate import (LogRegModel, SplitSpec, _sample_label_pairs, _sample_non_edges,
                           link_prediction_eval, node_classification_eval, pairwise_eval)
from mvge.graph import Graph, ValidationError
from mvge.model import (EGO_ENCODERS, MERGE_FNS, MVGEConfig, MVGEModel, adjacency_workers,
                        train)
from mvge.synth import SynthSpec, generate_synthetic
from mvge.walks import WalkConfig

MASKS = {"all": ("ego", "agg", "adj"), "no-ego": ("agg", "adj"), "no-agg": ("ego", "adj"),
         "no-adj": ("ego", "agg")}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dataset(n: int, seed: int, h: float = 0.5):
    return generate_synthetic(SynthSpec(num_nodes=n, num_classes=3, target_homophily=h,
                                        avg_degree=4.0, feature_dim=8, seed=seed))


def training_lines(n: int, epochs: int):
    ds = dataset(n, seed=1)
    for encoder, merge, mode, mask in itertools.product(
            EGO_ENCODERS, MERGE_FNS, ("full", "sampled"), MASKS):
        cfg = MVGEConfig(dim_ego=8, dim_agg=8, hidden_dim=16, epochs=epochs, seed=3,
                         walk_lengths=(2, 4), ego_encoder=encoder, merge_fn=merge,
                         adj_loss_mode=mode, task_mask=frozenset(MASKS[mask]))
        _, emb, trace = train(ds, cfg)
        yield (f"train/{encoder}/{merge}/{mode}/{mask}",
               digest(emb.h, emb.h_ego, emb.h_agg, trace.l_ego, trace.l_agg,
                      trace.l_s, trace.l_total))


def model_init_line():
    """Each parameter's name, shape and initial value, in the params dict's
    order; the trainings pin only what the parameters become."""
    parts = []
    for encoder, (f_ego, f_agg, dim_ego, dim_agg) in itertools.product(
            EGO_ENCODERS, ((5, 12, 3, 7), (9, 4, 6, 2))):
        cfg = MVGEConfig(dim_ego=dim_ego, dim_agg=dim_agg, hidden_dim=16, seed=3,
                         ego_encoder=encoder)
        for name, p in MVGEModel(cfg, f_ego=f_ego, f_agg=f_agg).params.items():
            parts += [np.frombuffer(name.encode(), dtype=np.uint8), p.value]
    return "model/init", digest(*parts)


def graph_line(n: int):
    """Graph.from_edges on seeded dirty edge lists: endpoints drawn from a few
    nodes (self-loops and repeats, the others isolated) or from all, each list
    followed by some of its rows reversed; and on an empty list."""
    lists = [np.empty((0, 2), dtype=np.int64)]
    for seed, (top, size) in itertools.product(range(3), ((n // 4, n), (n, n // 2), (n, 3 * n))):
        edges = np.random.default_rng(seed).integers(0, top, size=(size, 2))
        lists.append(np.concatenate([edges, edges[::3, ::-1]]))
    parts = []
    for edges in lists:
        g, repairs = Graph.from_edges(n, edges)
        parts += [g.offsets, g.neighbors, g.edge_ids,
                  np.array([repairs.self_loops_dropped, repairs.duplicates_dropped])]
    return "graph/from_edges", digest(*parts)


def synth_line(sizes):
    parts = []
    for n, c, h, degree, seed in itertools.product(sizes, (1, 2, 3, 5), (0.0, 0.5, 0.9, 1.0),
                                                   (2.0, 6.0), (0, 1)):
        try:
            ds = generate_synthetic(SynthSpec(num_nodes=n, num_classes=c, target_homophily=h,
                                              avg_degree=degree, feature_dim=4, seed=seed))
        except ValidationError as exc:  # impossible specs are part of the output too
            parts.append(np.frombuffer(str(exc).encode(), dtype=np.uint8))
            continue
        parts += [ds.graph.offsets, ds.graph.neighbors, ds.features, ds.labels]
    return "synth", digest(*parts)


def sampler_lines(n: int):
    ds = dataset(n, seed=2)
    g, labels = ds.graph, ds.labels
    pool = n * (n - 1) // 2 - g.num_edges
    # a quarter of the pool or less is drawn by rejection, more from every kept pair
    non_edges = [_sample_non_edges(g, count, np.random.default_rng(count))
                 for count in (1, pool // 8, pool // 2, pool)]
    yield "sample_non_edges", digest(*non_edges)
    # many small classes too: only even labels (the odd ones are empty), and
    # five one-member classes, so the same-class pool is linear in n; and classes
    # of eight, whose same-class pool is also linear in n but large enough for
    # the rejection loop. min(pool // 4, 16 * pool**2 // total) is the most pairs
    # that loop draws
    many = np.arange(n) % max(n // 3, 1) * 2
    many[:5] = many.max() + 1 + 2 * np.arange(5)
    eights = np.arange(n) % max(n // 8, 1)
    total = n * (n - 1) // 2
    pairs = []
    for lab in (labels, many, eights):
        counts = np.bincount(lab)
        same_pool = int((counts * (counts - 1) // 2).sum())
        pairs += [_sample_label_pairs(lab, count, same, np.random.default_rng(count))
                  for same, pool in ((True, same_pool), (False, total - same_pool))
                  for count in (1, min(pool // 4, 16 * pool * pool // total), pool // 8,
                                pool // 2, pool)]
    yield "sample_label_pairs", digest(*pairs)


def probe_lines(n: int):
    rng = np.random.default_rng(9)
    for name, classes in (("multiclass", 5), ("binary", 2)):
        y = np.arange(n) % classes
        x = rng.normal(size=(n, 32)) + rng.normal(size=(classes, 32))[y]
        clf = LogRegModel().fit(x, y, num_classes=classes)
        yield f"probe/{name}", digest(clf.weights, clf.bias)


def report_lines(n: int, epochs: int):
    ds = dataset(n, seed=4, h=0.8)
    cfg = MVGEConfig(dim_ego=8, dim_agg=8, hidden_dim=16, epochs=epochs, seed=5,
                     walk_lengths=(2, 4))
    _, emb, _ = train(ds, cfg)
    node = node_classification_eval(emb.h, ds.labels, SplitSpec("node", repeats=3, seed=6))
    yield "report/node", digest(np.asarray(node.scores))
    link = link_prediction_eval(ds, cfg, SplitSpec("link", repeats=2, seed=7))
    yield "report/link", digest(np.asarray(link.scores))
    pair = pairwise_eval(ds, cfg, SplitSpec("pair", repeats=2, seed=8))
    yield "report/pair", digest(np.asarray(pair.scores))


def save_embeddings_lines(n: int, epochs: int):
    ds = dataset(n, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        for merge in MERGE_FNS:
            cfg = MVGEConfig(dim_ego=8, dim_agg=8, hidden_dim=16, epochs=epochs, seed=5,
                             walk_lengths=(2, 4), merge_fn=merge)
            _, emb, _ = train(ds, cfg)
            written = save_embeddings(emb, Path(tmp) / merge / "emb", fmt="both")
            lines = "".join(f"{file_digest(p)}  {p.name}\n" for p in written)
            yield f"save_embeddings/{merge}", hashlib.sha256(lines.encode()).hexdigest()


def file_digest(path: Path) -> str:
    """sha256 of a file; of a run manifest without the fields a rerun changes."""
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        m = json.loads(data)
        del m["duration_seconds"], m["env"]
        m.get("dataset", {}).pop("path", None)
        data = json.dumps(m, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def cli_lines(n: int, epochs: int):
    """Each subcommand in-process, on one synth graph, into a directory of its own."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, emb = tmp / "synth", tmp / "embed" / "embeddings"
        model = ("--dim-ego", 8, "--dim-agg", 8, "--hidden-dim", 16, "--epochs", epochs,
                 "--walk-lengths", "2,4", "--seed", 3)
        runs = {
            "synth": ("synth", "--n", n, "--c", 3, "--h", 0.6, "--feature-dim", 8,
                      "--seed", 1, "--out", data),
            "stats": ("stats", data, "--local-csv", tmp / "stats" / "local.csv",
                      "--out", tmp / "stats" / "report.json"),
            "embed": ("embed", data, *model, "--format", "both", "--out", tmp / "embed"),
            "eval-node": ("eval-node", data, "--embeddings", f"{emb}.bin", "--repeats", 3,
                          "--seed", 6, "--out", tmp / "eval-node"),
            "eval-link": ("eval-link", data, *model, "--repeats", 2,
                          "--out", tmp / "eval-link"),
            "eval-pair": ("eval-pair", data, *model, "--embeddings", f"{emb}.csv",
                          "--repeats", 2, "--out", tmp / "eval-pair"),
            "gridsearch": ("gridsearch", data, *model, "--grid-step", 0.5,
                           "--out", tmp / "gridsearch"),
            "diag": ("diag", "--embeddings", f"{emb}.bin", "--out", tmp / "diag" / "sigma.csv"),
            # every optional setting flag left out, so its spec default applies
            "synth-defaults": ("synth", "--n", n, "--c", 3, "--h", 0.6, "--seed", 1,
                               "--out", tmp / "synth-defaults"),
            "eval-node-defaults": ("eval-node", data, "--embeddings", f"{emb}.bin",
                                   "--out", tmp / "eval-node-defaults"),
            "eval-pair-defaults": ("eval-pair", data, *model, "--embeddings", f"{emb}.csv",
                                   "--out", tmp / "eval-pair-defaults"),
        }
        for command, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = mvge_main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"mvge {command} exited with {code}")
            out = tmp / command
            files = sorted(p for p in out.iterdir() if p.is_file())
            lines = "".join(f"{file_digest(p)}  {p.name}\n" for p in files)
            yield f"cli/{command}", hashlib.sha256(lines.encode()).hexdigest()


def outcome(make) -> str:
    """How one call ends: "ok", or its exception's type and message."""
    try:
        make()
    except Exception as exc:  # a changed exception type is part of the output too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def bad_fields(make, cases) -> list:
    """The outcome of ``make(**{name: value})`` for each (name, value)."""
    return [outcome(lambda: make(**{name: value})) for name, value in cases]


def kinds(names, *values):
    """(name, value) for every name and value."""
    return [(name, v) for name in names for v in values]


def errors_lines():
    """One line per group of bad inputs; each input has one bad value."""
    not_ints = (2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None, [3])
    not_reals = (True, "0.5", None, [0.5])
    synth = dict(num_nodes=20, num_classes=2, target_homophily=0.5, avg_degree=4.0)
    groups = {
        "MVGEConfig": bad_fields(MVGEConfig, [
            *kinds(("dim_ego", "dim_agg", "hidden_dim", "epochs", "seed"), *not_ints),
            *kinds(("dim_ego", "dim_agg", "hidden_dim"), -1, 0),
            ("epochs", -1), ("seed", -1), ("seed", 2**64),
            *kinds(("alpha", "beta", "lr", "sample_ratio"), *not_reals, float("nan")),
            *kinds(("alpha", "beta"), -0.1, 1.5), ("alpha", 1e-300),
            *kinds(("lr", "sample_ratio"), 0.0, float("inf")),
            *kinds(("merge_fn", "ego_encoder", "adj_loss_mode", "aggr"), "bogus", None, ["concat"]),
            *kinds(("walk_lengths",), 5, (3.7,), ("3",), (True,), (), (0,), (3, 3)),
            ("task_mask", {"ego", "adjacency"}), ("task_mask", frozenset()),
        ]) + [outcome(lambda: MVGEConfig(merge_fn="sum", dim_ego=4, dim_agg=8))],
        "WalkConfig": bad_fields(WalkConfig, [
            *kinds(("lengths",), *((v,) for v in not_ints), (), (0,), (-2, 3), (3, 3)),
            *kinds(("aggr",), "max", None), *kinds(("seed",), *not_ints, -1, 2**64),
        ]),
        "SplitSpec": [outcome(lambda: SplitSpec(task)) for task in ("nodes", None, "")]
        + bad_fields(lambda **kw: SplitSpec("node", **kw), [
            *kinds(("repeats", "seed"), *not_ints), ("repeats", 0), ("seed", -1),
            *kinds(("train_fraction",), True, "0.5", [0.5], 0.0, 1.0, float("nan")),
        ]),
        "SynthSpec": bad_fields(lambda **kw: SynthSpec(**{**synth, **kw}), [
            *kinds(("num_nodes", "num_classes", "feature_dim", "seed"), *not_ints),
            ("num_nodes", 1), ("num_classes", 0), ("feature_dim", 0), ("feature_dim", -3),
            ("seed", -1), *kinds(("target_homophily",), -0.1, 1.5, *not_reals),
            *kinds(("avg_degree", "noise_sigma"), -1.0, float("nan"), float("inf"), *not_reals),
            *kinds(("class_separation",), float("nan"), *not_reals), ("avg_degree", 40.0),
        ]),
        # specs SynthSpec accepts whose edge budget exceeds its pool of pairs
        "generate_synthetic": [outcome(lambda: generate_synthetic(SynthSpec(**kw))) for kw in (
            dict(num_nodes=10, num_classes=5, target_homophily=1.0, avg_degree=4.0),
            dict(num_nodes=4, num_classes=2, target_homophily=0.0, avg_degree=2.5))],
    }
    ds = dataset(12, seed=1)  # 12 nodes, 8 features, 3 classes
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset(ds, tmp)
        meta = json.loads((tmp / "meta.json").read_text())

        def load(**values):
            (tmp / "meta.json").write_text(json.dumps({**meta, **values}))
            return load_dataset(tmp)
        groups["meta.json"] = [
            r.replace(str(tmp), "<dir>") for r in bad_fields(load, [
                *((key, bad) for key, v in (("num_nodes", 12), ("num_features", 8),
                                            ("num_classes", 3))
                  for bad in (v + 0.5, float(v), True, str(v), None, [v], {"n": v})),
                ("num_nodes", 11), ("num_nodes", 13), ("num_nodes", -1),
                ("num_features", 7), ("num_classes", 1)])]
        (tmp / "meta.json").write_text(json.dumps(meta))
        files = {p.name: p.read_text() for p in tmp.iterdir()}

        def edit(name, change):
            for other, text in files.items():
                (tmp / other).write_text(text)
            (tmp / name).write_text(change(files[name]))
            return load_dataset(tmp)

        def line(i, text):  # text in place of line i
            def change(old):
                lines = old.split("\n")
                lines[i] = text
                return "\n".join(lines)
            return change

        def meta_with(**values):  # a key given None is left out
            return lambda old: json.dumps({k: v for k, v in {**json.loads(old), **values}.items()
                                           if v is not None})
        huge = str(10**20)
        cases = [*(("edges.tsv", lambda old, bad=bad: old + bad + "\n")
                   for bad in (f"0\t{huge}", "0\t1\t2", "0\tx")),
                 ("labels.txt", line(0, "x")), ("labels.txt", line(0, huge)),
                 ("features.csv", line(2, "1.0,2.0")), ("meta.json", meta_with(name=None)),
                 ("meta.json", meta_with(num_nodes=2**62)),
                 ("meta.json", meta_with(num_nodes=10**20))]
        groups["files"] = [outcome(lambda: edit(name, change)).replace(str(tmp), "<dir>")
                           for name, change in cases]
        emb = EmbeddingSet(h_ego=ds.features, h_agg=ds.features, h=ds.features)
        save_embeddings(emb, tmp / "u", fmt="csv")

        def not_utf8(name, load):  # a 0xff byte at the start of line 2, or of line 1
            for other, text in files.items():
                (tmp / other).write_text(text)
            raw = (tmp / name).read_bytes()
            cut = raw.find(b"\n") + 1
            (tmp / name).write_bytes(raw[:cut] + b"\xff" + raw[cut:])
            return load()
        groups["not-utf8"] = [
            outcome(lambda: not_utf8(name, load)).replace(str(tmp), "<dir>")
            for name, load in [*((name, lambda: load_dataset(tmp)) for name in DATASET_FILES),
                               ("u.ego.csv", lambda: load_embeddings(tmp / "u", fmt="csv"))]]
        groups["save_embeddings"] = bad_fields(
            lambda fmt: save_embeddings(emb, tmp / "e", fmt=fmt),
            kinds(("fmt",), "xml", "BINARY", "", None))
        groups["load_embeddings"] = [r.replace(str(tmp), "<dir>") for r in bad_fields(
            lambda fmt: load_embeddings(tmp / "e", fmt=fmt),
            kinds(("fmt",), "xml", "both", "BINARY", "", None))]
    ds, node, pair = dataset(40, seed=1), SplitSpec("node", repeats=1), SplitSpec("pair", repeats=1)
    groups["embeddings"] = []
    for value in (np.nan, np.inf, -np.inf):
        h = ds.features.copy()
        h[3, 1] = value
        groups["embeddings"] += [outcome(lambda: node_classification_eval(h, ds.labels, node)),
                                 outcome(lambda: pairwise_eval(ds, MVGEConfig(), pair, h=h))]
    for group, results in groups.items():
        yield f"errors/{group}", hashlib.sha256("\n".join(results).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="small graphs and few epochs, for a smoke run")
    args = ap.parse_args()
    n, epochs, synth_sizes = (40, 2, (12, 30)) if args.tiny else (1000, 5, (12, 30, 120))
    print(f"adjacency workers: {adjacency_workers()}", file=sys.stderr)
    print(f"mvge: {Path(mvge.__file__).parent}", file=sys.stderr)
    lines = itertools.chain(training_lines(n, epochs),
                            [model_init_line(), graph_line(n), synth_line(synth_sizes)],
                            sampler_lines(n), probe_lines(n), report_lines(n, epochs),
                            save_embeddings_lines(n, epochs), cli_lines(n, epochs),
                            errors_lines())
    for name, sha in lines:
        print(f"{sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
