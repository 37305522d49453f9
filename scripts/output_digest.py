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
      (all tasks, or ego or agg dropped);
  synth             graphs and features over a grid of specs, including specs
      whose edge budget takes the dense fallback;
  sample_non_edges, sample_label_pairs  both evaluate samplers, on their
      rejection and their dense paths;
  report/node, report/link, report/pair  the protocol scores;
  cli/<command>     every file that synth, stats, embed, eval-node, eval-pair,
      gridsearch and diag write when run through ``mvge.cli.main`` on one small
      graph, with each run manifest's duration, env block and dataset path left
      out.

The worker count goes to stderr, so it does not enter the diff. The default
trains on 1000 nodes (multi-strip full mode, several sampled row chunks) and
takes about 5 s on a 2-vCPU VM; --tiny uses 40 nodes and takes about 1 s.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvge.cli import main as mvge_main
from mvge.evaluate import (SplitSpec, _sample_label_pairs, _sample_non_edges,
                           link_prediction_eval, node_classification_eval, pairwise_eval)
from mvge.graph import ValidationError
from mvge.model import EGO_ENCODERS, MERGE_FNS, MVGEConfig, adjacency_workers, train
from mvge.synth import SynthSpec, generate_synthetic

MASKS = {"all": ("ego", "agg", "adj"), "no-ego": ("agg", "adj"), "no-agg": ("ego", "adj")}


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
    counts = np.bincount(labels)
    same_pool = int((counts * (counts - 1) // 2).sum())
    pairs = [_sample_label_pairs(labels, count, same, np.random.default_rng(count))
             for same, pool in ((True, same_pool), (False, n * (n - 1) // 2 - same_pool))
             for count in (1, pool // 8, pool // 2, pool)]
    yield "sample_label_pairs", digest(*pairs)


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
            "eval-pair": ("eval-pair", data, *model, "--embeddings", f"{emb}.csv",
                          "--repeats", 2, "--out", tmp / "eval-pair"),
            "gridsearch": ("gridsearch", data, *model, "--grid-step", 0.5,
                           "--out", tmp / "gridsearch"),
            "diag": ("diag", "--embeddings", f"{emb}.bin", "--out", tmp / "diag" / "sigma.csv"),
        }
        for command, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = mvge_main([str(a) for a in argv])
            if code != 0:
                raise SystemExit(f"mvge {command} exited with {code}")
            out = data if command == "synth" else tmp / command
            files = sorted(p for p in out.iterdir() if p.is_file())
            lines = "".join(f"{file_digest(p)}  {p.name}\n" for p in files)
            yield f"cli/{command}", hashlib.sha256(lines.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="small graphs and few epochs, for a smoke run")
    args = ap.parse_args()
    n, epochs, synth_sizes = (40, 2, (12, 30)) if args.tiny else (1000, 5, (12, 30, 120))
    print(f"adjacency workers: {adjacency_workers()}", file=sys.stderr)
    lines = itertools.chain(training_lines(n, epochs), [synth_line(synth_sizes)],
                            sampler_lines(n), report_lines(n, epochs), cli_lines(n, epochs))
    for name, sha in lines:
        print(f"{sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
