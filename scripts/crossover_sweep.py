#!/usr/bin/env python3
"""Sweep synthetic homophily and compare single-task against full training.

For each target homophily level this trains three models on the same
generated graph (ego-reconstruction only, walk-aggregate-reconstruction
only, and the full task set), probes each embedding with the standard
node-classification protocol, and reports the micro-F1 plus the
per-dimension spread gap between the two views of the full model. The
single-task runs widen the active branch so every probed embedding has
the same dimensionality.

Acceptance criteria 4 and 5 run it with the defaults at --h 0.1,0.9 and
judge the rows of its CSV; the full five-point sweep takes a few minutes.

Usage:
    python3 scripts/crossover_sweep.py
    python3 scripts/crossover_sweep.py --h 0.1,0.9 --csv sweep.csv
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvge.data import write_csv
from mvge.evaluate import SplitSpec, node_classification_eval
from mvge.model import MVGEConfig, embedding_dim_std, train
from mvge.synth import SynthSpec, generate_synthetic


def probe(h_matrix, labels, seed):
    spec = SplitSpec("node", repeats=10, seed=seed)
    return node_classification_eval(h_matrix, labels, spec).mean


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--h", default="0.1,0.3,0.5,0.7,0.9",
                    help="comma-separated target homophily levels")
    ap.add_argument("--n", type=int, default=1490, help="nodes per graph")
    ap.add_argument("--c", type=int, default=5, help="classes")
    ap.add_argument("--avg-degree", type=float, default=4.0)
    ap.add_argument("--feature-dim", type=int, default=32)
    ap.add_argument("--class-separation", type=float, default=1.2)
    ap.add_argument("--noise-sigma", type=float, default=1.5)
    ap.add_argument("--dim", type=int, default=128,
                    help="probed embedding width (single-task runs use all "
                         "of it, full runs split it across the views)")
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--synth-seed", type=int, default=42)
    ap.add_argument("--model-seed", type=int, default=1)
    ap.add_argument("--eval-seed", type=int, default=3)
    ap.add_argument("--csv", default=None, help="also write rows to this file")
    args = ap.parse_args()

    levels = [float(x) for x in args.h.split(",")]
    half = args.dim // 2
    rows = []
    print("     h    ego-only    agg-only        full   sigma-gap     seconds")
    for h in levels:
        t0 = time.perf_counter()
        ds = generate_synthetic(SynthSpec(
            num_nodes=args.n, num_classes=args.c, target_homophily=h,
            avg_degree=args.avg_degree, feature_dim=args.feature_dim,
            class_separation=args.class_separation,
            noise_sigma=args.noise_sigma, seed=args.synth_seed,
        ))
        scores = {}
        for mask in ("ego", "agg"):
            cfg = MVGEConfig(task_mask=frozenset({mask}), dim_ego=args.dim,
                             dim_agg=args.dim, epochs=args.epochs,
                             seed=args.model_seed)
            _, emb, _ = train(ds, cfg)
            view = emb.h_ego if mask == "ego" else emb.h_agg
            scores[mask] = probe(view, ds.labels, args.eval_seed)
        cfg = MVGEConfig(dim_ego=half, dim_agg=half, epochs=args.epochs,
                         seed=args.model_seed)
        _, emb, _ = train(ds, cfg)
        scores["full"] = probe(emb.h, ds.labels, args.eval_seed)
        sigma_gap = float(embedding_dim_std(emb.h_ego).mean()
                          - embedding_dim_std(emb.h_agg).mean())
        elapsed = time.perf_counter() - t0
        rows.append((h, scores["ego"], scores["agg"], scores["full"], sigma_gap))
        print(f"  {h:4.2f}      {scores['ego']:.4f}      {scores['agg']:.4f}"
              f"      {scores['full']:.4f}      {sigma_gap:+.4f}       {elapsed:5.1f}")

    if args.csv:
        write_csv(args.csv, "h,ego_only_f1,agg_only_f1,full_f1,sigma_gap",
                  ((h, *map(repr, rest)) for h, *rest in rows))
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
