#!/usr/bin/env python3
"""Run the three downstream evaluations on converted benchmark datasets.

For each dataset directory this trains the default configuration once,
probes the merged embedding for node classification and for same-class
pairs, and runs the link protocol (which trains on each split graph).
Results print as mean +/- std over 10 repeats.

Datasets must already be converted to the repo layout by
scripts/convert.py, from a LINQS or a WebKB release. Large graphs
(pubmed, cora_full) work but take a while at 200 epochs.

Usage:
    python3 scripts/benchmark_real.py data/cora data/wisconsin
    python3 scripts/benchmark_real.py            # every directory under data/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvge.data import load_dataset
from mvge.evaluate import (
    SplitSpec,
    link_prediction_eval,
    node_classification_eval,
    pairwise_eval,
)
from mvge.model import MVGEConfig, train


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("datasets", nargs="*", help="dataset directories")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args()

    dirs = [Path(d) for d in args.datasets]
    if not dirs:
        root = Path(__file__).resolve().parents[1] / "data"
        dirs = sorted(p for p in root.iterdir() if (p / "meta.json").is_file()) \
            if root.is_dir() else []
    if not dirs:
        print("no datasets found; convert some into data/ first", file=sys.stderr)
        return 2

    cfg_base = MVGEConfig(seed=args.seed, epochs=args.epochs)
    print(f"{'dataset':<12} {'task':<6} {'metric':<9} {'mean':>8} {'std':>8} {'seconds':>8}")
    for d in dirs:
        ds = load_dataset(d)
        t0 = time.perf_counter()
        _, emb, _ = train(ds, cfg_base)
        node = node_classification_eval(
            emb.h, ds.labels,
            SplitSpec("node", repeats=args.repeats, seed=args.seed))
        print(f"{ds.name:<12} {'node':<6} {node.metric:<9} "
              f"{node.mean:8.4f} {node.std:8.4f} {time.perf_counter() - t0:8.1f}")

        t0 = time.perf_counter()
        link = link_prediction_eval(
            ds, cfg_base, SplitSpec("link", repeats=args.repeats, seed=args.seed))
        print(f"{ds.name:<12} {'link':<6} {link.metric:<9} "
              f"{link.mean:8.4f} {link.std:8.4f} {time.perf_counter() - t0:8.1f}")

        t0 = time.perf_counter()
        pair = pairwise_eval(
            ds, cfg_base, SplitSpec("pair", repeats=args.repeats, seed=args.seed), h=emb.h)
        print(f"{ds.name:<12} {'pair':<6} {pair.metric:<9} "
              f"{pair.mean:8.4f} {pair.std:8.4f} {time.perf_counter() - t0:8.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
