#!/usr/bin/env python3
"""Convert a raw LINQS or WebKB release to the repo layout.

The layout is read off the files in RAW_DIR:

    LINQS (cora, citeseer)
        RAW_DIR/<name>.content   lines: <paper_id> <tab> <0/1 features> <tab> <class>
        RAW_DIR/<name>.cites     lines: <cited_id> <tab> <citing_id>
    WebKB (cornell, texas, wisconsin), as in the geom-gcn repository's new_data/
        RAW_DIR/out1_node_feature_label.txt   header, then <id> <tab> <f,f,...> <tab> <label>
        RAW_DIR/out1_graph_edges.txt          header, then <id> <tab> <id>

Writes <out>/edges.tsv, features.csv, labels.txt, meta.json and prints the
resulting statistics, including the edge homophily checked by acceptance
criterion 1. Edges that name an id missing from the feature file (citeseer
has a handful) are dropped with a count; a repeated node id is refused.

Usage:
    python3 scripts/convert.py /path/to/cora --name cora
    python3 scripts/convert.py /path/to/new_data/wisconsin --name wisconsin
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvge.data import Dataset, save_dataset
from mvge.graph import Graph, ValidationError
from mvge.homophily import global_homophily

WEBKB_FILES = ("out1_node_feature_label.txt", "out1_graph_edges.txt")


def index_edges(ids: list, pairs: list, source: str):
    """Edges as row-index pairs and the number of pairs naming an unknown id."""
    index = {v: i for i, v in enumerate(ids)}
    if len(index) != len(ids):
        raise ValidationError(f"repeated node ids in {source}")
    edges = [(index[a], index[b]) for a, b in pairs if a in index and b in index]
    return np.array(edges, dtype=np.int64).reshape(-1, 2), len(pairs) - len(edges)


def read_linqs(raw: Path, name: str):
    """Rows in file order; classes numbered by their sorted names."""
    with open(raw / f"{name}.content") as fh:
        rows = [parts for parts in map(str.split, fh) if parts]
    classes = sorted({parts[-1] for parts in rows})
    label_of = {c: i for i, c in enumerate(classes)}
    features = [[float(x) for x in parts[1:-1]] for parts in rows]
    labels = [label_of[parts[-1]] for parts in rows]
    with open(raw / f"{name}.cites") as fh:
        pairs = [parts[:2] for parts in map(str.split, fh) if parts]
    edges, unknown = index_edges([parts[0] for parts in rows], pairs, f"{name}.content")
    return features, labels, len(classes), classes, edges, unknown


def read_webkb(raw: Path):
    """Rows sorted by their integer id; the labels are the class numbers."""
    with open(raw / WEBKB_FILES[0]) as fh:
        next(fh)  # header
        rows = sorted((parts for parts in (line.strip().split("\t") for line in fh)
                       if len(parts) == 3), key=lambda parts: int(parts[0]))
    features = [[float(x) for x in parts[1].split(",")] for parts in rows]
    labels = [int(parts[2]) for parts in rows]
    with open(raw / WEBKB_FILES[1]) as fh:
        next(fh)  # header
        pairs = [tuple(map(int, parts)) for parts in map(str.split, fh) if len(parts) == 2]
    edges, unknown = index_edges([int(parts[0]) for parts in rows], pairs, WEBKB_FILES[0])
    return features, labels, max(labels) + 1, None, edges, unknown


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("raw_dir", help="directory with <name>.content and <name>.cites (LINQS) "
                                    "or the two out1_*.txt files (WebKB)")
    ap.add_argument("--name", required=True, help="dataset name, e.g. cora")
    ap.add_argument("--out", default=None, help="output directory (default data/<name>)")
    args = ap.parse_args()

    name = args.name.lower()
    raw = Path(args.raw_dir)
    out = Path(args.out) if args.out else Path("data") / name
    linqs = all((raw / f).is_file() for f in (f"{name}.content", f"{name}.cites"))
    webkb = all((raw / f).is_file() for f in WEBKB_FILES)
    if linqs == webkb:
        ap.error(f"{raw} must hold exactly one layout: LINQS ({name}.content, {name}.cites) "
                 f"or WebKB ({', '.join(WEBKB_FILES)}); it holds {'both' if linqs else 'neither'}")

    try:
        features, labels, num_classes, classes, edges, unknown = (
            read_linqs(raw, name) if linqs else read_webkb(raw))
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
        g, repairs = Graph.from_edges(len(labels), edges)
        ds = Dataset(graph=g, features=features, labels=labels,
                     num_classes=num_classes, name=name)
        ds.validate()
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    save_dataset(ds, out, extra_meta={"classes": classes} if classes else None)

    print(f"wrote {out}")
    print(f"  nodes {g.num_nodes}  undirected edges {g.num_edges}  "
          f"features {features.shape[1]}  classes {num_classes}")
    print(f"  dropped: {unknown} edges with unknown ids, "
          f"{repairs.self_loops_dropped} self loops, "
          f"{repairs.duplicates_dropped} duplicates")
    print(f"  edge homophily {global_homophily(g, labels):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
