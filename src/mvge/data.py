"""Dataset and embedding persistence.

Dataset directory layout:
    edges.tsv      two tab-separated decimal node ids per line, '#' comments
    features.csv   N rows of F comma-separated reals, no header
    labels.txt     one decimal class id per line (optional)
    meta.json      keys: name, num_nodes, num_features, num_classes

Embedding binary format (one matrix per file): 16-byte header of magic
"MVGE", version u32, N u32, dim u32 (all little-endian), followed by
N*dim float32 values row-major. The CSV variant has a
"node,e0,...,e{dim-1}" header and one row per node.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvge.graph import EdgeRepairs, Graph, ValidationError

log = logging.getLogger(__name__)

MAGIC = b"MVGE"
BINARY_VERSION = 1

# the files of a dataset directory, in the order its checksum reads them
DATASET_FILES = ("meta.json", "edges.tsv", "features.csv", "labels.txt")


@dataclass(frozen=True)
class Dataset:
    """A graph with dense node features and optional integer labels."""

    graph: Graph
    features: np.ndarray
    labels: np.ndarray | None
    num_classes: int | None
    name: str = ""

    def __post_init__(self):
        self.features.setflags(write=False)
        if self.labels is not None:
            self.labels.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        self.graph.validate()
        if self.features.shape[0] != self.graph.num_nodes:
            raise ValidationError(
                f"feature row count {self.features.shape[0]} != "
                f"node count {self.graph.num_nodes}"
            )
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite values")
        if self.labels is not None:
            if self.num_classes is None or self.num_classes < 1:
                raise ValidationError("labeled dataset needs num_classes >= 1")
            if len(self.labels) != self.graph.num_nodes:
                raise ValidationError("label count != node count")
            if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
                raise ValidationError("label out of range [0, num_classes)")


@dataclass(frozen=True)
class EmbeddingSet:
    """Per-node ego, agg, and merged embeddings from one training run."""

    h_ego: np.ndarray
    h_agg: np.ndarray
    h: np.ndarray


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    _atomic_write(Path(path), (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write each line with a newline after it; no lines make an empty file."""
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode() if lines else b"")


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold an object; ValidationError otherwise."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return raw


def _meta_int(meta: dict, key: str, path: Path) -> int:
    try:
        return int(meta[key])
    except (TypeError, ValueError):
        raise ValidationError(f"{path}: {key} must be an integer, got {meta[key]!r}") from None


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"non-integer node id {token!r} in {where}") from None


def load_dataset(directory: str | Path) -> Dataset:
    """Load and validate a dataset directory.

    The edge list is symmetrized with self-loops and duplicates dropped;
    the repair counts are logged. Node ids must already be contiguous
    0..N-1 (the loader fails rather than remapping silently).
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    edges_path = directory / "edges.tsv"
    feat_path = directory / "features.csv"
    labels_path = directory / "labels.txt"
    for p in (meta_path, edges_path, feat_path):
        if not p.is_file():
            raise ValidationError(f"missing file: {p}")
    meta = read_json_object(meta_path, "dataset metadata")
    for key in ("name", "num_nodes", "num_features"):
        if key not in meta:
            raise ValidationError(f"meta.json missing key {key!r}")
    n = _meta_int(meta, "num_nodes", meta_path)

    raw = []
    with edges_path.open() as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(
                    f"{edges_path}:{lineno}: expected two tab-separated ids"
                )
            raw.append(
                (_parse_int(parts[0], f"{edges_path}:{lineno}"),
                 _parse_int(parts[1], f"{edges_path}:{lineno}"))
            )
    edges = np.array(raw, dtype=np.int64).reshape(-1, 2)
    graph, repairs = Graph.from_edges(n, edges)
    if repairs != EdgeRepairs():
        log.info(
            "%s: dropped %d self-loops, %d duplicate edges",
            directory.name, repairs.self_loops_dropped, repairs.duplicates_dropped,
        )

    try:
        features = np.loadtxt(feat_path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"{feat_path}: {exc}") from None
    if features.shape[0] != n:
        raise ValidationError(
            f"feature row count {features.shape[0]} != node count {n}"
        )
    if features.shape[1] != _meta_int(meta, "num_features", meta_path):
        raise ValidationError(
            f"feature column count {features.shape[1]} != "
            f"meta num_features {meta['num_features']}"
        )

    labels = None
    num_classes = None
    if labels_path.is_file():
        if meta.get("num_classes") is None:
            raise ValidationError("labels.txt present but meta.json lacks num_classes")
        num_classes = _meta_int(meta, "num_classes", meta_path)
        labels = np.array(
            [_parse_int(t, str(labels_path)) for t in labels_path.read_text().split()],
            dtype=np.int64,
        )

    ds = Dataset(graph, features, labels, num_classes, name=str(meta["name"]))
    ds.validate()
    return ds


def save_dataset(ds: Dataset, directory: str | Path, extra_meta: dict | None = None) -> None:
    """Write a dataset directory; output is byte-deterministic."""
    directory = Path(directory)
    write_lines(directory / "edges.tsv", [f"{u}\t{v}" for u, v in ds.graph.edge_array().tolist()])
    # repr() round-trips float64 exactly, keeping save -> load a fixed point
    rows = [",".join(map(repr, row.tolist())) for row in ds.features]
    write_lines(directory / "features.csv", rows)
    if ds.labels is not None:
        write_lines(directory / "labels.txt", list(map(str, ds.labels.tolist())))
    meta = {
        "name": ds.name,
        "num_nodes": ds.num_nodes,
        "num_features": ds.num_features,
        "num_classes": ds.num_classes,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(directory / "meta.json", meta)


def save_matrix_binary(m: np.ndarray, path: str | Path) -> None:
    """Write one matrix in the 16-byte-header float32 binary format."""
    m = np.ascontiguousarray(m, dtype=np.float32)
    header = MAGIC + struct.pack("<III", BINARY_VERSION, m.shape[0], m.shape[1])
    _atomic_write(Path(path), header + m.tobytes())


def load_matrix_binary(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != MAGIC:
        raise ValidationError(f"malformed embedding header in {path}")
    version, n, dim = struct.unpack("<III", data[4:16])
    if version != BINARY_VERSION:
        raise ValidationError(f"unsupported embedding format version {version}")
    expected = 16 + 4 * n * dim
    if len(data) != expected:
        raise ValidationError(
            f"{path}: file size {len(data)} != expected {expected} for {n}x{dim}"
        )
    return np.frombuffer(data[16:], dtype="<f4").reshape(n, dim).astype(np.float64)


def save_matrix_csv(m: np.ndarray, path: str | Path) -> None:
    """Write one matrix as CSV with a "node,e0,..." header, 9 significant digits."""
    m = np.asarray(m, dtype=np.float64)
    row_fmt = ",".join(["%.9g"] * m.shape[1])
    lines = ["node," + ",".join(f"e{j}" for j in range(m.shape[1]))]
    lines.extend(f"{i},{row_fmt % tuple(row.tolist())}" for i, row in enumerate(m))
    write_lines(path, lines)


def load_matrix_csv(path: str | Path) -> np.ndarray:
    with Path(path).open() as f:
        header = f.readline().strip().split(",")
        if not header or header[0] != "node":
            raise ValidationError(f"malformed embedding CSV header in {path}")
        dim = len(header) - 1
        rows = []
        for line in f:
            parts = line.strip().split(",")
            if len(parts) != dim + 1:
                raise ValidationError(f"{path}: row width {len(parts) - 1} != header dim {dim}")
            try:
                rows.append([float(x) for x in parts[1:]])
            except ValueError:
                raise ValidationError(f"{path}: non-numeric value in row {len(rows) + 1}") from None
    return np.array(rows, dtype=np.float64).reshape(-1, dim)


def load_matrix(path: str | Path) -> np.ndarray:
    """One matrix from a ``.csv`` file, or from any other in the binary format."""
    return load_matrix_csv(path) if Path(path).suffix == ".csv" else load_matrix_binary(path)


_VIEW_SUFFIX = {"ego": ".ego", "agg": ".agg", "merged": ""}
_FORMAT_SUFFIX = {"binary": ".bin", "csv": ".csv"}


def embedding_path(base: str | Path, view: str, fmt: str) -> Path:
    """Where ``save_embeddings`` puts one view ("merged", "ego" or "agg") in
    one format ("binary" or "csv"): ``{base}.bin``, ``{base}.ego.csv``, ..."""
    base = Path(base)
    return base.with_name(base.name + _VIEW_SUFFIX[view] + _FORMAT_SUFFIX[fmt])


def save_embeddings(e: EmbeddingSet, base: str | Path, fmt: str = "binary") -> list[Path]:
    """Save all three matrices of an embedding set.

    ``base`` is a path stem; the merged matrix goes to ``{base}.bin`` (or
    ``.csv``) and the per-view matrices to ``{base}.ego.bin`` and
    ``{base}.agg.bin``. ``fmt`` is "binary", "csv", or "both". Returns the
    written paths.
    """
    if fmt not in ("binary", "csv", "both"):
        raise ValueError(f"unknown embedding format {fmt!r}")
    written = []
    for view, m in (("merged", e.h), ("ego", e.h_ego), ("agg", e.h_agg)):
        for f, save in (("binary", save_matrix_binary), ("csv", save_matrix_csv)):
            if fmt in (f, "both"):
                written.append(embedding_path(base, view, f))
                save(m, written[-1])
    return written


def load_embeddings(base: str | Path, fmt: str = "binary") -> EmbeddingSet:
    """Load an embedding set written by save_embeddings."""
    mats = {}
    for view in ("merged", "ego", "agg"):
        p = embedding_path(base, view, fmt)
        if not p.is_file():
            raise ValidationError(f"missing embedding file: {p}")
        mats[view] = load_matrix(p)
    return EmbeddingSet(h_ego=mats["ego"], h_agg=mats["agg"], h=mats["merged"])
