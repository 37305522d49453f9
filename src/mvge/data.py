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

import hashlib
import itertools
import json
import logging
import os
import struct
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mvge.graph import EdgeRepairs, Graph, ValidationError, is_integer

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


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks in order to a temporary file that then replaces ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    _atomic_write(Path(path), [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line with a newline after it; no lines make an empty file.
    The lines are encoded and written one at a time, never joined."""
    _atomic_write(Path(path), (f"{line}\n".encode() for line in lines))


def write_csv(path: str | Path, header: str, rows: Iterable) -> None:
    """Write ``header``, then each row as its values' str joined by commas,
    one line at a time."""
    write_lines(path, itertools.chain([header], (",".join(map(str, row)) for row in rows)))


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
    if not is_integer(meta[key]):
        raise ValidationError(f"{path}: {key} must be an integer, got {meta[key]!r}")
    return meta[key]


def _parse_int(token: str, where: str, what: str = "node id") -> int:
    try:
        v = int(token)
    except ValueError:
        raise ValidationError(f"non-integer {what} {token!r} in {where}") from None
    if not -2**63 <= v < 2**63:
        raise ValidationError(f"{what} {token} out of the int64 range in {where}")
    return v


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
            raise ValidationError(f"{meta_path}: missing key {key!r}")
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

    num_features = _meta_int(meta, "num_features", meta_path)
    try:
        # a dataset of no nodes saves an empty file, which holds no column count
        features = (np.loadtxt(feat_path, delimiter=",", dtype=np.float64, ndmin=2)
                    if feat_path.stat().st_size else np.empty((0, num_features)))
    except ValueError as exc:
        raise ValidationError(f"{feat_path}: {exc}") from None
    if features.shape[1] != num_features:
        raise ValidationError(
            f"{feat_path}: feature column count {features.shape[1]} != "
            f"meta num_features {meta['num_features']}"
        )

    labels = None
    num_classes = None
    if labels_path.is_file():
        if meta.get("num_classes") is None:
            raise ValidationError(f"{labels_path} present but {meta_path} lacks num_classes")
        num_classes = _meta_int(meta, "num_classes", meta_path)
        labels = np.array([_parse_int(t, f"{labels_path}:{i}", "label")
                           for i, line in enumerate(labels_path.read_text().splitlines(), 1)
                           for t in line.split()], dtype=np.int64)

    try:  # these errors come from the dataset as a whole, so they name its directory
        if n > features.shape[0]:  # before from_edges allocates O(n)
            raise ValidationError(f"feature row count {features.shape[0]} != node count {n}")
        graph, repairs = Graph.from_edges(n, edges)
        ds = Dataset(graph, features, labels, num_classes, name=str(meta["name"]))
        ds.validate()
    except ValidationError as exc:
        raise ValidationError(f"{directory}: {exc}") from None
    if repairs != EdgeRepairs():
        log.info(
            "%s: dropped %d self-loops, %d duplicate edges",
            directory.name, repairs.self_loops_dropped, repairs.duplicates_dropped,
        )
    return ds


def save_dataset(ds: Dataset, directory: str | Path, extra_meta: dict | None = None) -> list[Path]:
    """Write a dataset directory, byte-deterministic; returns the written paths."""
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
    return [directory / name for name in DATASET_FILES
            if name != "labels.txt" or ds.labels is not None]


def dataset_checksum(directory: str | Path) -> str:
    """sha256 over the ``DATASET_FILES`` present in ``directory``, in that order:
    each file's name, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        path = Path(directory) / name
        if path.is_file():
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def save_matrix_binary(m: np.ndarray, path: str | Path) -> None:
    """Write one matrix in the 16-byte-header float32 binary format."""
    m = np.ascontiguousarray(m, dtype=np.float32)
    header = MAGIC + struct.pack("<III", BINARY_VERSION, m.shape[0], m.shape[1])
    _atomic_write(Path(path), [header, m.tobytes()])


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


def _csv_rows(m: np.ndarray) -> list[str]:
    """Each row of a float64 matrix as comma-separated values, 9 significant digits."""
    row_fmt = ",".join(["%.9g"] * m.shape[1])
    return [row_fmt % tuple(row.tolist()) for row in m]


def save_matrix_csv(m: np.ndarray, path: str | Path, rows: Iterable[str] | None = None) -> None:
    """Write one matrix as CSV with a "node,e0,..." header, 9 significant
    digits; ``rows`` are its rows as ``_csv_rows`` formats them, if at hand."""
    if rows is None:
        rows = _csv_rows(np.asarray(m, dtype=np.float64))
    write_csv(path, "node," + ",".join(f"e{j}" for j in range(np.shape(m)[1])), enumerate(rows))


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


def _is_concat(h: np.ndarray, h_ego: np.ndarray, h_agg: np.ndarray) -> bool:
    """Whether h is the two views side by side, bit for bit (so -0.0 is not
    0.0), each at least one column wide."""
    de = h_ego.shape[1]
    return (de > 0 and h_agg.shape[1] > 0 and h.shape == (h_ego.shape[0], de + h_agg.shape[1])
            and h_ego.shape[0] == h_agg.shape[0]
            and np.array_equal(h[:, :de].view(np.uint64), h_ego.view(np.uint64))
            and np.array_equal(h[:, de:].view(np.uint64), h_agg.view(np.uint64)))


def save_embeddings(e: EmbeddingSet, base: str | Path, fmt: str = "binary") -> list[Path]:
    """Save all three matrices of an embedding set.

    ``base`` is a path stem; the merged matrix goes to ``{base}.bin`` (or
    ``.csv``) and the per-view matrices to ``{base}.ego.bin`` and
    ``{base}.agg.bin``. ``fmt`` is "binary", "csv", or "both". Returns the
    written paths. When the merged matrix is the two views side by side,
    its CSV rows are the views' rows joined by a comma, formatted once.
    """
    if fmt not in ("binary", "csv", "both"):
        raise ValidationError(f"unknown embedding format {fmt!r}")
    views = {"merged": e.h, "ego": e.h_ego, "agg": e.h_agg}
    rows = {}
    if fmt != "binary":
        h, ego, agg = (np.asarray(m, dtype=np.float64) for m in views.values())
        rows = {"ego": _csv_rows(ego), "agg": _csv_rows(agg)}
        rows["merged"] = (map(",".join, zip(rows["ego"], rows["agg"]))
                          if _is_concat(h, ego, agg) else _csv_rows(h))
    written = []
    for view, m in views.items():
        if fmt in ("binary", "both"):
            written.append(embedding_path(base, view, "binary"))
            save_matrix_binary(m, written[-1])
        if fmt in ("csv", "both"):
            written.append(embedding_path(base, view, "csv"))
            save_matrix_csv(m, written[-1], rows[view])
    return written


def load_embeddings(base: str | Path, fmt: str = "binary") -> EmbeddingSet:
    """Load an embedding set written by save_embeddings."""
    if fmt not in _FORMAT_SUFFIX:
        raise ValidationError(f"unknown embedding format {fmt!r}, expected binary or csv")
    mats = {}
    for view in ("merged", "ego", "agg"):
        p = embedding_path(base, view, fmt)
        if not p.is_file():
            raise ValidationError(f"missing embedding file: {p}")
        mats[view] = load_matrix(p)
    return EmbeddingSet(h_ego=mats["ego"], h_agg=mats["agg"], h=mats["merged"])
