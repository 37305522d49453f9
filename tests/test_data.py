"""Dataset directory format and embedding matrix persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from mvge.data import (
    BINARY_VERSION,
    MAGIC,
    Dataset,
    EmbeddingSet,
    load_dataset,
    load_embeddings,
    load_matrix_binary,
    load_matrix_csv,
    save_dataset,
    save_embeddings,
    save_matrix_binary,
    save_matrix_csv,
)
from mvge.graph import Graph, ValidationError

from conftest import feature_matrices, make_dataset


def small_ds(labels=True):
    g, _ = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    x = np.arange(12, dtype=np.float64).reshape(4, 3) / 7.0
    y = [0, 1, 1, 0] if labels else None
    return make_dataset(g, x, y, num_classes=2 if labels else None, name="tiny")


def test_dataset_roundtrip(tmp_path):
    ds = small_ds()
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.name == "tiny"
    assert back.num_nodes == 4
    assert np.array_equal(back.graph.edge_array(), ds.graph.edge_array())
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert back.num_classes == 2


def test_unlabeled_roundtrip(tmp_path):
    ds = small_ds(labels=False)
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.labels is None
    assert back.num_classes is None


def test_save_load_is_fixed_point(tmp_path):
    """A second save of a loaded dataset writes identical bytes."""
    ds = small_ds()
    save_dataset(ds, tmp_path / "a")
    back = load_dataset(tmp_path / "a")
    save_dataset(back, tmp_path / "b")
    for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_loader_symmetrizes_dirty_edges(tmp_path):
    ds = small_ds()
    save_dataset(ds, tmp_path / "d")
    # rewrite the edge file with duplicates, a reversal, and a self-loop
    (tmp_path / "d" / "edges.tsv").write_text("0\t1\n1\t0\n0\t1\n2\t2\n1\t2\n")
    back = load_dataset(tmp_path / "d")
    assert back.graph.edge_array().tolist() == [[0, 1], [1, 2]]


def test_loader_rejects_non_integer_id(tmp_path):
    save_dataset(small_ds(), tmp_path / "d")
    (tmp_path / "d" / "edges.tsv").write_text("0\tx\n")
    with pytest.raises(ValidationError, match="non-integer"):
        load_dataset(tmp_path / "d")


def test_loader_rejects_missing_file(tmp_path):
    save_dataset(small_ds(), tmp_path / "d")
    (tmp_path / "d" / "features.csv").unlink()
    with pytest.raises(ValidationError, match="missing file"):
        load_dataset(tmp_path / "d")


def test_loader_rejects_feature_row_mismatch(tmp_path):
    save_dataset(small_ds(), tmp_path / "d")
    lines = (tmp_path / "d" / "features.csv").read_text().splitlines()
    (tmp_path / "d" / "features.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="row count"):
        load_dataset(tmp_path / "d")


def test_loader_rejects_out_of_range_label(tmp_path):
    save_dataset(small_ds(), tmp_path / "d")
    (tmp_path / "d" / "labels.txt").write_text("0\n1\n5\n0\n")
    with pytest.raises(ValidationError, match="label"):
        load_dataset(tmp_path / "d")


def test_edge_comments_and_blank_lines_skipped(tmp_path):
    save_dataset(small_ds(), tmp_path / "d")
    (tmp_path / "d" / "edges.tsv").write_text("# header\n\n0\t1\n")
    back = load_dataset(tmp_path / "d")
    assert back.graph.num_edges == 1


def test_dataset_validate_rejects_nan_features():
    g, _ = Graph.from_edges(2, [(0, 1)])
    x = np.array([[1.0, np.nan], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="non-finite"):
        Dataset(g, x, None, None).validate()


def test_binary_matrix_roundtrip(tmp_path):
    m = np.linspace(-3, 3, 32).reshape(4, 8)
    save_matrix_binary(m, tmp_path / "m.bin")
    back = load_matrix_binary(tmp_path / "m.bin")
    assert back.shape == (4, 8)
    assert back.dtype == np.float64
    assert np.array_equal(back, m.astype(np.float32).astype(np.float64))


def test_binary_file_layout(tmp_path):
    m = np.zeros((5, 7))
    save_matrix_binary(m, tmp_path / "m.bin")
    data = (tmp_path / "m.bin").read_bytes()
    assert len(data) == 16 + 4 * 5 * 7
    assert data[:4] == MAGIC
    assert int.from_bytes(data[4:8], "little") == BINARY_VERSION
    assert int.from_bytes(data[8:12], "little") == 5
    assert int.from_bytes(data[12:16], "little") == 7


def test_binary_rejects_truncated_file(tmp_path):
    m = np.ones((3, 3))
    save_matrix_binary(m, tmp_path / "m.bin")
    raw = (tmp_path / "m.bin").read_bytes()
    (tmp_path / "m.bin").write_bytes(raw[:-4])
    with pytest.raises(ValidationError, match="size"):
        load_matrix_binary(tmp_path / "m.bin")


def test_binary_rejects_bad_magic(tmp_path):
    (tmp_path / "m.bin").write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValidationError, match="header"):
        load_matrix_binary(tmp_path / "m.bin")


def test_csv_matrix_roundtrip(tmp_path):
    m = np.array([[1.25, -0.5], [3.0, 1e-7], [0.0, 12345.678]])
    save_matrix_csv(m, tmp_path / "m.csv")
    text = (tmp_path / "m.csv").read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + one row per node
    assert lines[0] == "node,e0,e1"
    assert lines[1].startswith("0,")
    back = load_matrix_csv(tmp_path / "m.csv")
    assert np.allclose(back, m, rtol=1e-8)


def test_text_writers_match_per_element_formatting(tmp_path):
    """Rows formatted whole give the bytes of one f-string or repr() per value."""
    special = [0.0, -0.0, 1e300, -1e-300, 5e-324, np.inf, -np.inf, np.nan, 1 / 3,
               -2.5e-7, 123456789.123456789, 1e16]
    m = np.array([special, special[::-1]])
    save_matrix_csv(m, tmp_path / "m.csv")
    want = ["node," + ",".join(f"e{j}" for j in range(m.shape[1]))]
    want += [f"{i}," + ",".join(f"{x:.9g}" for x in row) for i, row in enumerate(m)]
    assert (tmp_path / "m.csv").read_text() == "\n".join(want) + "\n"
    g, _ = Graph.from_edges(2, [])
    save_dataset(make_dataset(g, m, [1, 0], num_classes=2), tmp_path / "d")
    want = [",".join(repr(float(x)) for x in row) for row in m]
    assert (tmp_path / "d" / "features.csv").read_text() == "\n".join(want) + "\n"
    assert (tmp_path / "d" / "labels.txt").read_text() == "1\n0\n"
    # a graph without edges gets an empty edge list, not a blank line
    assert (tmp_path / "d" / "edges.tsv").read_bytes() == b""


def test_csv_rejects_ragged_row(tmp_path):
    save_matrix_csv(np.ones((2, 3)), tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    lines[2] = "1,1.0"
    (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="width"):
        load_matrix_csv(tmp_path / "m.csv")


def test_embedding_set_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    e = EmbeddingSet(
        h_ego=rng.normal(size=(6, 4)),
        h_agg=rng.normal(size=(6, 4)),
        h=rng.normal(size=(6, 8)),
    )
    written = save_embeddings(e, tmp_path / "emb", fmt="both")
    names = sorted(p.name for p in written)
    assert names == [
        "emb.agg.bin", "emb.agg.csv", "emb.bin",
        "emb.csv", "emb.ego.bin", "emb.ego.csv",
    ]
    back = load_embeddings(tmp_path / "emb", fmt="binary")
    assert np.allclose(back.h, e.h, atol=1e-6)
    assert np.allclose(back.h_ego, e.h_ego, atol=1e-6)
    assert np.allclose(back.h_agg, e.h_agg, atol=1e-6)


def test_load_embeddings_missing_view(tmp_path):
    e = EmbeddingSet(h_ego=np.ones((2, 2)), h_agg=np.ones((2, 2)), h=np.ones((2, 4)))
    save_embeddings(e, tmp_path / "emb", fmt="binary")
    (tmp_path / "emb.agg.bin").unlink()
    with pytest.raises(ValidationError, match="missing embedding file"):
        load_embeddings(tmp_path / "emb", fmt="binary")


def test_meta_json_is_sorted_and_versionable(tmp_path):
    save_dataset(small_ds(), tmp_path / "d", extra_meta={"generator": {"kind": "t"}})
    meta = json.loads((tmp_path / "d" / "meta.json").read_text())
    assert meta["generator"] == {"kind": "t"}
    keys = list(meta)
    assert keys == sorted(keys)


@given(feature_matrices())
@settings(max_examples=30, deadline=None)
def test_binary_roundtrip_property(m):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.bin"
        save_matrix_binary(m, p)
        back = load_matrix_binary(p)
    assert back.shape == m.shape
    assert np.array_equal(back, m.astype(np.float32).astype(np.float64))
