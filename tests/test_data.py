"""Dataset directory format and embedding matrix persistence."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvge.data import (
    BINARY_VERSION,
    DATASET_FILES,
    MAGIC,
    Dataset,
    _is_concat,
    EmbeddingSet,
    embedding_path,
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
from mvge.model import MERGE_FNS, MVGEConfig, train
from mvge.synth import SynthSpec, generate_synthetic

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


@pytest.mark.parametrize("labels", [True, False])
def test_zero_node_roundtrip(tmp_path, labels):
    # a dataset of no nodes saves an empty features.csv; it loads back with the
    # meta's column count and no warning from the CSV reader
    g, _ = Graph.from_edges(0, [])
    ds = make_dataset(g, np.zeros((0, 3)), np.zeros(0) if labels else None,
                      num_classes=2 if labels else None, name="empty")
    save_dataset(ds, tmp_path / "d")
    assert (tmp_path / "d" / "features.csv").read_bytes() == b""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_dataset(tmp_path / "d")
    assert back.num_nodes == 0 and back.graph.num_edges == 0
    assert back.features.shape == (0, 3) and back.features.dtype == np.float64
    if labels:
        assert back.labels.shape == (0,) and back.num_classes == 2
    else:
        assert back.labels is None


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


def _binary_with_version(path):
    save_matrix_binary(np.ones((2, 2)), path)
    path.write_bytes(MAGIC + (BINARY_VERSION + 1).to_bytes(4, "little") + path.read_bytes()[8:])
    return load_matrix_binary(path)


def _csv_with_text(path, text):
    path.write_text(text)
    return load_matrix_csv(path)


def _dataset_with_edges(path, text):
    save_dataset(small_ds(), path)
    (path / "edges.tsv").write_text(text)
    return load_dataset(path)


def _labeled(labels, num_classes):
    ds = small_ds()
    return Dataset(ds.graph, ds.features, np.array(labels), num_classes).validate()


# one bad input each, with the message it must raise
INPUT_CHECKS = {
    "binary version": (lambda tmp: _binary_with_version(tmp / "m.bin"),
                       f"^unsupported embedding format version {BINARY_VERSION + 1}$"),
    "csv header": (lambda tmp: _csv_with_text(tmp / "m.csv", "id,e0\n0,1.0\n"),
                   "^malformed embedding CSV header in "),
    "csv empty": (lambda tmp: _csv_with_text(tmp / "m.csv", ""),
                  "^malformed embedding CSV header in "),
    "csv value": (lambda tmp: _csv_with_text(tmp / "m.csv", "node,e0,e1\n0,1.0,2.0\n1,1.0,x\n"),
                  "m.csv: non-numeric value in row 2$"),
    "label count": (lambda tmp: _labeled([0, 1, 1], 2), "^label count != node count$"),
    "no num_classes": (lambda tmp: _labeled([0, 1, 1, 0], None),
                       r"^labeled dataset needs num_classes >= 1$"),
    "zero num_classes": (lambda tmp: _labeled([0, 0, 0, 0], 0),
                         r"^labeled dataset needs num_classes >= 1$"),
    "edge separator": (lambda tmp: _dataset_with_edges(tmp / "d", "0\t1\n1 2\n"),
                       r"edges.tsv:2: expected two tab-separated ids$"),
    "edge fields": (lambda tmp: _dataset_with_edges(tmp / "d", "0\t1\t2\n"),
                    r"edges.tsv:1: expected two tab-separated ids$"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_raise(tmp_path, case):
    make, message = INPUT_CHECKS[case]
    with pytest.raises(ValidationError, match=message):
        make(tmp_path)


def _insert_at_line(path, line, raw):
    """Put ``raw`` at the start of 1-based ``line`` of the file."""
    data = path.read_bytes()
    at = 0
    for _ in range(line - 1):
        at = data.index(b"\n", at) + 1
    path.write_bytes(data[:at] + raw + data[at:])


@pytest.mark.parametrize("name", DATASET_FILES)
def test_non_utf8_dataset_file_names_file_and_line(tmp_path, name):
    # each of them once raised UnicodeDecodeError, which the CLI does not map to exit 2
    save_dataset(small_ds(), tmp_path)
    _insert_at_line(tmp_path / name, 3, b"\xff")
    with pytest.raises(ValidationError, match=rf"{name}:3: not UTF-8 text \(byte 0xff: "):
        load_dataset(tmp_path)


def test_non_utf8_embedding_csv_names_file_and_line(tmp_path):
    save_matrix_csv(np.eye(3), tmp_path / "m.csv")
    _insert_at_line(tmp_path / "m.csv", 4, b"0.5\xe2\x82")  # a cut-off 3-byte sequence
    with pytest.raises(ValidationError, match=r"m.csv:4: not UTF-8 text \(byte 0xe2: "):
        load_matrix_csv(tmp_path / "m.csv")


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """The bytes of every file that load_dataset and load_embeddings read, by
    name: a 12-node labelled dataset, and embeddings in both formats."""
    root = tmp_path_factory.mktemp("saved")
    ds = generate_synthetic(SynthSpec(num_nodes=12, num_classes=3, target_homophily=0.5,
                                      avg_degree=3.0, feature_dim=4, seed=2))
    written = save_dataset(ds, root) + save_embeddings(
        EmbeddingSet(h_ego=ds.features[:, :2], h_agg=ds.features[:, 2:], h=ds.features),
        root / "e", fmt="both")
    return {p.name: p.read_bytes() for p in written}


@given(st.data(), st.sampled_from(["set", "cut", "insert", "extreme"]),
       st.integers(min_value=0, max_value=255),
       st.sampled_from([b"1e999", b"-1", b"99999999999999999999", b"nan", b"0x1"]))
@example(data=None, kind="insert", byte=0xFF, extreme=b"")  # the edges.tsv case below
@settings(max_examples=300, deadline=None)
def test_mutated_saved_file_loads_or_raises_validation_error(saved_files, data, kind, byte,
                                                             extreme):
    # one mutation of one file: a byte overwritten, the file cut short, a byte
    # inserted, or a "1" replaced by an extreme value
    if data is None:
        name, at = "edges.tsv", 0
    else:
        name = data.draw(st.sampled_from(sorted(saved_files)), label="file")
        at = data.draw(st.integers(min_value=0, max_value=len(saved_files[name])), label="at")
    raw = saved_files[name]
    if kind == "set" and at < len(raw):
        raw = raw[:at] + bytes([byte]) + raw[at + 1:]
    elif kind == "cut":
        raw = raw[:at]
    elif kind == "insert":
        raw = raw[:at] + bytes([byte]) + raw[at:]
    elif kind == "extreme" and b"1" in raw[at:]:
        one = raw.index(b"1", at)
        raw = raw[:one] + extreme + raw[one + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for other, content in saved_files.items():
            (tmp / other).write_bytes(raw if other == name else content)
        try:
            if name in DATASET_FILES:
                load_dataset(tmp)
            else:
                load_embeddings(tmp / "e", fmt="csv" if name.endswith(".csv") else "binary")
        except ValidationError:
            pass


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


@pytest.mark.parametrize("fmt", ["xml", "both", "BINARY", "", None])
def test_load_embeddings_rejects_unknown_format(tmp_path, fmt):
    # "both" is a format save_embeddings writes but not one that load_embeddings reads
    e = EmbeddingSet(h_ego=np.ones((2, 2)), h_agg=np.ones((2, 2)), h=np.ones((2, 4)))
    save_embeddings(e, tmp_path / "emb", fmt="both")
    with pytest.raises(ValidationError,
                       match=f"^unknown embedding format {re.escape(repr(fmt))}, "
                             "expected binary or csv$"):
        load_embeddings(tmp_path / "emb", fmt=fmt)


def test_save_embeddings_rejects_unknown_format(tmp_path):
    e = EmbeddingSet(h_ego=np.ones((2, 2)), h_agg=np.ones((2, 2)), h=np.ones((2, 4)))
    with pytest.raises(ValidationError, match="^unknown embedding format 'xml'$"):
        save_embeddings(e, tmp_path / "emb", fmt="xml")
    assert not list(tmp_path.iterdir())


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


def own_bytes(m, fmt, path):
    """The bytes one matrix writes to a file of its own in one format."""
    (save_matrix_csv if fmt == "csv" else save_matrix_binary)(m, path)
    return path.read_bytes()


def assert_files_are_own_bytes(e, tmp_path):
    written = save_embeddings(e, tmp_path / "emb", fmt="both")
    assert len(written) == 6
    for view, m in (("merged", e.h), ("ego", e.h_ego), ("agg", e.h_agg)):
        for fmt in ("binary", "csv"):
            path = embedding_path(tmp_path / "emb", view, fmt)
            assert path in written
            assert path.read_bytes() == own_bytes(m, fmt, tmp_path / f"own.{view}.{fmt}"), path


@pytest.mark.parametrize("merge_fn", MERGE_FNS)
def test_save_embeddings_writes_each_matrix_own_bytes(merge_fn, tmp_path):
    """Whether or not the merged CSV reuses the view rows (it does only for
    concat), each of the six files holds the bytes of its own matrix."""
    ds = generate_synthetic(SynthSpec(num_nodes=40, num_classes=3, target_homophily=0.5,
                                      avg_degree=4.0, feature_dim=6, seed=3))
    _, e, _ = train(ds, MVGEConfig(dim_ego=4, dim_agg=4, hidden_dim=8, epochs=2,
                                   walk_lengths=(2, 3), merge_fn=merge_fn, seed=1))
    assert _is_concat(e.h, e.h_ego, e.h_agg) == (merge_fn == "concat")
    assert_files_are_own_bytes(e, tmp_path)


def test_save_embeddings_merged_csv_keeps_a_signed_zero(tmp_path):
    """h that equals the two views side by side except for one -0.0 in place
    of 0.0 is not their concatenation bit for bit, so its own bytes are written."""
    ego = np.array([[0.0, 1.5], [2.0, -3.25]])
    agg = np.array([[4.0], [0.0]])
    h = np.concatenate([ego, agg], axis=1)
    h[1, 2] = -0.0
    assert np.array_equal(h, np.concatenate([ego, agg], axis=1))
    e = EmbeddingSet(h_ego=ego, h_agg=agg, h=h)
    assert not _is_concat(h, ego, agg)
    assert_files_are_own_bytes(e, tmp_path)
    assert (tmp_path / "emb.csv").read_text().splitlines()[2] == "1,2,-3.25,-0"
