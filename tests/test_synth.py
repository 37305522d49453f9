"""Synthetic graph generator with controllable homophily."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvge.data import save_dataset
from mvge.graph import Graph, ValidationError
from mvge.homophily import global_homophily
from mvge.synth import SynthSpec, generate_synthetic


def spec_with(**kw):
    base = dict(
        num_nodes=200,
        num_classes=4,
        target_homophily=0.5,
        avg_degree=4.0,
        feature_dim=8,
        class_separation=1.0,
        noise_sigma=0.5,
        seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


def test_pure_homophily_is_exact():
    ds = generate_synthetic(spec_with(target_homophily=1.0))
    assert global_homophily(ds.graph, ds.labels) == 1.0


def test_pure_heterophily_is_exact():
    ds = generate_synthetic(spec_with(target_homophily=0.0))
    assert global_homophily(ds.graph, ds.labels) == 0.0


def test_target_homophily_at_reference_size():
    spec = spec_with(
        num_nodes=1490, num_classes=5, target_homophily=0.3, avg_degree=4.0
    )
    ds = generate_synthetic(spec)
    h = global_homophily(ds.graph, ds.labels)
    assert 0.27 <= h <= 0.33


def test_homophily_converges_at_large_n():
    spec = spec_with(num_nodes=5000, num_classes=5, target_homophily=0.6)
    ds = generate_synthetic(spec)
    h = global_homophily(ds.graph, ds.labels)
    assert abs(h - 0.6) <= 0.02


def test_edge_budget_met():
    spec = spec_with(num_nodes=300, avg_degree=6.0)
    ds = generate_synthetic(spec)
    assert ds.graph.num_edges == spec.num_edges == int(6.0 * 300 / 2)


def test_class_sizes_balanced():
    ds = generate_synthetic(spec_with(num_nodes=203, num_classes=5))
    sizes = np.bincount(ds.labels, minlength=5)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 203


def test_same_seed_identical_edges():
    a = generate_synthetic(spec_with(seed=99))
    b = generate_synthetic(spec_with(seed=99))
    assert np.array_equal(a.graph.edge_array(), b.graph.edge_array())
    assert np.array_equal(a.features, b.features)


def test_different_seed_differs():
    a = generate_synthetic(spec_with(seed=1))
    b = generate_synthetic(spec_with(seed=2))
    assert not np.array_equal(a.graph.edge_array(), b.graph.edge_array())


def test_byte_identical_dataset_files(tmp_path):
    for name in ("a", "b"):
        save_dataset(generate_synthetic(spec_with(seed=5)), tmp_path / name)
    for f in ("meta.json", "edges.tsv", "features.csv", "labels.txt"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_feature_means_separated():
    # low noise: per-class feature means should sit near s * e_{c mod F}
    spec = spec_with(
        num_nodes=500, num_classes=3, noise_sigma=0.01, class_separation=2.0
    )
    ds = generate_synthetic(spec)
    for c in range(3):
        mean = ds.features[ds.labels == c].mean(axis=0)
        expected = np.zeros(8)
        expected[c % 8] = 2.0
        assert np.allclose(mean, expected, atol=0.05)


def test_no_self_loops_or_duplicates():
    ds = generate_synthetic(spec_with(num_nodes=50, avg_degree=10.0))
    ds.graph.validate()
    e = ds.graph.edge_array()
    assert len(np.unique(e, axis=0)) == len(e)


def test_infeasible_degree_rejected():
    with pytest.raises(ValidationError, match="degree"):
        spec_with(num_nodes=10, avg_degree=20.0)


def test_single_class_heterophily_rejected():
    with pytest.raises(ValidationError):
        spec_with(num_classes=1, target_homophily=0.5)


def test_single_class_pure_homophily_allowed():
    ds = generate_synthetic(
        spec_with(num_classes=1, target_homophily=1.0, num_nodes=20)
    )
    assert global_homophily(ds.graph, ds.labels) == 1.0


def test_fewer_nodes_than_classes_rejected():
    with pytest.raises(ValidationError):
        spec_with(num_nodes=3, num_classes=5)


def test_bad_homophily_range_rejected():
    with pytest.raises(ValidationError):
        spec_with(target_homophily=1.5)
    with pytest.raises(ValidationError):
        spec_with(target_homophily=-0.1)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        spec_with(seed=-1)


def test_dataset_name_encodes_parameters():
    ds = generate_synthetic(spec_with(num_nodes=200, target_homophily=0.25))
    assert "0.25" in ds.name and "200" in ds.name


# -- the dense fallback against the enumeration it replaced ------------------

def reference_pairs(rng, budget, labels, intra, taken, dense_calls):
    """The pair sampler as first written: np.triu_indices over all n^2 / 2
    pairs in the dense fallback, and one ``taken`` set shared by both calls."""
    n = len(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    intra_pool = sum(len(m) * (len(m) - 1) // 2 for m in by_class)
    pool = intra_pool if intra else n * (n - 1) // 2 - intra_pool
    if budget > pool:
        kind = "intra" if intra else "inter"
        raise ValidationError(f"cannot place {budget} {kind}-class edges; only {pool} pairs exist")
    if budget * 4 > pool:
        dense_calls.append(intra)
        u, v = np.triu_indices(n, k=1)
        mask = (labels[u] == labels[v]) == intra
        cands = [p for p in zip(u[mask].tolist(), v[mask].tolist()) if p not in taken]
        out = [cands[i] for i in rng.permutation(len(cands))[:budget]]
        taken.update(out)
        return out
    out = []
    while len(out) < budget:
        u = int(rng.integers(n))
        mates = by_class[labels[u]]
        if intra:
            if len(mates) < 2:
                continue
            v = int(mates[rng.integers(len(mates))])
        else:
            v = int(rng.integers(n))
            if labels[v] == labels[u]:
                continue
        pair = (min(u, v), max(u, v))
        if u == v or pair in taken:
            continue
        taken.add(pair)
        out.append(pair)
    return out


def reference_synthetic(spec, dense_calls):
    rng = np.random.default_rng(spec.seed)
    n, c, f = spec.num_nodes, spec.num_classes, spec.feature_dim
    labels = np.arange(n, dtype=np.int64) % c
    intra_flags = rng.random(spec.num_edges) < spec.target_homophily
    taken = set()
    pairs = reference_pairs(rng, int(intra_flags.sum()), labels, True, taken, dense_calls)
    pairs += reference_pairs(rng, int((~intra_flags).sum()), labels, False, taken, dense_calls)
    graph, _ = Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    means = np.zeros((c, f))
    means[np.arange(c), np.arange(c) % f] = spec.class_separation
    return graph, means[labels] + rng.normal(0.0, spec.noise_sigma, size=(n, f))


@st.composite
def dense_specs(draw):
    """Specs that fill over a quarter of all pairs, so that at least one of the
    two edge types has fewer than 4 * budget candidates."""
    n = draw(st.integers(min_value=2, max_value=60))
    c = draw(st.integers(min_value=1, max_value=n))
    h = 1.0 if c == 1 else draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    fill = draw(st.floats(min_value=0.26, max_value=1.0))
    return SynthSpec(num_nodes=n, num_classes=c, target_homophily=h,
                     avg_degree=fill * (n - 1), feature_dim=3,
                     seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(dense_specs())
@settings(max_examples=150, deadline=None)
def test_dense_fallback_matches_reference(spec):
    dense_calls = []
    try:
        want_graph, want_features = reference_synthetic(spec, dense_calls)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            generate_synthetic(spec)
        assert str(got.value) == str(e)
        return
    assume(dense_calls)
    ds = generate_synthetic(spec)
    assert np.array_equal(ds.graph.offsets, want_graph.offsets)
    assert np.array_equal(ds.graph.neighbors, want_graph.neighbors)
    assert np.array_equal(ds.features, want_features)


def test_dense_fallback_memory_is_bounded():
    # 300 classes of 10 nodes hold 13,500 intra pairs for 6,000 edges, so the
    # fallback runs; enumerating all 4.5M pairs at once peaked at 142 MB
    spec = SynthSpec(num_nodes=3000, num_classes=300, target_homophily=1.0,
                     avg_degree=4.0, feature_dim=4)
    tracemalloc.start()
    try:
        generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
