"""Synthetic graph generator with controllable homophily."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvge.data import save_dataset
from mvge.graph import MAX_NODES, ValidationError
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


@given(n=st.integers(1, 60), degree=st.floats(0.0, 80.0))
def test_degree_bound_is_the_edge_count_bound(n, degree):
    fits = int(degree * n / 2) <= n * (n - 1) // 2
    try:
        spec_with(num_nodes=n, num_classes=1, target_homophily=1.0, avg_degree=degree)
    except ValidationError as exc:
        assert not fits and str(exc) == "requested degree exceeds the complete graph"
    else:
        assert fits


@pytest.mark.parametrize("degree", [1e308, np.finfo(np.float64).max])
def test_overflowing_degree_rejected(degree):
    with pytest.raises(ValidationError, match="requested degree exceeds the complete graph"):
        spec_with(num_nodes=5, avg_degree=degree)


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


def test_num_nodes_rule_bounds_only_from_above():
    # the <= MAX_NODES rule (refusal pinned in test_fields.DECLARED) takes MAX_NODES
    # itself and leaves the lower end, with its message, to __post_init__
    assert spec_with(num_nodes=MAX_NODES, avg_degree=0.0).num_nodes == MAX_NODES
    for n in (0, -1):
        with pytest.raises(ValidationError, match="need num_nodes >= num_classes >= 1"):
            spec_with(num_nodes=n)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        spec_with(seed=-1)


@pytest.mark.parametrize("name", ["num_nodes", "num_classes", "feature_dim", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_spec_integer_fields_reject_other_types(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        spec_with(**{name: value})
    default = getattr(spec_with(), name)
    assert getattr(spec_with(**{name: np.int64(default)}), name) == default


@pytest.mark.parametrize("name", ["target_homophily", "avg_degree", "class_separation",
                                  "noise_sigma"])
@pytest.mark.parametrize("value", [True, "0.5", None])
def test_spec_real_fields_reject_other_types(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be a real number"):
        spec_with(**{name: value})
    assert getattr(spec_with(**{name: np.float32(0.5)}), name) == 0.5


def test_dataset_name_encodes_parameters():
    ds = generate_synthetic(spec_with(num_nodes=200, target_homophily=0.25))
    assert "0.25" in ds.name and "200" in ds.name


# -- the edge draw -------------------------------------------------------------

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


@st.composite
def sparse_specs(draw):
    """Specs that fill at most a quarter of all pairs, so that at least one of
    the two edge types has 4 * budget candidates or more; past n / 2 classes
    some have one member."""
    n = draw(st.integers(min_value=2, max_value=400))
    c = draw(st.integers(min_value=1, max_value=n))
    h = 1.0 if c == 1 else draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    fill = draw(st.floats(min_value=0.0, max_value=0.25))
    return SynthSpec(num_nodes=n, num_classes=c, target_homophily=h,
                     avg_degree=fill * (n - 1), feature_dim=3,
                     seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(dense_specs() | sparse_specs())
@settings(max_examples=300, deadline=None)
def test_edges_meet_the_budget_and_the_coin_flips(spec):
    # the coins are the spec stream's first draws, and each type's pairs are
    # distinct, so the graph keeps every edge and one intra edge per intra coin;
    # a budget above its type's pool is refused
    n = spec.num_nodes
    sizes = np.bincount(np.arange(n) % spec.num_classes)
    intra_pool = int((sizes * (sizes - 1) // 2).sum())
    intra = int((np.random.default_rng(spec.seed).random(spec.num_edges)
                 < spec.target_homophily).sum())
    fits = intra <= intra_pool and spec.num_edges - intra <= n * (n - 1) // 2 - intra_pool
    try:
        ds = generate_synthetic(spec)
    except ValidationError as exc:
        assert not fits
        assert re.fullmatch(r"need \d+ (same|different)-class pairs but only \d+ exist", str(exc))
        return
    assert fits
    e = ds.graph.edge_array()
    assert len(e) == spec.num_edges
    assert int((ds.labels[e[:, 0]] == ds.labels[e[:, 1]]).sum()) == intra


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
