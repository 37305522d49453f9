"""Synthetic graph generator with controllable homophily."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvge.data import save_dataset
from mvge.graph import MAX_NODES, Graph, ValidationError
from mvge.homophily import global_homophily
from mvge import synth
from mvge.synth import _WORDS, SynthSpec, _lemire, _sample_pairs, generate_synthetic


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
    # itself, below the replay's 2**32, and leaves the lower end, with its message,
    # to __post_init__
    assert MAX_NODES < 2**32
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


# -- both sampler paths against the code they replaced -----------------------

def reference_pairs(rng, budget, labels, intra, taken, paths):
    """The pair sampler as first written: np.triu_indices over all n^2 / 2
    pairs in the dense fallback, a loop of scalar ``rng.integers`` calls on the
    rejection path, and one ``taken`` set shared by both calls. Appends
    "dense" or, for a budget above 0, "loop" to ``paths``."""
    n = len(labels)
    by_class = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    intra_pool = sum(len(m) * (len(m) - 1) // 2 for m in by_class)
    pool = intra_pool if intra else n * (n - 1) // 2 - intra_pool
    if budget > pool:
        kind = "intra" if intra else "inter"
        raise ValidationError(f"cannot place {budget} {kind}-class edges; only {pool} pairs exist")
    if budget * 4 > pool:
        paths.append("dense")
        u, v = np.triu_indices(n, k=1)
        mask = (labels[u] == labels[v]) == intra
        cands = [p for p in zip(u[mask].tolist(), v[mask].tolist()) if p not in taken]
        out = [cands[i] for i in rng.permutation(len(cands))[:budget]]
        taken.update(out)
        return out
    out = []
    if budget:
        paths.append("loop")
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


def reference_synthetic(spec, paths):
    rng = np.random.default_rng(spec.seed)
    n, c, f = spec.num_nodes, spec.num_classes, spec.feature_dim
    labels = np.arange(n, dtype=np.int64) % c
    intra_flags = rng.random(spec.num_edges) < spec.target_homophily
    taken = set()
    pairs = reference_pairs(rng, int(intra_flags.sum()), labels, True, taken, paths)
    pairs += reference_pairs(rng, int((~intra_flags).sum()), labels, False, taken, paths)
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


def assert_matches_reference(spec, path):
    """generate_synthetic gives the reference's graph and, so the generator ended
    in the same state, its features; skips specs whose calls all miss ``path``."""
    paths = []
    try:
        want_graph, want_features = reference_synthetic(spec, paths)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            generate_synthetic(spec)
        assert str(got.value) == str(e)
        return
    assume(path in paths)
    ds = generate_synthetic(spec)
    assert np.array_equal(ds.graph.offsets, want_graph.offsets)
    assert np.array_equal(ds.graph.neighbors, want_graph.neighbors)
    assert np.array_equal(ds.features, want_features)


@given(dense_specs())
@settings(max_examples=150, deadline=None)
def test_dense_fallback_matches_reference(spec):
    assert_matches_reference(spec, "dense")


def reference_pool(labels, intra):
    """Every pair u < v of the edge type, u-major, from all n^2 / 2 pairs."""
    iu, iv = np.triu_indices(len(labels), k=1)
    mask = (labels[iu] == labels[iv]) == intra
    return np.stack([iu[mask], iv[mask]], axis=1)


@st.composite
def fallback_calls(draw):
    """Arguments of a _sample_pairs call that takes the dense fallback: any
    labels (classes may be empty or have one member), either edge type, and
    a budget above a quarter of its pool."""
    n = draw(st.integers(min_value=1, max_value=60))
    labels = np.array(draw(st.lists(st.integers(min_value=0, max_value=draw(
        st.integers(min_value=0, max_value=n))), min_size=n, max_size=n)), dtype=np.int64)
    intra = draw(st.booleans())
    pool = len(reference_pool(labels, intra))
    assume(pool > 0)
    budget = draw(st.integers(min_value=pool // 4 + 1, max_value=pool))
    return labels, intra, budget, draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(fallback_calls())
@settings(max_examples=200, deadline=None)
def test_dense_fallback_picks_from_the_kept_pairs_enumeration(call):
    # the pool built class by class is the u-major list of every kept pair,
    # so the same permutation picks the same pairs
    labels, intra, budget, seed = call
    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_pairs(rng, budget, labels, intra)
    cands = reference_pool(labels, intra)
    assert got.dtype == np.int64
    assert got.tolist() == cands[want_rng.permutation(len(cands))[:budget]].tolist()
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_dense_fallback_time_grows_with_the_pool():
    # 5000 two-member classes on 20000 nodes hold 5000 intra candidates. A walk
    # over all 2e8 pairs took about 3 s on a 2-vCPU VM, the pool about 2 ms
    labels = np.arange(20000) % 15000
    start = time.perf_counter()
    pairs = _sample_pairs(np.random.default_rng(0), 2000, labels, True)
    assert time.perf_counter() - start < 0.5
    assert len(np.unique(pairs, axis=0)) == 2000
    assert (labels[pairs[:, 0]] == labels[pairs[:, 1]]).all()


@st.composite
def sparse_specs(draw):
    """Specs that fill at most a quarter of all pairs, so that the rejection loop
    draws at least one edge type; past n / 2 classes some have one member."""
    n = draw(st.integers(min_value=2, max_value=400))
    c = draw(st.integers(min_value=1, max_value=n))
    h = 1.0 if c == 1 else draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    fill = draw(st.floats(min_value=0.0, max_value=0.25))
    return SynthSpec(num_nodes=n, num_classes=c, target_homophily=h,
                     avg_degree=fill * (n - 1), feature_dim=3,
                     seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


@given(sparse_specs())
@settings(max_examples=150, deadline=None)
def test_rejection_loop_matches_reference(spec):
    assert_matches_reference(spec, "loop")


@pytest.mark.parametrize("bound", [2, 3, 20000, 2**31 + 1, 2**32 - 1, 2**32])
def test_lemire_decodes_generator_integers(bound):
    """The decoded words give the values of scalar ``integers(bound)`` calls, and
    drawing the words they used leaves the generator in the same state."""
    rng, replay = np.random.default_rng(bound), np.random.default_rng(bound)
    for g in (rng, replay):
        g.integers(5)  # half of a 64-bit output stays buffered for the next call
    want = [int(rng.integers(bound)) for _ in range(300)]
    state = replay.bit_generator.state
    values, kept = _lemire(replay.integers(size=2000, **_WORDS), bound)
    assert values[kept][:300].tolist() == want
    if bound == 2**31 + 1:  # the worst bound: about half of all words are rejected
        assert 0.4 < 1 - kept.mean() < 0.6
    replay.bit_generator.state = state
    replay.integers(size=np.flatnonzero(kept)[299] + 1, **_WORDS)
    assert replay.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("intra", [True, False])
def test_rejection_loop_replays_rejected_words(intra):
    # 2**32 mod n is n - 704, so integers(n) rejects one word in 1500, and
    # integers(n // 2) one in 3000: each call below replays a few rejections
    n, budget = 2863312, 10000
    labels = np.arange(n) % 2
    rng, want = np.random.default_rng(7), np.random.default_rng(7)
    got = _sample_pairs(rng, budget, labels, intra)
    assert got.tolist() == sorted(map(list, reference_pairs(want, budget, labels, intra, set(), [])))
    assert rng.bit_generator.state == want.bit_generator.state
    if not intra:  # every draw is integers(n): some of the words it used were rejected
        used = np.random.default_rng(7).integers(size=2 * budget, **_WORDS)
        assert not _lemire(used, n)[1].all()


@pytest.mark.parametrize("intra, seed", [(True, 111164), (False, 1038)])
def test_rejection_redraw_past_the_block_end(intra, seed):
    # for budget 2 the first block holds 69 (intra) or 74 (inter) words; with
    # these seeds its last word is a rejected v word of the iteration whose u is
    # the word before, so v's redraw needs words the block does not hold
    n = 2863312
    labels = np.arange(n) % 2
    block = 69 if intra else 74
    words = np.random.default_rng(seed).integers(size=block, **_WORDS)
    assert _lemire(words[-2], n)[1] and not _lemire(words[-1], n // 2 if intra else n)[1]
    rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _sample_pairs(rng, 2, labels, intra)
    assert got.tolist() == sorted(map(list, reference_pairs(want, 2, labels, intra, set(), [])))
    assert rng.bit_generator.state == want.bit_generator.state


class WordStream:
    """A stand-in for ``np.random.Generator`` whose bounded draws reject words
    far more often than numpy's, decoded by ``decode`` in place of ``_lemire``.
    Word blocks and scalar ``integers(b)`` read one stream; the state is the
    number of words read."""

    def __init__(self, seed, reject_percent):
        self.source, self.reject_percent = np.random.default_rng(seed), reject_percent
        self.stream, self.state, self.bit_generator = np.empty(0, dtype=np.uint32), 0, self

    def decode(self, words, bound):
        words, bound = np.asarray(words, dtype=np.uint64), np.asarray(bound, dtype=np.uint64)
        return ((words >> 8) % bound).astype(np.int64), (words ^ bound) % 100 >= self.reject_percent

    def read(self, k):
        while self.state + k > len(self.stream):
            self.stream = np.concatenate([self.stream, self.source.integers(size=256, **_WORDS)])
        self.state += k
        return self.stream[self.state - k:self.state]

    def integers(self, bound=None, size=None, **words):
        if size is not None:
            return self.read(size)
        while bound > 1:
            value, kept = self.decode(self.read(1), bound)
            if kept[0]:
                return int(value[0])
        return 0


@given(n=st.integers(min_value=2, max_value=60), data=st.data(),
       reject_percent=st.integers(min_value=0, max_value=70),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_rejection_loop_replays_frequent_rejections(n, data, reject_percent, seed):
    """With up to 70% of words rejected, redraws of u and v cross the ends of
    the replayed blocks; pairs and words used still equal the scalar loop's."""
    labels = np.arange(n) % data.draw(st.integers(min_value=1, max_value=n))
    intra = data.draw(st.booleans())
    sizes = np.bincount(labels)
    intra_pool = int((sizes * (sizes - 1) // 2).sum())
    pool = intra_pool if intra else n * (n - 1) // 2 - intra_pool
    assume(pool >= 4)
    budget = data.draw(st.integers(min_value=1, max_value=pool // 4))
    rng, want = WordStream(seed, reject_percent), WordStream(seed, reject_percent)
    with mock.patch.object(synth, "_lemire", rng.decode):
        got = _sample_pairs(rng, budget, labels, intra)
    assert got.tolist() == sorted(map(list, reference_pairs(want, budget, labels, intra, set(), [])))
    assert rng.state == want.state


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
