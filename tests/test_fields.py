"""One integer rule for every integer setting that comes from outside: the
fields of MVGEConfig, WalkConfig, SplitSpec and SynthSpec, and the integer
keys of a dataset's meta.json. Bools, floats (integral or not) and numeric
strings are rejected with a ValidationError naming the setting; Python and
numpy integers in range are accepted. Each of those fields' single-field
rules and choices is declared in its metadata, and holds on the spec and on
the command-line flag alike."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvge import cli
from mvge.data import load_dataset, save_dataset
from mvge.evaluate import SplitSpec
from mvge.graph import Graph, ValidationError, check_fields
from mvge.model import MVGEConfig
from mvge.synth import SynthSpec
from mvge.walks import WalkConfig

from conftest import make_dataset

# what JSON can carry that is not an integer
json_not_integers = st.one_of(
    st.booleans(),
    st.floats().filter(lambda x: not x.is_integer()),  # nan and inf included
    st.integers(-2**70, 2**70).map(float),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
not_integers = st.one_of(
    json_not_integers,
    st.booleans().map(np.bool_),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


def _synth(**kw):
    return SynthSpec(**{"num_nodes": 20, "num_classes": 2, "target_homophily": 1.0,
                        "avg_degree": 0.0, **kw})


I64, U64 = 2**63 - 1, 2**64 - 1  # the largest numpy int64 and uint64
LENGTHS = "walk lengths must be integers"

# field: (the message's subject, build with value v, the least and largest v in range)
FIELDS = {
    "MVGEConfig.dim_ego": ("dim_ego", lambda v: MVGEConfig(dim_ego=v), 1, I64),
    "MVGEConfig.dim_agg": ("dim_agg", lambda v: MVGEConfig(dim_agg=v), 1, I64),
    "MVGEConfig.hidden_dim": ("hidden_dim", lambda v: MVGEConfig(hidden_dim=v), 1, I64),
    "MVGEConfig.epochs": ("epochs", lambda v: MVGEConfig(epochs=v), 0, I64),
    "MVGEConfig.seed": ("seed", lambda v: MVGEConfig(seed=v), 0, U64),
    "MVGEConfig.walk_lengths": (LENGTHS, lambda v: MVGEConfig(walk_lengths=(3, v)), 4, I64),
    "WalkConfig.seed": ("seed", lambda v: WalkConfig(seed=v), 0, U64),
    "WalkConfig.lengths[0]": (LENGTHS, lambda v: WalkConfig(lengths=(v,)), 1, I64),
    "WalkConfig.lengths[1]": (LENGTHS, lambda v: WalkConfig(lengths=(1, v, 3)), 4, I64),
    "SplitSpec.repeats": ("repeats", lambda v: SplitSpec("node", repeats=v), 1, I64),
    "SplitSpec.seed": ("seed", lambda v: SplitSpec("link", seed=v), 0, I64),
    "SynthSpec.num_nodes": ("num_nodes", lambda v: _synth(num_nodes=v), 2, 2**32),
    "SynthSpec.num_classes": ("num_classes", lambda v: _synth(num_classes=v), 1, 20),
    "SynthSpec.feature_dim": ("feature_dim", lambda v: _synth(feature_dim=v), 1, I64),
    "SynthSpec.seed": ("seed", lambda v: _synth(seed=v), 0, U64),
}


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_integer_fields_follow_one_rule(field, data):
    message, build, low, high = FIELDS[field]
    if message != LENGTHS:
        message = f"{message} must be an integer"
    bad = data.draw(not_integers, label="bad")
    with pytest.raises(ValidationError) as exc:
        build(bad)
    assert str(exc.value) == f"{message}, got {bad!r}"
    v = data.draw(st.integers(low, high), label="v")
    build(v)
    build(np.uint64(v) if v > I64 else np.int64(v))
    if v < 2**31:
        build(np.int32(v))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    g, _ = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ds = make_dataset(g, np.arange(12.0).reshape(4, 3), [0, 1, 1, 0], num_classes=2)
    out = tmp_path_factory.mktemp("meta") / "d"
    save_dataset(ds, out)
    return out


@pytest.mark.parametrize("key", ["num_nodes", "num_features", "num_classes"])
@given(bad=json_not_integers)
@settings(max_examples=40, deadline=None)
def test_meta_json_integer_keys_follow_one_rule(dataset_dir, key, bad):
    path = dataset_dir / "meta.json"
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, key: bad}))
    try:
        with pytest.raises(ValidationError) as exc:
            load_dataset(dataset_dir)
        assert f"meta.json: {key} must be an integer, got {bad!r}" in str(exc.value)
    finally:
        path.write_text(json.dumps(meta))
    assert load_dataset(dataset_dir).num_nodes == 4


@dataclasses.dataclass(frozen=True)
class _Settings:
    """Fields checked by their annotations alone; this module's are types, not
    the strings that ``from __future__ import annotations`` leaves."""

    count: int = 1
    rate: float = 0.5
    limit: float | None = None
    label: str = "x"
    mode: str = dataclasses.field(default="a", metadata={"choices": ("a", "b")})
    share: float | None = dataclasses.field(default=None,
                                            metadata={"rule": (lambda v: v <= 1, "at most 1")})

    def __post_init__(self):
        check_fields(self)


def test_check_fields_reads_the_annotations():
    assert type(_Settings(count=np.int64(3)).count) is int
    _Settings(rate=2, limit=np.float32(0.5), label=3)  # str is not checked
    _Settings(mode="b", share=1)  # a rule passes None by, so share=None is fine
    for kw, message in (({"count": 2.5}, "count must be an integer, got 2.5"),
                        ({"rate": True}, "rate must be a real number, got True"),
                        ({"limit": "0.5"}, "limit must be a real number, got '0.5'"),
                        ({"rate": None, "count": True}, "count must be an integer, got True"),
                        ({"mode": "c"}, "mode must be one of ('a', 'b'), got 'c'"),
                        ({"mode": None}, "mode must be one of ('a', 'b'), got None"),
                        ({"share": 1.5}, "share must be at most 1, got 1.5"),
                        # types first, then each field's choices and rule in field order
                        ({"share": 1.5, "rate": "x"}, "rate must be a real number, got 'x'"),
                        ({"share": 1.5, "mode": "c"}, "mode must be one of ('a', 'b'), got 'c'")):
        with pytest.raises(ValidationError) as exc:
            _Settings(**kw)
        assert str(exc.value) == message


def _split(**kw):
    return SplitSpec(**{"task": "node", **kw})


# each spec: how to build it with some fields given, and the least argv of a
# command that builds it from its flags (None: no command does)
SPECS = {
    MVGEConfig: (MVGEConfig, ("embed", "ds", "--out", "o")),
    WalkConfig: (WalkConfig, None),
    SplitSpec: (_split, ("eval-node", "ds", "--embeddings", "e.bin")),
    SynthSpec: (_synth, ("synth", "--n", 20, "--c", 2, "--h", 0.5, "--out", "o")),
}
# every field that declares a rule or choices: a value it rejects, and the message
DECLARED = {
    "MVGEConfig.dim_ego": (0, "dim_ego must be >= 1, got 0"),
    "MVGEConfig.dim_agg": (0, "dim_agg must be >= 1, got 0"),
    "MVGEConfig.hidden_dim": (-2, "hidden_dim must be >= 1, got -2"),
    "MVGEConfig.alpha": (1.5, "alpha must be in [0, 1], got 1.5"),
    "MVGEConfig.beta": (-0.25, "beta must be in [0, 1], got -0.25"),
    "MVGEConfig.epochs": (-1, "epochs must be >= 0, got -1"),
    "MVGEConfig.lr": (0.0, "lr must be finite and positive, got 0.0"),
    "MVGEConfig.seed": (-1, "seed must be in [0, 2**64), got -1"),
    "MVGEConfig.aggr": ("max", "aggr must be one of ('concat', 'mean', 'sum'), got 'max'"),
    "MVGEConfig.merge_fn": ("max", "merge_fn must be one of ('concat', 'sum', 'mean'), got 'max'"),
    "MVGEConfig.ego_encoder": ("mlp", "ego_encoder must be one of ('linear', 'gcn'), got 'mlp'"),
    "MVGEConfig.adj_loss_mode": (
        "dense", "adj_loss_mode must be one of ('auto', 'full', 'sampled'), got 'dense'"),
    "MVGEConfig.sample_ratio": (float("inf"), "sample_ratio must be finite and positive, got inf"),
    "WalkConfig.aggr": ("max", "aggr must be one of ('concat', 'mean', 'sum'), got 'max'"),
    "WalkConfig.seed": (2**64, f"seed must be in [0, 2**64), got {2**64}"),
    "SplitSpec.task": ("edge", "task must be one of ('node', 'link', 'pair'), got 'edge'"),
    "SplitSpec.train_fraction": (1.0, "train_fraction must be in (0, 1), got 1.0"),
    "SplitSpec.repeats": (0, "repeats must be >= 1, got 0"),
    "SplitSpec.seed": (-3, "seed must be >= 0, got -3"),
    "SynthSpec.num_nodes": (2**32 + 1, f"num_nodes must be <= 2**32, got {2**32 + 1}"),
    "SynthSpec.target_homophily": (1.5, "target_homophily must be in [0, 1], got 1.5"),
    "SynthSpec.avg_degree": (-1.0, "avg_degree must be finite and non-negative, got -1.0"),
    "SynthSpec.feature_dim": (0, "feature_dim must be >= 1, got 0"),
    "SynthSpec.class_separation": (float("nan"), "class_separation must be finite, got nan"),
    "SynthSpec.noise_sigma": (float("nan"), "noise_sigma must be finite and non-negative, got nan"),
    "SynthSpec.seed": (-1, "seed must be >= 0, got -1"),
}
FLAG_NAMES = {"num_nodes": "--n", "num_classes": "--c", "target_homophily": "--h"}


def test_every_declaration_has_a_row():
    declared = {f"{cls.__name__}.{f.name}" for cls in SPECS for f in dataclasses.fields(cls)
                if "rule" in f.metadata or "choices" in f.metadata}
    assert declared == set(DECLARED)


@pytest.mark.parametrize("name", DECLARED)
def test_declared_rule_holds_on_the_spec_and_its_flag(name, monkeypatch, capsys):
    """The constructor gives the message; the flag, if any, gives it too or, for a
    field with choices, is refused by argparse."""
    cls_name, field = name.split(".")
    bad, message = DECLARED[name]
    cls = next(c for c in SPECS if c.__name__ == cls_name)
    build, argv = SPECS[cls]
    with pytest.raises(ValidationError) as exc:
        build(**{field: bad})
    assert str(exc.value) == message
    flag = FLAG_NAMES.get(field, "--" + field.replace("_", "-"))
    if argv is None or (cls is SplitSpec and field == "task"):
        return
    for loader in ("_load_labeled", "load_matrix"):  # eval-node reads these first
        monkeypatch.setattr(cli, loader, lambda *args: SimpleNamespace(labels=None))
    if "choices" in {f.name: f for f in dataclasses.fields(cls)}[field].metadata:
        with pytest.raises(SystemExit) as stop:
            cli.main([*map(str, argv), flag, str(bad)])
        assert stop.value.code == 2
        assert f"argument {flag}: invalid choice: {bad!r}" in capsys.readouterr().err
    else:
        assert cli.main([*map(str, argv), flag, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
