"""The benchmark's workloads: how each one sets up, what one operation
does, and the checks that decide whether the operation's outputs are right.

Every call goes through a module attribute (``mvge.model.train``, not a
name imported into this file), so the tracer's wrappers see it.

All graphs come from ``generate_synthetic`` with 5 classes, average
degree 4, 32 features and the default separation and noise. Every seed
(synth, model, splits) is the benchmark's ``--seed``.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mvge.data
import mvge.evaluate
import mvge.model
import mvge.synth
import mvge.walks


@dataclass(frozen=True)
class Size:
    num_nodes: int
    epochs: int
    node_repeats: int
    link_repeats: int = 0
    pair_repeats: int = 0
    f1_floor: float = 0.0  # lowest acceptable mean node micro-F1


@dataclass(frozen=True)
class Workload:
    name: str
    homophily: float
    adj_loss_mode: str
    files: bool  # dataset save/reload in set-up, embedding write/read in eval
    protocols: bool  # link and pair protocols instead of precomputed views
    size: Size
    tiny: Size  # smoke-test size; same code path, figures not comparable


WORKLOADS = {
    w.name: w
    for w in (
        # cora scale: the dense N^2 adjacency loss dominates each step and sets
        # peak RSS; the only workload whose data layer writes and reads files.
        Workload("cora-full", 0.2, "full", files=True, protocols=False,
                 size=Size(5000, epochs=2, node_repeats=3, f1_floor=0.36),
                 tiny=Size(300, epochs=2, node_repeats=1)),
        # pubmed scale: the per-node walk loop dominates set-up, the sampled
        # scatter each step and the probe on 6,000 rows the evaluation.
        Workload("pubmed-sampled", 0.8, "sampled", files=False, protocols=False,
                 size=Size(20000, epochs=2, node_repeats=1, f1_floor=0.55),
                 tiny=Size(400, epochs=2, node_repeats=1)),
        # README graph: many short trainings on different graphs, so the
        # per-training set-up is paid on every retrain; exercises the samplers.
        Workload("protocols", 0.2, "full", files=False, protocols=True,
                 size=Size(1490, epochs=5, node_repeats=10, link_repeats=2,
                           pair_repeats=3, f1_floor=0.30),
                 tiny=Size(200, epochs=2, node_repeats=1, link_repeats=1,
                           pair_repeats=1)),
    )
}

@dataclass
class State:
    """What set-up hands to every operation."""

    workload: Workload
    size: Size
    seed: int
    ds: mvge.data.Dataset
    cfg: mvge.model.MVGEConfig
    views: object | None
    workdir: Path | None


class CheckFailed(Exception):
    """An output was produced but is wrong."""


def _check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def setup(workload: Workload, size: Size, seed: int, work_parent: Path) -> State:
    """Synthesize the graph and, per workload, round-trip it through files
    and build the walk views. ``work_parent`` holds the work dir."""
    spec = mvge.synth.SynthSpec(num_nodes=size.num_nodes, num_classes=5,
                                target_homophily=workload.homophily,
                                avg_degree=4, feature_dim=32, seed=seed)
    ds = mvge.synth.generate_synthetic(spec)
    workdir = None
    if workload.files:
        work_parent.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=work_parent))
        mvge.data.save_dataset(ds, workdir / "dataset")
        loaded = mvge.data.load_dataset(workdir / "dataset")
        _check(np.array_equal(loaded.graph.offsets, ds.graph.offsets)
               and np.array_equal(loaded.graph.neighbors, ds.graph.neighbors)
               and np.array_equal(loaded.features, ds.features)
               and np.array_equal(loaded.labels, ds.labels),
               "dataset reloaded from files differs from the one saved")
        ds = loaded
    cfg = mvge.model.MVGEConfig(epochs=size.epochs, seed=seed,
                                adj_loss_mode=workload.adj_loss_mode)
    views = None
    if not workload.protocols:
        views = mvge.walks.build_views(ds.graph, ds.features, cfg.walk_config())
    return State(workload, size, seed, ds, cfg, views, workdir)


def cleanup(state: State) -> None:
    if state.workdir is not None:
        shutil.rmtree(state.workdir, ignore_errors=True)


@dataclass
class OpResult:
    """One pass over the workload's operations, in order."""

    train_s: float | None = None
    eval_s: float | None = None
    scores: dict = field(default_factory=dict)  # node_f1, link_auc, pair_auc
    digest: str | None = None  # sha256 of the merged embedding
    failures: list = field(default_factory=list)  # (operation, message) per failed one
    attempted: int = 0  # operations: one per train() or protocol call


def _check_report(report, task: str, metric: str, repeats: int) -> None:
    scores = np.asarray(report.scores, dtype=np.float64)
    _check(report.task == task and report.metric == metric,
           f"report is {report.task}/{report.metric}, expected {task}/{metric}")
    _check(scores.shape == (repeats,), f"{scores.size} scores for {repeats} repeats")
    _check(np.all((scores >= 0.0) & (scores <= 1.0)), f"scores outside [0, 1]: {scores}")
    _check(abs(report.mean - scores.mean()) <= 1e-12 and report.std >= 0.0,
           f"mean {report.mean} / std {report.std} disagree with the scores")


def _check_training(emb, trace, epochs: int) -> None:
    losses = np.stack([trace.l_ego, trace.l_agg, trace.l_s, trace.l_total])
    _check(losses.shape == (4, epochs), f"trace has {len(trace)} epochs, expected {epochs}")
    _check(np.isfinite(losses).all(), "non-finite loss in the trace")
    for name in ("h", "h_ego", "h_agg"):
        _check(np.isfinite(getattr(emb, name)).all(), f"non-finite values in {name}")
    _check(trace.l_total[-1] < trace.l_total[0],
           f"last loss {trace.l_total[-1]} not below first {trace.l_total[0]}")


def _node_eval(state: State, emb):
    w, size = state.workload, state.size
    h = emb.h
    if w.files:
        base = state.workdir / "emb" / "embeddings"
        written = mvge.data.save_embeddings(emb, base, fmt="both")
        _check(len(written) == 6 and all(p.is_file() for p in written),
               f"save_embeddings wrote {len(written)} files, expected 6")
        loaded = mvge.data.load_embeddings(base)
        for name in ("h", "h_ego", "h_agg"):
            want = getattr(emb, name).astype(np.float32).astype(np.float64)
            _check(np.array_equal(getattr(loaded, name), want),
                   f"{name} read back differs from the float32 it was written as")
        h = loaded.h
    spec = mvge.evaluate.SplitSpec("node", repeats=size.node_repeats, seed=state.seed)
    report = mvge.evaluate.node_classification_eval(h, state.ds.labels, spec)
    _check_report(report, "node", "micro_f1", size.node_repeats)
    _check(report.mean >= size.f1_floor,
           f"node_f1 {report.mean:.4f} below floor {size.f1_floor}")
    return report.mean


def _link_eval(state: State, emb):
    spec = mvge.evaluate.SplitSpec("link", repeats=state.size.link_repeats, seed=state.seed)
    report = mvge.evaluate.link_prediction_eval(state.ds, state.cfg, spec)
    _check_report(report, "link", "roc_auc", state.size.link_repeats)
    return report.mean


def _pair_eval(state: State, emb):
    # the same call pairwise_eval(h=None) makes, with the training timed apart
    spec = mvge.evaluate.SplitSpec("pair", repeats=state.size.pair_repeats, seed=state.seed)
    report = mvge.evaluate.pairwise_eval(state.ds, state.cfg, spec, h=emb.h)
    _check_report(report, "pair", "roc_auc", state.size.pair_repeats)
    return report.mean


_EVALS = {"node_eval": ("node_f1", _node_eval),
          "link_eval": ("link_auc", _link_eval),
          "pair_eval": ("pair_auc", _pair_eval)}


def run_operations(state: State) -> OpResult:
    """Train once, then run each evaluation on the embedding.

    A failed operation is recorded with its message. If training fails,
    the evaluations that need its embedding are recorded as failed too.
    """
    out = OpResult()
    names = ("train", "node_eval") + (("link_eval", "pair_eval")
                                      if state.workload.protocols else ())
    out.attempted = len(names)
    t0 = time.perf_counter()
    try:
        _, emb, trace = mvge.model.train(state.ds, state.cfg, views=state.views)
        out.train_s = time.perf_counter() - t0
        _check_training(emb, trace, state.size.epochs)
    except Exception as exc:  # a raising operation counts as failed, not as a crash
        out.failures.append(("train", f"{type(exc).__name__}: {exc}"))
        if out.train_s is None:
            out.failures += [(n, "skipped: training did not finish") for n in names[1:]]
            return out
    out.digest = hashlib.sha256(np.ascontiguousarray(emb.h).tobytes()).hexdigest()
    t0 = time.perf_counter()
    for name in names[1:]:
        metric, fn = _EVALS[name]
        try:
            out.scores[metric] = fn(state, emb)
        except Exception as exc:
            out.failures.append((name, f"{type(exc).__name__}: {exc}"))
    out.eval_s = time.perf_counter() - t0
    return out
