"""Command-line entry point.

Subcommands: stats, synth, embed, eval-node, eval-link, eval-pair,
gridsearch, diag. Reports are JSON, tables are CSV with headers, and
every training subcommand writes a run manifest capturing the fully
resolved configuration, seed, dataset checksum, tool version, the
environment (python, numpy, scipy, BLAS and its threads, CPUs, adjacency
loss workers) and duration. Re-running a command with the same flags and
seed rewrites primary outputs byte for byte (on one machine the manifest
differs only in duration).

Exit codes: 0 success, 2 usage or validation failure, 3 numerical
failure during training.

``-v`` logs to stderr at INFO: edge repairs on load, and the adjacency
mode and worker count of each training. ``-vv`` adds DEBUG: the
sampled-mode negative acceptance rate and the isolated nodes of the walks.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from mvge import __version__
from mvge.data import (
    DATASET_FILES,
    embedding_path,
    load_dataset,
    load_matrix,
    read_json_object,
    save_dataset,
    save_embeddings,
    write_json,
    write_lines,
)
from mvge.evaluate import (
    SplitSpec,
    grid_search_alpha_beta,
    link_prediction_eval,
    node_classification_eval,
    pairwise_eval,
)
from mvge.graph import ValidationError
from mvge.homophily import homophily_report
from mvge.model import (
    ADJ_LOSS_MODES,
    EGO_ENCODERS,
    MERGE_FNS,
    MVGEConfig,
    TrainingDivergedError,
    adjacency_workers,
    embedding_dim_std,
    train,
)
from mvge.numerics import blas_info, usable_cpus
from mvge.synth import SynthSpec, generate_synthetic
from mvge.walks import AGGREGATORS

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _dataset_checksum(directory: Path) -> str:
    """sha256 over the dataset files, in fixed order."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        path = directory / name
        if path.is_file():
            digest.update(name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _config_to_dict(cfg: MVGEConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["task_mask"] = sorted(cfg.task_mask)
    return d


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(MVGEConfig)}


def _resolve_config(args: argparse.Namespace) -> MVGEConfig:
    """defaults < --config JSON < explicit flags, then validate."""
    d = _config_to_dict(MVGEConfig())
    if getattr(args, "config", None):
        overlay = read_json_object(args.config, "config")
        # a run manifest doubles as a config via its resolved_config block
        overlay = overlay.get("resolved_config", overlay)
        unknown = set(overlay) - _CONFIG_FIELDS
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        d.update(overlay)
    for name in _CONFIG_FIELDS:
        v = getattr(args, name, None)
        if v is not None:
            d[name] = v
    try:
        return MVGEConfig(**d)
    except (TypeError, ValueError) as exc:  # ValidationError, or a wrong JSON type
        where = f"bad value in config {args.config}: " if getattr(args, "config", None) else ""
        raise ValidationError(f"{where}{exc}") from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config or run manifest to start from")
    p.add_argument("--dim-ego", dest="dim_ego", type=int)
    p.add_argument("--dim-agg", dest="dim_agg", type=int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--walk-lengths", dest="walk_lengths", type=_int_list,
                   help="comma-separated walk lengths, e.g. 3,5,10")
    p.add_argument("--aggr", choices=AGGREGATORS)
    p.add_argument("--merge-fn", dest="merge_fn", choices=MERGE_FNS)
    p.add_argument("--task-mask", dest="task_mask", type=_str_list,
                   help="comma-separated subset of ego,agg,adj")
    p.add_argument("--ego-encoder", dest="ego_encoder", choices=EGO_ENCODERS)
    p.add_argument("--adj-loss-mode", dest="adj_loss_mode", choices=ADJ_LOSS_MODES)
    p.add_argument("--sample-ratio", dest="sample_ratio", type=float)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)


def _seed_of(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def _write_csv(path: str | Path, header: str, rows) -> None:
    write_lines(path, [header, *(",".join(map(str, row)) for row in rows)])


def _emit(obj, out: str | None) -> None:
    if out:
        write_json(out, obj)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _write_manifest(out: Path, command: str, cfg: MVGEConfig | None, seed: int,
                    dataset_dir: str | None, started: float, outputs: list[str],
                    extra: dict | None = None) -> None:
    """Write ``out/run_manifest.json``: the command, its resolved config and
    seed, the dataset checksum, the environment and the duration."""
    m = {
        "tool": "mvge",
        "version": __version__,
        "command": command,
        "seed": seed,
        "duration_seconds": time.time() - started,
        "outputs": sorted(outputs),
        "env": _environment(),
    }
    if cfg is not None:
        m["resolved_config"] = _config_to_dict(cfg)
    if dataset_dir is not None:
        m["dataset"] = {
            "path": str(dataset_dir),
            "sha256": _dataset_checksum(Path(dataset_dir)),
        }
    if extra:
        m.update(extra)
    write_json(out / "run_manifest.json", m)


def _environment() -> dict:
    """What the run's speed and threading depend on; outputs do not."""
    blas, threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "cpus": usable_cpus(),
        "adjacency_workers": adjacency_workers(),
    }


def _load_labeled(args: argparse.Namespace, what: str):
    """The dataset at ``args.dataset``; ValidationError naming labels.txt if unlabeled."""
    ds = load_dataset(args.dataset)
    if ds.labels is None:
        raise ValidationError(f"{what} needs labels: {Path(args.dataset) / 'labels.txt'} not found")
    return ds


def cmd_stats(args: argparse.Namespace) -> int:
    ds = _load_labeled(args, "stats")
    report = homophily_report(ds.graph, ds.labels, bins=args.bins)
    if args.local_csv:
        rows = [(v, repr(float(x))) for v, x in enumerate(report.local)]
        _write_csv(args.local_csv, "node,local_homophily", rows)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    spec = SynthSpec(
        num_nodes=args.n, num_classes=args.c, target_homophily=args.h,
        avg_degree=args.avg_degree, feature_dim=args.feature_dim,
        class_separation=args.class_separation, noise_sigma=args.noise_sigma,
        seed=_seed_of(args),
    )
    ds = generate_synthetic(spec)
    out = Path(args.out)
    save_dataset(ds, out, extra_meta={"generator": dataclasses.asdict(spec)})
    written = [p.name for p in out.iterdir() if p.name in DATASET_FILES]
    _write_manifest(out, "synth", None, spec.seed, str(out), started, written,
                    extra={"generator": dataclasses.asdict(spec)})
    print(f"wrote {ds.name} to {out}")
    return EXIT_OK


def cmd_embed(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    _, emb, trace = train(ds, cfg)
    out = Path(args.out)
    written = save_embeddings(emb, out / "embeddings", fmt=args.format)
    _write_csv(out / "trace.csv", "epoch,l_ego,l_agg,l_s,l_total",
               [(i, repr(a), repr(b), repr(c), repr(d))
                for i, a, b, c, d in trace.rows()])
    names = [p.name for p in written] + ["trace.csv"]
    _write_manifest(out, "embed", cfg, cfg.seed, args.dataset, started, names)
    print(f"embedded {ds.num_nodes} nodes into width {emb.h.shape[1]} at {out}")
    return EXIT_OK


def cmd_eval_node(args: argparse.Namespace) -> int:
    ds = _load_labeled(args, "node evaluation")
    h = load_matrix(args.embeddings)
    spec = SplitSpec(task="node", train_fraction=args.train_fraction,
                     repeats=args.repeats, seed=_seed_of(args))
    report = node_classification_eval(h, ds.labels, spec)
    _write_reports(args, report)
    return EXIT_OK


def cmd_eval_link(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    spec = SplitSpec(task="link", train_fraction=args.train_fraction,
                     repeats=args.repeats, seed=cfg.seed)
    split_log: list = []
    report = link_prediction_eval(ds, cfg, spec, split_log=split_log)
    _write_reports(args, report, cfg=cfg, splits=split_log, started=started)
    return EXIT_OK


def cmd_eval_pair(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    h = load_matrix(args.embeddings) if args.embeddings else None
    spec = SplitSpec(task="pair", train_fraction=args.train_fraction,
                     repeats=args.repeats, seed=cfg.seed)
    report = pairwise_eval(ds, cfg, spec, h=h)
    _write_reports(args, report, cfg=cfg, started=started)
    return EXIT_OK


def _write_reports(args: argparse.Namespace, report, cfg: MVGEConfig | None = None,
                   splits: list | None = None, started: float | None = None) -> None:
    if args.out:
        out = Path(args.out)
        names = ["report.json", "repeats.csv"]
        write_json(out / "report.json", report.to_dict())
        _write_csv(out / "repeats.csv", f"repeat,{report.metric}",
                   [(i, repr(s)) for i, s in enumerate(report.scores)])
        if splits is not None:
            write_json(out / "splits.json", splits)
            names.append("splits.json")
        if cfg is not None:
            _write_manifest(out, f"eval-{report.task}", cfg, cfg.seed, args.dataset,
                            started or time.time(), names)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))


def cmd_gridsearch(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = _load_labeled(args, "grid search")
    alpha, beta, table = grid_search_alpha_beta(
        ds, cfg, grid_step=args.grid_step, val_fraction=args.val_fraction
    )
    out = Path(args.out)
    _write_csv(out / "grid.csv", "alpha,beta,score",
               [(repr(a), repr(b), repr(s)) for a, b, s in table])
    best_score = max(s for _, _, s in table)
    write_json(out / "best.json", {"alpha": alpha, "beta": beta, "score": best_score})
    _write_manifest(out, "gridsearch", cfg, cfg.seed, args.dataset, started,
                    ["grid.csv", "best.json"])
    print(f"best alpha={alpha} beta={beta} score={best_score}")
    return EXIT_OK


def cmd_diag(args: argparse.Namespace) -> int:
    base = Path(args.embeddings)
    if base.suffix == ".bin":
        base = base.with_suffix("")
    rows = []
    for view in ("ego", "agg"):
        path = embedding_path(base, view, "binary")
        if not path.is_file():
            raise ValidationError(f"missing per-view embeddings: {path}")
        sig = embedding_dim_std(load_matrix(path))
        rows.extend((view, i, repr(float(s))) for i, s in enumerate(sig))
    if args.out:
        _write_csv(args.out, "view,dim,sigma", rows)
    else:
        print("view,dim,sigma")
        for row in rows:
            print(",".join(str(x) for x in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvge",
        description="Multi-view graph embeddings: train, evaluate, diagnose.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log to stderr: -v at INFO, -vv at DEBUG")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_help: str) -> None:
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("stats", help="homophily report for a dataset directory")
    p.add_argument("dataset")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--local-csv", dest="local_csv",
                   help="also write per-node local homophily to this CSV")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--c", type=int, required=True, help="number of classes")
    p.add_argument("--h", type=float, required=True, help="target homophily")
    p.add_argument("--avg-degree", dest="avg_degree", type=float, default=4.0)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=32)
    p.add_argument("--class-separation", dest="class_separation",
                   type=float, default=1.0)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=1.0)
    common(p, "output dataset directory")
    p.set_defaults(func=cmd_synth, needs_out=True)

    p = sub.add_parser("embed", help="train and write embeddings")
    p.add_argument("dataset")
    _add_config_flags(p)
    p.add_argument("--format", choices=("binary", "csv", "both"), default="both")
    common(p, "output directory")
    p.set_defaults(func=cmd_embed, needs_out=True)

    p = sub.add_parser("eval-node", help="node classification from saved embeddings")
    p.add_argument("dataset")
    p.add_argument("--embeddings", required=True,
                   help="embedding matrix file (.bin or .csv)")
    _add_eval_flags(p)
    common(p, "report directory (stdout only if omitted)")
    p.set_defaults(func=cmd_eval_node)

    p = sub.add_parser("eval-link", help="link prediction (retrains per repeat)")
    p.add_argument("dataset")
    _add_config_flags(p)
    _add_eval_flags(p)
    common(p, "report directory (stdout only if omitted)")
    p.set_defaults(func=cmd_eval_link)

    p = sub.add_parser("eval-pair", help="same-class pair detection")
    p.add_argument("dataset")
    p.add_argument("--embeddings",
                   help="optional embedding matrix file; trains if omitted")
    _add_config_flags(p)
    _add_eval_flags(p)
    common(p, "report directory (stdout only if omitted)")
    p.set_defaults(func=cmd_eval_pair)

    p = sub.add_parser("gridsearch", help="alpha/beta grid search")
    p.add_argument("dataset")
    _add_config_flags(p)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.1)
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.7)
    common(p, "output directory")
    p.set_defaults(func=cmd_gridsearch, needs_out=True)

    p = sub.add_parser("diag", help="per-dimension deviations of saved embeddings")
    p.add_argument("--embeddings", required=True,
                   help="embedding base path written by embed (expects "
                        "BASE.ego.bin and BASE.agg.bin)")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_out", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    if args.verbose:
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("mvge").setLevel(logging.INFO if args.verbose == 1 else logging.DEBUG)
    try:
        return args.func(args)
    except (TrainingDivergedError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
