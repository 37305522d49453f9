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
    write_csv,
    write_json,
)
from mvge.evaluate import (
    SplitSpec,
    grid_search_alpha_beta,
    link_prediction_eval,
    node_classification_eval,
    pairwise_eval,
)
from mvge.graph import ValidationError
from mvge.homophily import MAX_BINS, homophily_report
from mvge.model import (
    MVGEConfig,
    TrainingDivergedError,
    adjacency_workers,
    embedding_dim_std,
    train,
)
from mvge.numerics import blas_info, usable_cpus
from mvge.synth import SynthSpec, generate_synthetic

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


def _resolve_config(args: argparse.Namespace) -> MVGEConfig:
    """defaults < --config JSON < explicit flags, then validate."""
    d = _config_to_dict(MVGEConfig())
    if getattr(args, "config", None):
        overlay = read_json_object(args.config, "config")
        # a run manifest doubles as a config via its resolved_config block
        overlay = overlay.get("resolved_config", overlay)
        if not isinstance(overlay, dict):
            raise ValidationError(f"resolved_config in {args.config} must be a JSON object")
        unknown = set(overlay) - set(d)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        d.update(overlay)
    d.update(_given(MVGEConfig, args))
    try:
        return MVGEConfig(**d)
    except (TypeError, ValueError) as exc:  # ValidationError, or a wrong JSON type
        where = f"bad value in config {args.config}: " if getattr(args, "config", None) else ""
        raise ValidationError(f"{where}{exc}") from None


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _out_dir(text: str) -> str:
    if not text:  # "" would write into the current directory
        raise argparse.ArgumentTypeError("an empty path is not an output directory")
    return text


# how a setting flag parses, by its field's annotation; str fields take choices
_PARSERS = {"int": int, "float": float, "float | None": float,
            "tuple[int, ...]": _int_list, "frozenset[str]": _str_list}
_FLAG_NAMES = {"num_nodes": "--n", "num_classes": "--c", "target_homophily": "--h"}


def _add_fields(p: argparse.ArgumentParser, spec, skip: tuple[str, ...] = ()) -> None:
    """One flag per field of the dataclass ``spec`` outside ``skip``: parsed per its annotation,
    limited to its choices, required if it has no default, else None when left out. --help
    shows each default (the value if ``spec`` is an instance) and rule."""
    for f in [f for f in dataclasses.fields(spec) if f.name not in skip]:
        default = getattr(spec, f.name, dataclasses.MISSING)
        if isinstance(default, (tuple, frozenset)):
            default = ",".join(map(str, sorted(default)))
        required = default is dataclasses.MISSING
        notes = [] if required else [f"default: {default}"]
        if "rule" in f.metadata:
            notes.append(f"must be {f.metadata['rule'][1]}")
        p.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                       dest=f.name, type=_PARSERS.get(f.type), choices=f.metadata.get("choices"),
                       required=required, help="; ".join(notes) or None)


def _given(spec, args: argparse.Namespace) -> dict:
    """The fields of ``spec`` whose flags were given."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(spec)
            if getattr(args, f.name, None) is not None}


def _spec(cls, args: argparse.Namespace, **fixed):
    """``cls`` from the flags given for its fields, with ``fixed`` over them."""
    return cls(**{**_given(cls, args), **fixed})


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
        write_csv(args.local_csv, "node,local_homophily", rows)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    started = time.time()
    spec = _spec(SynthSpec, args)
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
    write_csv(out / "trace.csv", "epoch,l_ego,l_agg,l_s,l_total",
              [(i, repr(a), repr(b), repr(c), repr(d)) for i, a, b, c, d in trace.rows()])
    names = [p.name for p in written] + ["trace.csv"]
    _write_manifest(out, "embed", cfg, cfg.seed, args.dataset, started, names)
    print(f"embedded {ds.num_nodes} nodes into width {emb.h.shape[1]} at {out}")
    return EXIT_OK


def cmd_eval_node(args: argparse.Namespace) -> int:
    ds = _load_labeled(args, "node evaluation")
    h = load_matrix(args.embeddings)
    spec = _spec(SplitSpec, args, task="node")
    report = node_classification_eval(h, ds.labels, spec)
    _write_reports(args, report)
    return EXIT_OK


def cmd_eval_link(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    spec = _spec(SplitSpec, args, task="link", seed=cfg.seed)
    split_log: list = []
    report = link_prediction_eval(ds, cfg, spec, split_log=split_log)
    _write_reports(args, report, cfg=cfg, splits=split_log, started=started)
    return EXIT_OK


def cmd_eval_pair(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = _resolve_config(args)
    ds = load_dataset(args.dataset)
    h = load_matrix(args.embeddings) if args.embeddings else None
    spec = _spec(SplitSpec, args, task="pair", seed=cfg.seed)
    report = pairwise_eval(ds, cfg, spec, h=h)
    _write_reports(args, report, cfg=cfg, started=started)
    return EXIT_OK


def _write_reports(args: argparse.Namespace, report, cfg: MVGEConfig | None = None,
                   splits: list | None = None, started: float | None = None) -> None:
    if args.out:
        out = Path(args.out)
        names = ["report.json", "repeats.csv"]
        write_json(out / "report.json", report.to_dict())
        write_csv(out / "repeats.csv", f"repeat,{report.metric}",
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
    write_csv(out / "grid.csv", "alpha,beta,score",
              [(repr(a), repr(b), repr(s)) for a, b, s in table])
    best_score = max(s for _, _, s in table)
    write_json(out / "best.json", {"alpha": alpha, "beta": beta, "score": best_score})
    _write_manifest(out, "gridsearch", cfg, cfg.seed, args.dataset, started,
                    ["grid.csv", "best.json"])
    print(f"best alpha={alpha} beta={beta} score={best_score}")
    return EXIT_OK


def cmd_diag(args: argparse.Namespace) -> int:
    base = Path(args.embeddings)
    fmt = "csv" if base.suffix == ".csv" else "binary"
    if base.suffix in (".bin", ".csv"):
        base = base.with_suffix("")
    rows = []
    for view in ("ego", "agg"):
        path = embedding_path(base, view, fmt)
        if not path.is_file():
            raise ValidationError(f"missing per-view embeddings: {path}")
        sig = embedding_dim_std(load_matrix(path))
        rows.extend((view, i, repr(float(s))) for i, s in enumerate(sig))
    if args.out:
        write_csv(args.out, "view,dim,sigma", rows)
    else:
        print("view,dim,sigma", *(",".join(map(str, row)) for row in rows), sep="\n")
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

    config_help = "JSON config or run manifest to start from"
    report_help = "report directory (stdout only if omitted)"

    p = sub.add_parser("stats", help="homophily report for a dataset directory")
    p.add_argument("dataset")
    p.add_argument("--bins", type=int, default=10,
                   help=f"local-homophily histogram bins, 1 to {MAX_BINS}")
    p.add_argument("--local-csv", dest="local_csv",
                   help="also write per-node local homophily to this CSV")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    _add_fields(p, SynthSpec)
    p.add_argument("--out", required=True, type=_out_dir, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="train and write embeddings")
    p.add_argument("dataset")
    p.add_argument("--config", help=config_help)
    _add_fields(p, MVGEConfig)
    p.add_argument("--format", choices=("binary", "csv", "both"), default="both")
    p.add_argument("--out", required=True, type=_out_dir, help="output directory")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval-node", help="node classification from saved embeddings")
    p.add_argument("dataset")
    p.add_argument("--embeddings", required=True,
                   help="embedding matrix file (.bin or .csv)")
    _add_fields(p, SplitSpec("node"), skip=("task",))
    p.add_argument("--out", help=report_help)
    p.set_defaults(func=cmd_eval_node)

    p = sub.add_parser("eval-link", help="link prediction (retrains per repeat)")
    p.add_argument("dataset")
    p.add_argument("--config", help=config_help)
    _add_fields(p, MVGEConfig)
    _add_fields(p, SplitSpec("link"), skip=("task", "seed"))
    p.add_argument("--out", help=report_help)
    p.set_defaults(func=cmd_eval_link)

    p = sub.add_parser("eval-pair", help="same-class pair detection")
    p.add_argument("dataset")
    p.add_argument("--embeddings",
                   help="optional embedding matrix file; trains if omitted")
    p.add_argument("--config", help=config_help)
    _add_fields(p, MVGEConfig)
    _add_fields(p, SplitSpec("pair"), skip=("task", "seed"))
    p.add_argument("--out", help=report_help)
    p.set_defaults(func=cmd_eval_pair)

    p = sub.add_parser("gridsearch", help="alpha/beta grid search")
    p.add_argument("dataset")
    p.add_argument("--config", help=config_help)
    _add_fields(p, MVGEConfig)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.1)
    p.add_argument("--val-fraction", dest="val_fraction", type=float, default=0.7)
    p.add_argument("--out", required=True, type=_out_dir, help="output directory")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("diag", help="per-dimension deviations of saved embeddings")
    p.add_argument("--embeddings", required=True,
                   help="embedding path written by embed: BASE or BASE.bin reads "
                        "BASE.ego.bin and BASE.agg.bin, BASE.csv the .csv views")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_diag)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
