"""Command-line interface.

Subcommands: ``gen-data`` (synthetic dataset), ``train`` (both phases +
test metrics), ``predict`` (write predictions JSONL), ``eval`` (metric
battery for a run or an external predictions file), and ``sweep``
(train/evaluate across a lambda grid and select the best point).

The training commands, ``train`` and ``sweep``, accept ``--config FILE``
with flat ``key = value`` lines; explicit command-line flags override
file values. They persist their resolved configuration into the run
directory before any work starts, so a run is reproducible from its
artifacts alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from functools import partial
from multiprocessing import get_context
from pathlib import Path

from . import metrics, pipeline
from .data import (
    SUBTOKEN_MODES,
    DataError,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_jsonl,
    read_json_objects,
    write_dataset,
)
from .losses import WEIGHTING_MODES
from .models import ModelOptions
from .pipeline import (
    FIELD_TYPES,
    PipelineError,
    TrainConfig,
    coerce_config,
    dump_flat_config,
    parse_flat_config,
)

logger = logging.getLogger("etp.cli")

# a sweep point's validation metrics, by their MetricsReport names
REPORT_COLUMNS = ["macro_f1", "token_f1", "iou_f1", "auprc", "comprehensiveness", "sufficiency"]
SWEEP_COLUMNS = ["lambda", *REPORT_COLUMNS, "criterion", "error"]


def _train_config(args) -> TrainConfig:
    """Resolve TrainConfig from defaults, then config file, then flags."""
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    mapping = parse_flat_config(text)
    known = set(TrainConfig.__dataclass_fields__)
    ignored = sorted(set(mapping) - known)
    if ignored:
        logger.warning("config keys that are not training options are ignored: %s", ", ".join(ignored))
    mapping = {k: v for k, v in mapping.items() if k in known}
    overrides = {k: getattr(args, k) for k in known if getattr(args, k, None) is not None}
    try:
        cfg = coerce_config(TrainConfig, mapping, **overrides)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    return cfg.validate()


# what a TrainConfig field does not say about its flag: a spelling other
# than the field's name, a fixed value set, and a help string
FLAG_NAMES = {"lam": "--lambda", "learning_rate": "--lr", "subtoken_mode": "--subtokens"}
FLAG_CHOICES = {"head": ModelOptions.HEADS, "exp_weighting": WEIGHTING_MODES,
                "subtoken_mode": SUBTOKEN_MODES}
FLAG_HELP = {"lam": "explanation loss weight", "threshold": "hard-rationale score threshold"}


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; an unset flag leaves the config
    file's value or the field's default."""
    for f in fields(TrainConfig):
        flag = FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=FIELD_TYPES[f.type], default=None,
                       choices=FLAG_CHOICES.get(f.name), help=FLAG_HELP.get(f.name))


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        logger.error("output directory %s is not empty (use --force to overwrite)", out)
        return 1
    spec = SyntheticSpec(
        vocab_size=args.vocab,
        num_classes=args.classes,
        doc_len=(args.doc_len[0], args.doc_len[1]),
        phrase_len=(args.phrase_len[0], args.phrase_len[1]),
        distractor_rate=args.distractor_rate,
        pair_task=args.pair_task,
        seed=args.seed if args.seed is not None else 0,
    )
    splits, label_map = generate_synthetic(spec, args.n, args.n_val, args.n_test)
    write_dataset(out, splits, label_map)
    logger.info(
        "wrote %s (%d/%d/%d instances)",
        out,
        len(splits["train"]),
        len(splits["val"]),
        len(splits["test"]),
    )
    return 0


# ---------------------------------------------------------------------------
# train


def _run_one(data_dir, run_dir, cfg: TrainConfig):
    dataset = load_dataset(data_dir)
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    snapshot = dump_flat_config(cfg) + f"data = {data_dir}\n"
    (run_dir / "config.txt").write_text(snapshot, encoding="utf-8")
    state = pipeline.run_pipeline(dataset, cfg)
    val_report = pipeline.evaluate(state, dataset.splits["val"])
    test_report = None
    if dataset.splits.get("test"):
        test_instances = dataset.splits["test"]
        results = pipeline.infer_many(state, test_instances)
        test_report = pipeline.score_results(state, test_instances, results)
        pipeline.write_predictions(run_dir / "predictions.jsonl", state, results)
    pipeline.save_run(run_dir, state, test_report)
    (run_dir / "val_metrics.json").write_text(val_report.to_json(), encoding="utf-8")
    return state, val_report, test_report


def cmd_train(args) -> int:
    cfg = _train_config(args)
    _, val_report, test_report = _run_one(args.data, args.out, cfg)
    shown = test_report if test_report is not None else val_report
    split = "test" if test_report is not None else "val"
    logger.info(
        "%s macro F1 %.4f, token F1 %.4f, IOU F1 %.4f, AUPRC %.4f",
        split,
        shown.macro_f1,
        shown.token_f1,
        shown.iou_f1,
        shown.auprc,
    )
    return 0


# ---------------------------------------------------------------------------
# predict / eval


def _load_eval_instances(data_path, label_map=None):
    """(instances, label map) of one JSONL split; the map defaults to the split's own."""
    data_path = Path(data_path)
    if data_path.is_dir():
        raise DataError(f"--data must point at a JSONL split file, got directory {data_path}")
    return load_jsonl(data_path, label_map)


def cmd_predict(args) -> int:
    state = pipeline.load_run(args.run)
    instances, _ = _load_eval_instances(args.data, state.label_map)
    results = pipeline.infer_many(state, instances)
    pipeline.write_predictions(args.out, state, results)
    logger.info("wrote %d predictions to %s", len(results), args.out)
    return 0


def read_predictions(path) -> dict[str, dict]:
    out = {}
    for lineno, obj in read_json_objects(path):
        for key in ("id", "rationale"):
            if key not in obj:
                raise DataError(f"{path}:{lineno}: missing field {key!r}")
        uid = obj["id"]
        if not isinstance(uid, str):
            raise DataError(f"{path}:{lineno}: 'id' must be a string")
        if uid in out:
            raise DataError(f"{path}:{lineno}: duplicate id {uid!r}")
        out[uid] = obj
    return out


def _score_predictions(instances, preds: dict, label_map, state=None) -> metrics.MetricsReport:
    """Rationale-scorer mode: metric battery over an external predictions
    file. Faithfulness metrics are included only when a trained run is
    supplied alongside."""
    missing = [inst.uid for inst in instances if inst.uid not in preds]
    if missing:
        raise DataError(f"predictions file lacks ids: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    faith = None if state is None else partial(pipeline.faithfulness, state, instances)
    records = [preds[inst.uid] for inst in instances]
    return pipeline.score_report(instances, records, label_map, faith)


def cmd_eval(args) -> int:
    if args.run is None and args.predictions is None:
        logger.error("eval needs --run and/or --predictions")
        return 1
    state = pipeline.load_run(args.run) if args.run else None
    instances, label_map = _load_eval_instances(args.data, state.label_map if state else None)
    if args.predictions:
        report = _score_predictions(instances, read_predictions(args.predictions), label_map, state)
    else:
        report = pipeline.evaluate(state, instances)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(report.to_json(), encoding="utf-8")
    (out / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
    logger.info("macro F1 %.4f, token F1 %.4f", report.macro_f1, report.token_f1)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _point_dir(out, lam: float) -> Path:
    """The run directory of a sweep's point at ``lam``."""
    return Path(out) / f"lambda_{lam:g}"


def _sweep_point(cfg: TrainConfig, data, out, criterion: str, index: int, lam: float) -> dict:
    """Train the ``index``-th grid point, ``lam``, with seed ``cfg.seed + index``
    into its run directory under ``out``; its sweep.csv row."""
    cfg = replace(cfg, lam=lam, seed=cfg.seed + index)
    try:
        _, val_report, _ = _run_one(data, _point_dir(out, lam), cfg)
    except Exception as exc:  # failure of one point must not kill the sweep
        logger.exception("lambda=%g failed: %s", lam, exc)
        return {"lambda": lam, "error": str(exc)}
    exp_metric = val_report.auprc if criterion == "auprc" else val_report.token_f1
    return {
        "lambda": lam,
        **{c: getattr(val_report, c) for c in REPORT_COLUMNS},
        "criterion": metrics.lambda_criterion(val_report.macro_f1, exp_metric),
    }


def cmd_sweep(args) -> int:
    cfg = _train_config(args)
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    if not grid:
        logger.error("empty lambda grid")
        return 1
    out = Path(args.out)
    taken = {}  # run directory -> the grid point that writes it
    for lam in grid:
        replace(cfg, lam=lam).validate()
        run_dir = _point_dir(out, lam)
        if run_dir in taken:
            raise ValueError(
                f"lambda {taken[run_dir]!r} and {lam!r} share the run directory {run_dir}"
            )
        taken[run_dir] = lam
    out.mkdir(parents=True, exist_ok=True)
    point = partial(_sweep_point, cfg, args.data, out, args.criterion)
    if args.workers > 1:
        # the points fill every core: one BLAS thread per worker unless the user set a count
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, "1")
        spawn = get_context("spawn")
        # a spawned worker starts with unconfigured logging; give it the parent's
        with ProcessPoolExecutor(
            args.workers, spawn, initializer=_configure_logging, initargs=(args.verbose,)
        ) as pool:
            rows = list(pool.map(point, range(len(grid)), grid))
    else:
        rows = list(map(point, range(len(grid)), grid))

    csv_path = out / "sweep.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        # restval leaves a failed point's metric cells and a scored point's error empty
        writer = csv.DictWriter(fh, SWEEP_COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: v if c == "error" else repr(v) for c, v in row.items()})
    scored = [r for r in rows if "error" not in r]
    if not scored:
        logger.error("every sweep point failed")
        return 1
    best = max(scored, key=lambda r: r["criterion"])
    (out / "selected.json").write_text(
        json.dumps({"lambda": best["lambda"], "criterion": best["criterion"]}, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    logger.info("selected lambda=%g (criterion %.4f)", best["lambda"], best["criterion"])
    if args.plot:
        _plot_sweep(scored, out / "sweep.svg")
    return 0


def _plot_sweep(rows: list[dict], path: Path) -> None:
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        logger.error("--plot needs matplotlib (pip install etp[plot])")
        raise SystemExit(1)
    lams = [r["lambda"] for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    for key in ("macro_f1", "token_f1", "criterion"):
        ax.plot(lams, [r[key] for r in rows], marker="o", label=key)
    ax.set_xscale("log")
    ax.set_xlabel("lambda")
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)
    logger.info("wrote %s", path)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="etp", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic planted-rationale dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=2000, help="training instances")
    p.add_argument("--n-val", type=int, default=None)
    p.add_argument("--n-test", type=int, default=None)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--vocab", type=int, default=200)
    p.add_argument("--doc-len", nargs=2, type=int, default=[20, 40], metavar=("LO", "HI"))
    p.add_argument("--phrase-len", nargs=2, type=int, default=[3, 5], metavar=("LO", "HI"))
    p.add_argument("--distractor-rate", type=float, default=0.3)
    p.add_argument("--pair-task", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run both training phases and evaluate")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predictions for a JSONL split")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="metric battery for a run and/or predictions file")
    p.add_argument("--run", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train across a lambda grid and select the best")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="0.1,1,10,100", help="comma-separated lambda values")
    p.add_argument("--criterion", choices=["token_f1", "auprc"], default="token_f1")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plot", action="store_true")
    p.add_argument("--config", default=None)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _configure_logging(verbose: bool) -> None:
    """The log level and format of etp and of its sweep workers."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except (DataError, PipelineError, ValueError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
