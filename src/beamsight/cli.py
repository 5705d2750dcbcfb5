"""Command-line entry point.

Subcommands: simulate, build-dataset, train, eval, handoff-eval,
run-experiment.  Exit codes: 0 success, 1 usage error, 2 data error,
3 numeric failure.

Heavy imports happen inside the command handlers so the global
``--threads`` flag can cap each process's BLAS thread pool before numpy
loads; results are identical at any fixed thread count.  The seed pass
may run basestation 2's half in a second process (``pipeline``), and
scoring may run every other chunk of windows on a second thread
(``predictor``), both under one CPU rule (``config.cpu_workers``); the
outputs are identical at any process or thread count.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .errors import BeamsightError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsight",
                     description="Vision-aided blockage prediction and "
                                 "proactive handoff, at desk scale.")
    parser.add_argument("--threads", type=int, default=None,
                        help="bound BLAS threads per process (fixed count keeps runs reproducible)")
    parser.add_argument("--verbose", action="store_true", help="log stage progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a world trace")
    p.add_argument("--config", required=True, help="scenario config (INI)")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True, help="trace output directory")

    p = sub.add_parser("build-dataset", help="turn a trace into labeled sequence datasets")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quota", type=int, default=None,
                   help="pivotal and non-pivotal sequences per camera")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument("--config", default=None,
                   help="optional INI providing the [dataset] section")

    p = sub.add_parser("train", help="train the predictor or the beam-only baseline")
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", required=True, choices=["bimodal", "beam-only"])
    p.add_argument("--config", default=None, help="INI providing the [train] section")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", default=None, help="optional per-epoch metrics CSV")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="summary CSV (siblings get suffixes)")

    p = sub.add_parser("handoff-eval", help="evaluate proactive handoff on conjugate pairs")
    p.add_argument("--ckpt1", required=True, help="basestation 1 model")
    p.add_argument("--ckpt2", required=True, help="basestation 2 model")
    p.add_argument("--pairs", required=True,
                   help="pairs.ndrec (the bs1, then the bs2 window columns) inside its "
                        "dataset directory, beside frames.cols and manifest.json")
    p.add_argument("--out", required=True, help="CSV mirroring the handoff table")
    p.add_argument("--label", default="model", help="row label in the CSV")

    p = sub.add_parser("run-experiment", help="full pipeline with one config")
    p.add_argument("--config", required=True, help="experiment config (INI)")
    p.add_argument("--out", required=True, help="artifact directory")
    return parser


def _cap_threads(count: int) -> None:
    if count < 1:
        raise UsageError("--threads must be >= 1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(count)


def _cmd_simulate(args) -> int:
    from .config import load_scenario_config
    from .experiment import simulate_stage

    cfg = load_scenario_config(args.config)
    simulate_stage(cfg, args.frames, args.out)
    print(f"trace written to {args.out}")
    return EXIT_OK


def _cmd_build_dataset(args) -> int:
    from .config import DatasetConfig, load_dataset_config
    from .experiment import build_dataset_stage

    ds_cfg = load_dataset_config(args.config) if args.config else DatasetConfig()
    ds_cfg = replace(ds_cfg, **{k: v for k, v in (("quota", args.quota), ("seed", args.seed))
                                if v is not None})
    manifest = build_dataset_stage(args.trace, args.out, ds_cfg)
    counts = manifest["counts"]
    print(f"dataset written to {args.out}: "
          f"{counts['windows']} windows, {counts['pairs']} conjugate pairs")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .config import TrainConfig, load_train_config
    from .experiment import train_stage

    cfg = load_train_config(args.config) if args.config else TrainConfig()
    meta = train_stage(args.dataset, args.mode, cfg, args.out, args.history)
    print(f"checkpoint written to {args.out} "
          f"(best val top-1 {meta['best_val_top1']:.4f} at epoch {meta['best_epoch']})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .experiment import eval_stage

    rep, meta = eval_stage(args.ckpt, args.dataset, args.out)
    recall = "undefined" if rep.recall is None else f"{rep.recall:.4f}"
    print(f"{meta['mode']}: top-1 {rep.top1:.4f}, recall {recall} "
          f"over {rep.n_samples} samples; tables at {args.out}")
    return EXIT_OK


def _cmd_handoff_eval(args) -> int:
    from .experiment import handoff_stage

    rep = handoff_stage(args.ckpt1, args.ckpt2, args.pairs, args.out, args.label)

    def show(v):
        return "n/a" if v is None else f"{v:.4f}"

    print(f"handoff accuracy: 1->2 {show(rep.category1_accuracy)} "
          f"({rep.category1_count} pairs), "
          f"2->1 {show(rep.category2_accuracy)} ({rep.category2_count} pairs)")
    return EXIT_OK


def _cmd_run_experiment(args) -> int:
    from .config import load_experiment_config
    from .experiment import run_experiment

    cfg = load_experiment_config(args.config)
    manifest = run_experiment(cfg, args.out)
    for mode in ("bimodal", "beam-only"):
        stage = manifest["stages"][f"eval-{mode}"]
        print(f"{mode}: val top-1 {stage['top1']:.4f}")
    print(f"artifacts in {args.out}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "build-dataset": _cmd_build_dataset,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "handoff-eval": _cmd_handoff_eval,
    "run-experiment": _cmd_run_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None:
            _cap_threads(args.threads)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except BeamsightError as exc:
        # stage failures carry their own context; a numeric cause maps as itself
        print(f"error: {exc}", file=sys.stderr)
        numeric = any(isinstance(e, NumericError) for e in (exc, getattr(exc, "cause", None)))
        return EXIT_NUMERIC if numeric else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
