"""Stage breakdown of one desk-scale run-experiment, for scale.

    python3 perfbench/desk.py

Calls ``experiment.run_experiment`` on ``configs/desk.ini`` at one BLAS
thread, with each stage function of ``beamsight.experiment`` wrapped so
that its calls are timed, and prints the time of each stage call, the
dataset size and the peak resident memory.  It takes about four minutes;
its files go to ``perfbench/_work/desk`` and are deleted at the end.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import functools
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from beamsight import experiment  # noqa: E402
from beamsight.config import load_experiment_config  # noqa: E402
from tracer import tree_bytes  # noqa: E402

STAGES = ("simulate_stage", "build_dataset_stage", "train_stage", "eval_stage",
          "handoff_eval")


def _label(name, args) -> str:
    """The stage's name and the mode or checkpoint it runs for."""
    for a in args:
        if isinstance(a, str):
            return f"{name} {a}"
        if isinstance(a, Path) and a.suffix == ".ckpt":
            return f"{name} {a.stem.replace('_', '-')}"
    return name


def _timed(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            print(f"{_label(name, args):32s} {time.perf_counter() - start:8.1f} s",
                  flush=True)
    return wrapper


def main() -> int:
    cfg = load_experiment_config(ROOT / "configs" / "desk.ini")
    out = ROOT / "perfbench" / "_work" / "desk"
    shutil.rmtree(out, ignore_errors=True)
    for name in STAGES:   # run_experiment looks each stage up at call time
        setattr(experiment, name, _timed(name, getattr(experiment, name)))
    try:
        start = time.perf_counter()
        experiment.run_experiment(cfg, out)
        print(f"{'run_experiment':32s} {time.perf_counter() - start:8.1f} s")
        print(f"{'dataset':32s} {tree_bytes(out / 'dataset') / 1e6:8.1f} MB")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(f"{'peak RSS':32s} {peak:8.1f} MB")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
