"""Stage-split benchmark of the beamsight pipeline.

    python3 perfbench/run.py --workload seed-pass --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One caller makes each stage call after the previous one returns
(a closed loop).  A run makes its inputs through the package's stage
functions (set-up, repeated and timed in child processes, half of the
passes before the timed part and half after), repeats rounds of the timed
stage calls for ``--seconds``, checks the outputs of the first round,
requires every later round to reproduce their digests, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.
"""

import os

# Fix the BLAS pools before numpy loads: it reads these once, at import.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (loaded before the timed package import)

from tracer import Tracer, tree_bytes

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2   # wall_s is a median over rounds; a traced run needs one of each


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("seed-pass", "train", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up passes FIRST..FIRST+COUNT-1 into a directory, in a child process
    parser.add_argument("--set-up", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, nargs=2, metavar=("FIRST", "COUNT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import beamsight from the checkout's src/ and return the import time."""
    src = ROOT / "src"
    if not (src / "beamsight" / "__init__.py").is_file():
        sys.exit(f"error: no beamsight sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import beamsight.experiment  # noqa: F401  (loads every traced module)
    elapsed = time.perf_counter() - start
    if Path(beamsight.__file__).resolve().parent != src / "beamsight":
        sys.exit(f"error: beamsight imported from {beamsight.__file__}, not {src}")
    return elapsed


def digest(path: Path) -> str:
    """Digest of a directory tree, read in chunks to keep buffers small."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0")
            with p.open("rb") as fh:
                h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def per_layer_spec() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def set_up_passes(workload, work: Path, passes: range, tracer) -> dict:
    """Set-up passes one after another, each timed, after the imports.

    Pass 0 is kept in ``work/setup0`` as the run's inputs; a later pass is
    deleted once digested.  Returns each pass's seconds, traced layers and
    digest.
    """
    result = {"seconds": [], "layers": [], "digests": []}
    for p in passes:
        base = work / f"setup{p}"
        if tracer is not None:
            tracer.begin("setup")
        start = time.perf_counter()
        workload.setup(base)
        result["seconds"].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.begin(None)
            result["layers"].append(tracer.take("setup"))
        result["digests"].append(digest(base))
        if p > 0:
            shutil.rmtree(base)
    return result


class Run:
    def __init__(self, workload, args, work: Path, tracer):
        self.workload = workload
        self.args = args
        self.work = work
        self.tracer = tracer
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []
        self.setup_layers: list[tuple[dict, dict]] = []
        self.setup_digests: list[str] = []
        self.round_times = {False: [], True: []}    # traced? -> seconds per round
        self.round_layers: list[tuple[dict, dict]] = []
        self.round_bytes: list[int] = []

    def _phase(self, phase):
        if self.tracer is not None:
            self.tracer.begin(phase)

    def set_up(self, passes: range) -> Path:
        """Make the inputs once per pass; every pass must agree with pass 0.

        The passes run in one child process, waited for, so that set-up
        memory stays out of ``peak_rss_mb``.
        """
        a = self.args
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", a.workload,
             "--seed", str(a.seed), "--seconds", str(a.seconds),
             "--trace", str(a.trace), "--set-up", str(self.work),
             "--passes", str(passes.start), str(len(passes))],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        self.setup_times += result["seconds"]
        self.setup_layers += [tuple(layers) for layers in result["layers"]]
        self.setup_digests += result["digests"]
        for p, d in zip(passes, result["digests"]):
            if d != self.setup_digests[0]:
                self.problems.append(f"set-up pass {p} differs from pass 0")
        return self.work / "setup0"

    def measure(self, inputs: Path) -> Path:
        """Rounds of the timed operations until --seconds have passed.

        A traced run alternates untraced and traced rounds, so that it can
        report its own overhead.
        """
        ops = self.workload.operations(inputs)
        first_digests: dict[str, str] = {}
        start = time.perf_counter()
        r = 0
        while r < MIN_ROUNDS or time.perf_counter() - start < self.args.seconds:
            traced = self.tracer is not None and r % 2 == 1
            out = self.work / f"round{r}"
            busy = 0.0
            for name, call in ops:
                self.attempted += 1
                self._phase("timed" if traced else None)
                t0 = time.perf_counter()
                try:
                    call(out / name)
                except Exception:
                    self.failed += 1
                    traceback.print_exc()
                    continue
                finally:
                    busy += time.perf_counter() - t0
                    self._phase(None)
                d = digest(out / name)
                if first_digests.setdefault(name, d) != d:
                    self.failed += 1
                    print(f"round {r}: {name} output differs from round 0",
                          file=sys.stderr)
            self.round_times[traced].append(busy)
            self.round_bytes.append(tree_bytes(out))
            if traced:
                self.round_layers.append(self.tracer.take("timed"))
            if r > 0:
                shutil.rmtree(out)
            r += 1
        return self.work / "round0"

    def end_to_end(self, peak: float) -> dict:
        return {
            "wall_s": (statistics.median(self.round_times[False]), "s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mb": (peak, "MB"),
            "artifact_mb": (statistics.median(self.round_bytes) / 1e6, "MB"),
        }

    def per_layer(self, import_s: float) -> dict:
        """The per-layer metrics that BENCHMARK.json names.

        ``<function>.s`` is a span's self time and ``<function>.calls`` a
        call count; other names are counters.  A value is per round of the
        timed part when the timed part calls the function, and otherwise per
        set-up pass: the median over traced rounds or passes, 0 when the
        function is never called.
        """
        def value(name, index=None):
            for samples in (self.round_layers, self.setup_layers):
                got = [counts.get(name, 0) if index is None
                       else stats.get(name, (0, 0.0))[index] for stats, counts in samples]
                if any(got):
                    return statistics.median(got)
            return 0

        special = {
            "beamsight.import.s": import_s,
            "trace.overhead_s": statistics.median(self.round_times[True])
            - statistics.median(self.round_times[False]),
        }
        metrics = {}
        for spec in per_layer_spec():
            name = spec["name"]
            if name in special:
                v = special[name]
            elif name.endswith(".s"):
                v = value(name.removesuffix(".s"), 1)
            elif name.endswith(".calls"):
                v = value(name.removesuffix(".calls"), 0)
            else:
                v = value(name)
            metrics[name] = (v, spec["unit"])
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    from workloads import WORKLOADS
    logging.basicConfig(level=logging.ERROR)   # quota shortfalls are expected
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer({m["name"].removesuffix(".s") for m in per_layer_spec()
                         if m["name"].endswith(".s")})
        tracer.install()
    if args.set_up is not None:
        first, count = args.passes
        print(json.dumps(set_up_passes(workload, args.set_up,
                                       range(first, first + count), tracer)))
        return 0
    work = ROOT / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, args, work, tracer)
        # half the set-up passes before the timed part and half after, so
        # that setup_s samples the machine over the whole run, as wall_s does
        passes = workload.recipe.setup_passes
        inputs = run.set_up(range((passes + 1) // 2))
        outputs = run.measure(inputs)
        peak = peak_rss_mb()
        if passes > 1:
            run.set_up(range((passes + 1) // 2, passes))
        try:
            run.problems += run.workload.check(inputs, outputs)
        except Exception as exc:   # an output the readers reject fails the check
            traceback.print_exc()
            run.problems.append(f"outputs could not be read back: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = run.per_layer(import_s) if args.trace else run.end_to_end(peak)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
