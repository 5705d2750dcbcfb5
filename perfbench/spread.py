"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workloads seed-pass train replay --seeds 1-10

Runs are made one after another from the root of the checkout.  The spread
is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Every
result line is saved to ``perfbench/results/<workload>-trace<t>-<time>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["seed-pass", "train", "replay"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    (HERE / "results").mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(seed=seed, process_s=time.perf_counter() - start)
            results.append(result)
            print(f"{workload} seed {seed}: {proc.stdout.strip().splitlines()[-1]} "
                  f"({result['process_s']:.1f} s)", flush=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        out = HERE / "results" / f"{workload}-trace{args.trace}-{stamp}.json"
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"{workload}: correct {all(r['correct'] for r in results)}, "
              f"failed {sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)}, "
              f"longest run {max(r['process_s'] for r in results):.1f} s")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:40s} median {median:.6g}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"  spread {(q3 - q1) / median:.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
