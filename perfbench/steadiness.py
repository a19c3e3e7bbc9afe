"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--seeds 1-10]

Every workload of ``BENCHMARK.json`` runs once per seed for its
``run_seconds``.  For every workload and end-to-end metric it prints the
median of the per-seed values and the spread, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from ``BENCHMARK.json``.  It also prints the
share of failed operations.  Raw results are appended to
``.perfbench_out/steadiness.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys

import common


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = common.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(common.BENCH_DIR / "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=common.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            with open(out_dir / "steadiness.jsonl", "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed,
                                     **result}) + "\n")
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{name}: {len(results)} runs, all correct {correct}, "
              f"failed shares {shares}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results
                      if metric in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:15s} median {statistics.median(values):.6g} "
                  f"spread {(q3 - q1) / med:.4f} bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
