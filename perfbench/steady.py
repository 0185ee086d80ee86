"""Steadiness check: run each workload k times and report the spread of every metric.

    python3 perfbench/steady.py -k 10 --seed-base 100

Every workload of BENCHMARK.json is run k times, each run a separate
process of ``perfbench/run.py`` with its own seed (seed-base,
seed-base + 1, ...) and the run length from BENCHMARK.json.
For each end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and that spread against the metric's bound from
BENCHMARK.json.  It also prints the share of failed operations.  The raw
results go to ``perfbench/out/steady-<seed-base>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", type=int, default=10, help="runs per workload")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for j in range(args.k):
            runs.append(run_once(workload, args.seed_base + j, bench["run_seconds"]))
            print(f"{workload} run {j + 1}/{args.k}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {args.k} runs, failed share(s) {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<16}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{bound:>7.2f}{spread / bound:>14.2f}")
        report[workload] = {"runs": runs, "metrics": rows}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.seed_base}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nlargest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
