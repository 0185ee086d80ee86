"""Run one benchmark workload against circlelab and print its metrics.

    python3 perfbench/run.py --workload tail-union --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from ``src/``.
One process, one thread, a closed loop with one client.  Set-up (import,
input generation, standing sets) is repeated over the run, each repeat in
a forked child, and its median reported as ``setup_s``; ``peak_rss_mb``
covers the first set-up and the timed passes of this process only.  The timed loop repeats whole passes over the
seeded operation list until ``--seconds`` have passed.  Every timing is
scaled to a nominal host speed measured by a probe (see ``HostSpeed``).  After the loop every
operation of the first pass is checked against an independent oracle, and
every later pass must reproduce the first pass exactly; a wrong or failed
output counts as a failed operation.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the result holds the per-layer metrics from the traced passes
and the tracing overhead against the untraced ones, and the spans are
written to ``perfbench/out/``.  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import struct
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from spans import PER_LAYER, GcMeter, Tracer  # noqa: E402

# set-ups per run, spread evenly over the run; the median is reported
SETUP_REPEATS = {"tail-union": 15, "set-query": 5, "scans": 15, "maps": 15}

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


# a fixed pure-Python load like the library's (Fraction sorting and sums),
# used to measure how fast the host runs at each moment
_PROBE_DATA = [Fraction(i * 7919 % 1009, 1009) + Fraction(1, i) for i in range(1, 2000)]
PROBE_EVERY_S = 0.2
# timings are reported for a nominal host on which one probe takes this long
NOMINAL_PROBE_S = 0.010


class HostSpeed:
    """Scales timings to a nominal host speed.

    The shared host slows this process by up to 2x for seconds, and by
    10-20 % for whole runs (CPU time slows with wall time).  A ~10 ms probe
    runs before an operation whenever the last probe is older than
    PROBE_EVERY_S, and after each pass.  An operation's slowdown is the
    mean of the probes just before and just after it, over
    NOMINAL_PROBE_S; its timings are divided by that slowdown.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.secs: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        sorted(_PROBE_DATA)
        sum(_PROBE_DATA[:1000], Fraction(0))
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.secs.append(t1 - t0)

    def maybe_probe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def slowdown(self, t0: float, t1: float) -> float:
        """The host's slowdown over [t0, t1], from the probes around it."""
        i = bisect_right(self.ends, t0) - 1
        j = bisect_left(self.ends, t1 + 1e-9)
        around = [self.secs[k] for k in (i, j) if 0 <= k < len(self.secs)]
        return statistics.fmean(around) / NOMINAL_PROBE_S


def set_up(workload: str, seed: int) -> W.Env:
    """Import circlelab afresh from src/, generate the inputs, build standing sets."""
    for name in [k for k in sys.modules if k == "circlelab" or k.startswith("circlelab.")]:
        del sys.modules[name]
    lib = importlib.import_module("circlelab")
    importlib.import_module("circlelab.cli")
    env = W.Env(lib, W.generate(workload, seed))
    if workload == "set-query":
        env.standing = W.standing_sets(lib)
    W.bind(env)
    return env


class SetupTimer:
    """Times set-up repeatedly, spread over the run, each scaled by the host's speed."""

    def __init__(self, workload: str, seed: int, seconds: float, host: HostSpeed):
        self.workload, self.seed, self.host = workload, seed, host
        self.target = SETUP_REPEATS[workload]
        self.every = seconds / self.target
        self.spans: list[tuple[float, float]] = []

    def timed(self) -> W.Env:
        self.host.probe()
        t0 = time.perf_counter()
        env = set_up(self.workload, self.seed)
        t1 = time.perf_counter()
        self.host.probe()
        self.spans.append((t0, t1))
        return env

    def spare(self) -> None:
        """One more timed set-up, in a forked child whose memory stays out of this process's peak.

        The child freezes the inherited heap, so its collections scan only
        what the set-up allocates, as in a fresh process.  It sends back
        the start and end of its set-up; the clock is system-wide.
        """
        self.host.probe()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(r)
                gc.freeze()
                t0 = time.perf_counter()
                set_up(self.workload, self.seed)
                t1 = time.perf_counter()
                os.write(w, struct.pack("dd", t0, t1))
                code = 0
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        self.host.probe()
        if os.waitstatus_to_exitcode(status) != 0 or len(data) != 16:
            raise RuntimeError(f"a repeated set-up failed (status {status})")
        self.spans.append(struct.unpack("dd", data))

    def maybe(self) -> None:
        if len(self.spans) < self.target and time.perf_counter() - self.spans[-1][1] >= self.every:
            self.spare()

    def finish(self) -> None:
        while len(self.spans) < self.target:
            self.spare()

    def times(self) -> list[float]:
        return [(t1 - t0) / self.host.slowdown(t0, t1) for t0, t1 in self.spans]


def run_passes(env: W.Env, seconds: float, tracer: Tracer | None, gc_meter: GcMeter,
               setups: SetupTimer, host: HostSpeed):
    """Whole passes until `seconds` have passed; with a tracer, odd passes are traced.

    Returns one sample (operation, traced, start, end, CPU seconds) per call.
    """
    n = len(env.calls)
    reference: list = [None] * n
    errors = [0] * n
    mismatches = [0] * n
    samples: list[tuple[int, bool, float, float, float]] = []
    passes = 0
    perf, cpu_clock = time.perf_counter, time.process_time
    gc.collect()
    t_start = perf()
    in_setup = 0.0  # spare set-ups between passes do not count against the run length
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        gc_meter.active = tracer is not None and not traced
        for i, call in enumerate(env.calls):
            host.maybe_probe()
            c0, t0 = cpu_clock(), perf()
            try:
                out = tracer.run_op(passes * n + i, call) if traced else call()
            except Exception as exc:  # a crashing operation is a failed one; keep measuring
                out = exc
            t1, c1 = perf(), cpu_clock()
            samples.append((i, traced, t0, t1, c1 - c0))
            if isinstance(out, Exception):
                errors[i] += 1
            elif passes == 0:
                reference[i] = out
            elif out != reference[i]:
                mismatches[i] += 1
        if traced:
            tracer.uninstall()
        gc_meter.active = False
        host.probe()
        passes += 1
        if perf() - t_start - in_setup >= seconds and (tracer is None or passes >= 2):
            break
        t_setup = perf()
        setups.maybe()
        in_setup += perf() - t_setup
    return {
        "passes": passes,
        "reference": reference,
        "errors": errors,
        "mismatches": mismatches,
        "samples": samples,
    }


def check_outputs(env: W.Env, reference: list) -> list[tuple[bool, str] | None]:
    """None for each correct first-pass output, else (wrong answer?, reason).

    An operation that raised or reported an error failed; one that answered
    and got it wrong failed and is wrong.
    """
    checker = W.Checker(env)
    verdicts: list[tuple[bool, str] | None] = []
    for spec, out in zip(env.specs, reference):
        if out is None:
            verdicts.append((False, "raised"))
            continue
        try:
            ok = checker.check(spec, out)
        except W.OpFailed as exc:
            verdicts.append((False, str(exc)))
            continue
        except Exception as exc:  # an output the checks cannot even read is a wrong one
            ok, why = False, f"{type(exc).__name__}: {exc}"
        else:
            why = "wrong output"
        verdicts.append(None if ok else (True, why))
    return verdicts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "circlelab" / "__init__.py").is_file():
        print(f"perfbench: no circlelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    host = HostSpeed()
    setups = SetupTimer(args.workload, args.seed, args.seconds, host)
    env = setups.timed()
    tracer = Tracer() if args.trace else None
    with GcMeter() as gc_meter:
        res = run_passes(env, args.seconds, tracer, gc_meter, setups, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups.finish()
    OUT_DIR.mkdir(exist_ok=True)

    verdicts = check_outputs(env, res["reference"])
    passes, n_ops = res["passes"], len(env.calls)
    attempted = passes * n_ops
    failed = 0
    for i, why in enumerate(verdicts):
        failed += passes if why is not None else res["errors"][i] + res["mismatches"][i]
    correct = not any(v and v[0] for v in verdicts) and not any(res["mismatches"])

    # per operation and pass: latency and CPU time scaled to the host's fast speed
    lat = {False: [[] for _ in range(n_ops)], True: [[] for _ in range(n_ops)]}
    cpu = [[] for _ in range(n_ops)]
    raw = []
    for i, traced, t0, t1, c in res["samples"]:
        slow = host.slowdown(t0, t1)
        lat[traced][i].append((t1 - t0) / slow)
        if not traced:
            cpu[i].append(c / slow)
            raw.append(t1 - t0)
    typical = [statistics.median(v) for v in lat[False]]
    pooled = [t for v in lat[False] for t in v]
    setup_times = setups.times()
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": n_ops,
        "passes": passes,
        "setup_s_each": setup_times,
        "failures": {str(env.specs[i]): v[1] for i, v in enumerate(verdicts) if v},
        "probe": {"count": len(host.secs), "min_s": min(host.secs), "median_s": statistics.median(host.secs)},
        "reference": {
            "latency_p90_s": statistics.quantiles(pooled, n=10)[8] if len(pooled) > 1 else pooled[0],
            "unscaled_ops_per_s": len(raw) / sum(raw),
            "unscaled_latency_p50_s": statistics.median(raw),
            "unscaled_latency_p90_s": statistics.quantiles(raw, n=10)[8] if len(raw) > 1 else raw[0],
        },
        "per_op_s": {str(spec): t for spec, t in zip(env.specs, typical)},
    }

    if args.trace:
        traced_typical = [statistics.median(v) for v in lat[True]]
        metrics = tracer.per_layer(n_ops)
        metrics["runtime.gc_s"] = gc_meter.seconds / len(raw)
        metrics["runtime.gc_collections"] = gc_meter.collections / len(raw)
        metrics["trace.overhead_pct"] = 100 * (sum(traced_typical) / sum(typical) - 1)
        units = dict(PER_LAYER)
        tracer.write_csv(OUT_DIR / f"trace-{args.workload}-{args.seed}.csv")
    else:
        metrics = {
            "ops_per_s": n_ops / sum(typical),
            "latency_p50_s": statistics.median(pooled),
            "cpu_s_per_op": statistics.fmean(statistics.median(v) for v in cpu),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = dict(END_TO_END)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    summary["result"] = result
    (OUT_DIR / f"result-{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"{args.workload} seed={args.seed}: {passes} passes x {n_ops} ops, failed {failed}/{attempted}, "
        f"latency p90 {summary['reference']['latency_p90_s']:.4g} s (reference only)",
        file=sys.stderr,
    )
    for k, v in summary["failures"].items():
        print(f"  FAILED {k}: {v}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
