#!/usr/bin/env python3
"""Campaign benchmark runner.

Run from the root of a checkout:

    python3 campaignbench/run.py --workload detect_full --seed 7 \
        --seconds 30 --trace 0

It builds the program and the benchmark (campaignbench/CMakeLists.txt,
into .bench_build/), runs the workload once on the reference engine as
the oracle, then measures it for --seconds seconds.  With --trace 0 it
reports the end-to-end metrics.  With --trace 1 it alternates untraced
reps with reps of the benchmark's traced copy of the shard loop, reports
the per-layer ledger, and writes the last traced rep's spans to
.bench_build/traces/ as Chrome trace JSON.  Every rep's record digest must
equal the oracle's.  The spread report goes to stdout; the last stdout
line is the result object.  Build output goes to stderr.  See
campaignbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
BUILD_DIR = os.path.join(".bench_build", "campaignbench")
OUT_DIR = os.path.join(".bench_build", "out")
TRACE_DIR = os.path.join(".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
KNOWN_ANSWERS = os.path.join(HERE, "known_answers.json")

WORKLOADS = ("detect_full", "sampled_stream", "train_2shard")

# name -> unit, in report order.  failed_frac is printed with the spread
# report; the result object carries it as `failed` / `attempted`.
END_TO_END = {
    "injections_per_s": "1/s",
    "effective_injections_per_s": "1/s",
    "cpu_us_per_injection": "us",
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced copy: name -> unit.
PER_LAYER = {
    "fault.faulted_run_s": "s",
    "fault.faulted_runs": "count",
    "fault.faulted_run_us_p50": "us",
    "fault.faulted_run_us_p99": "us",
    "fault.golden_probe_s": "s",
    "hv.golden_steps": "count",
    "hv.golden_steps_per_s": "1/s",
    "fault.advance_s": "s",
    "fault.draw_s": "s",
    "workloads.next_s": "s",
    "fault.digest_s": "s",
    "fault.record_s": "s",
    "fault.init_s": "s",
    "fault.analytic_frac": "frac",
    "fault.effective_per_record": "ratio",
    "obs.encode_frac": "frac",
    "obs.sink_append_frac": "frac",
    "obs.sink_flush_frac": "frac",
    "obs.checkpoint_frac": "frac",
    "obs.bytes_written": "count",
    "obs.checkpoints": "count",
    "obs.journal_bytes": "count",
    "fault.shard_s_max": "s",
    "fault.shard_imbalance": "ratio",
    "fault.merge_s": "s",
    "ml.train_frac": "frac",
    "ml.train_samples": "count",
    "ml.rules": "count",
    "analysis.analyze_s": "s",
    "hv.build_s": "s",
    "xentry.observe_overhead_us": "us",
    "sim.steps_per_s": "1/s",
    "xentry.side_samples": "count",
    "xentry.detected.hw_exception": "count",
    "xentry.detected.assertion": "count",
    "xentry.detected.transition": "count",
    "xentry.detected.control_flow": "count",
    "xentry.detected.timing": "count",
    "fault.unaccounted_frac": "frac",
    "trace.overhead_frac": "frac",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# -- statistics ---------------------------------------------------------------

def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_line(name, unit, values):
    """Median, quartiles, run count and noise floor (q3 - q1)."""
    q1, q2, q3 = quartiles(values)
    return (f"{name}: median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n={len(values)}  noise_floor {q3 - q1:.3g} {unit}")


# -- correctness --------------------------------------------------------------

def rep_failed(rep, oracle):
    """Failed injections in one rep.

    A rep whose answer differs from the oracle's (record digest, rules
    hash, or undecodable stream) fails all of its injections.  Otherwise
    each record missing against the oracle and each frame the sink
    dropped counts once.  Capped at the rep's attempted injections.
    """
    attempted = rep["attempted"]
    if (rep["digest"] != oracle["digest"]
            or rep["rules_hash"] != oracle["rules_hash"]
            or not rep["decoded_ok"]):
        return attempted
    missing = max(0, oracle["records"] - rep["records"])
    return min(attempted, missing + rep["dropped"])


def known_answer_ok(workload, seed, oracle, table):
    """The oracle must match the pinned digests at the pinned seed."""
    pinned = table.get(workload)
    if pinned is None or seed != table.get("seed"):
        return True
    return (pinned["digest"] == oracle["digest"]
            and pinned["rules_hash"] == oracle["rules_hash"]
            and pinned["records"] == oracle["records"])


# -- metrics ------------------------------------------------------------------

def end_to_end_values(reps, peak_rss_mb):
    """Per-rep values of every end-to-end metric (peak RSS is per process)."""
    vals = {name: [] for name in END_TO_END}
    for r in reps:
        vals["injections_per_s"].append(r["records"] / r["campaign_s"])
        vals["effective_injections_per_s"].append(r["effective"] / r["campaign_s"])
        vals["cpu_us_per_injection"].append(r["cpu_s"] * 1e6 / r["records"])
        vals["setup_s"].append(r["setup_s"])
        vals["total_s"].append(r["total_s"])
    vals["peak_rss_mb"].append(peak_rss_mb)
    return vals


def per_layer_values(untraced, traced):
    vals = {name: [t[name] for t in traced] for name in PER_LAYER
            if name != "trace.overhead_frac"}
    plain = median([r["records"] / r["campaign_s"] for r in untraced])
    with_spans = median([t["traced_injections_per_s"] for t in traced])
    vals["trace.overhead_frac"] = [1.0 - with_spans / plain]
    return vals


# -- running ------------------------------------------------------------------

def build():
    """Configure (cheap when already configured) and build the binary."""
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "campaign_bench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)


def trace_path(workload):
    """Chrome trace JSON of the last traced rep (one file per workload)."""
    return os.path.join(TRACE_DIR, f"{workload}.json")


def run_binary(args, timeout):
    out = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, check=True,
                         timeout=timeout, text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        log(f"campaignbench: build failed: {e}")
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        oracle = run_binary(["--mode", "oracle", "--out-dir",
                             os.path.join(OUT_DIR, "oracle")] + common,
                            timeout=120)[0]
        mode = "traced" if args.trace else "timed"
        extra = []
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            extra = ["--trace-out", trace_path(args.workload)]
        lines = run_binary(["--mode", mode, "--seconds", str(args.seconds),
                            "--out-dir", os.path.join(OUT_DIR, mode)]
                           + extra + common, timeout=args.seconds + 120)
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        log(f"campaignbench: benchmark run failed: {e}")
        return 1

    with open(KNOWN_ANSWERS) as f:
        table = json.load(f)
    untraced = [x for x in lines if x["kind"] == "rep"]
    traced = [x for x in lines if x["kind"] == "traced"]
    process = [x for x in lines if x["kind"] == "process"]
    if not untraced or not process or (args.trace and not traced):
        log("campaignbench: incomplete benchmark output")
        return 1

    answer_ok = known_answer_ok(args.workload, args.seed, oracle, table)
    attempted = failed = 0
    for rep in untraced + traced:
        attempted += rep["attempted"]
        failed += rep["attempted"] if not answer_ok else rep_failed(rep, oracle)
    correct = answer_ok and failed == 0

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"oracle digest {oracle['digest']} records {oracle['records']} "
          f"known-answer {'ok' if answer_ok else 'MISMATCH'}")
    if args.trace:
        print(f"# spans of the last traced rep: "
              f"{trace_path(args.workload)}")
    print(f"failed_frac: {failed / attempted:.6g} frac  "
          f"(failed {failed} of {attempted} injections)")
    if args.trace:
        vals = per_layer_values(untraced, traced)
        units = PER_LAYER
    else:
        vals = end_to_end_values(untraced, process[0]["peak_rss_mb"])
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        print(spread_line(name, unit, vals[name]))
        metrics[name] = {"value": median(vals[name]), "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
