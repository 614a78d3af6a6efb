#!/usr/bin/env python3
"""End-to-end benchmark: the query catalog on seeded attack traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library sources
and the two benchmark programs with CMake into $CARGO_TARGET_DIR (default
.bench_build). Each run then

  1. generates the evaluation trace from --seed and the planner's training
     trace from a different seed, in a generator process (perfbench_gen);
  2. replays the trace through the catalog in the workload's deployment,
     in an engine process of its own (perfbench_engine), which never sees
     the seed. The engine splits the measured loop over several child
     processes and checks every pass against a reference engine;
  3. checks the windows (bit-identity, no partial/shed/late window) and
     scores the detections against the generator's ground truth;
  4. prints every metric with its unit, then one JSON line:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
METRICS.md describes every metric and workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import score  # noqa: E402

WORKLOADS = ("sonata_catalog", "maxdp_fleet", "maxdp_shm")
EVAL_WINDOWS = 10
TRAINING_WINDOWS = 2
# The planner trains on one fixed trace, generated from a seed of its own,
# so every run deploys the same plan and never plans on the traffic it is
# judged on.
TRAINING_SEED = 0x5EED5
# Every ground-truth attack clears its catalog threshold in every window;
# Sonata's refinement may still spend a window or two per level warming up.
MIN_RECALL = 0.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure and build once; later runs only re-check the build."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise RuntimeError("no sonata sources next to perfbench/ (src/ is missing)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)


def run_checked(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    return out


def generate(build_dir, seed, windows, out):
    run_checked([os.path.join(build_dir, "perfbench_gen"), "--seed", str(seed),
                 "--windows", str(windows), "--out", out], timeout=120)


def end_to_end(res, truth, workload):
    setup, n_setup = score.median_with_count(res["setup_s"])
    pps, n_pass = score.median_with_count(res["packets"] / w for w in res["pass_wall_s"])
    close, n_close = score.median_with_count(res["close_ms"])
    what = "window interval" if workload == "maxdp_shm" else "close_window()"
    p90 = statistics.quantiles(res["close_ms"], n=10)[-1] if n_close >= 2 else close
    print(f"samples: setup_s over {n_setup} set-ups, window_pps over {n_pass} passes, "
          f"close_ms over {n_close} windows ({what}): p50 {close:.3f} ms, p90 {p90:.3f} ms")
    return {
        "setup_s": setup,
        "window_pps": pps,
        "close_ms_p50": close,
        "sp_tuples_per_window": res["sp_tuples_per_window"],
        "detection_recall": score.recall(truth, res["detections"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res):
    layers = {k[len("layer."):]: v for k, v in res.items() if k.startswith("layer.")}
    share, ok = score.layer_sum(layers, res["traced_wall_s"])
    print("layers over traced wall %.4f s: %s + unattributed %.4f; sum-to-total %s"
          % (res["traced_wall_s"], ", ".join(f"{k} {v:.4f}" for k, v in layers.items()),
             share * res["traced_wall_s"], "holds" if ok else "FAILS"))
    metrics = {k: v for k, v in res.items() if "." in k and not k.startswith("layer.")}
    metrics["bench.unattributed_share"] = share
    metrics["bench.trace_overhead"] = score.trace_overhead(res["traced_wall_s"],
                                                           res["untraced_wall_s"])
    return metrics, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(root, build_dir)
    except (RuntimeError, subprocess.CalledProcessError, FileNotFoundError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    work = os.path.join(build_dir, "runs", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        evalp, trainp = os.path.join(work, "eval"), os.path.join(work, "train")
        generate(build_dir, args.seed, EVAL_WINDOWS, evalp)
        training_seed = TRAINING_SEED if args.seed != TRAINING_SEED else TRAINING_SEED + 1
        generate(build_dir, training_seed, TRAINING_WINDOWS, trainp)
        with open(evalp + ".truth.json") as f:
            truth = json.load(f)
        out = run_checked([os.path.join(build_dir, "perfbench_engine"),
                           "--workload", args.workload,
                           "--catalog", os.path.join(root, "queries", "catalog.sonata"),
                           "--trace", evalp + ".pcap", "--training", trainp + ".pcap",
                           "--seconds", str(args.seconds), "--traced", str(args.trace),
                           "--shm-dir", work],
                          timeout=170)
        res = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(f"perfbench: run failed: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = res["failed"] == 0 and res["attempted"] > 0
    if args.trace == 0:
        metrics = end_to_end(res, truth, args.workload)
        correct = correct and metrics["detection_recall"] >= MIN_RECALL
    else:
        metrics, sums = per_layer(res)
        correct = correct and sums
    # BENCHMARK.json names every metric a run reports, with its unit.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}

    print(f"workload {args.workload}: {res['packets']} packets, {res['windows']} windows, "
          f"{res['attempted']} windows checked, {res['failed']} failed")
    print("hardware: " + json.dumps(res["hardware"]))
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
