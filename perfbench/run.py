#!/usr/bin/env python3
"""The repository benchmark: builds the runner, measures, checks, reports.

    python3 perfbench/run.py --workload er-square --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

One run builds `pbs_perfbench` from this checkout's sources (CMake, into
.bench_build/perfbench), measures STREAM in its own process, then runs the
workload in another and prints one line per metric with its unit.  The
last line of stdout is one JSON object: correct, attempted, failed and
the metrics — the end-to-end ones of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1.  Workload parameters live in
workloads.json; metric names and units in BENCHMARK.json.

--self-check runs every workload at a tiny scale with tracing off and on,
and fails unless every named metric is printed with its unit and every
output check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")  # relative to ROOT
BINARY = os.path.join(BUILD, "pbs_perfbench")

BUILD_TIMEOUT_S = 850
STREAM_TIMEOUT_S = 40
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout, env=None, capture=False):
    """Runs cmd from the checkout root and waits for it; stderr passes
    through, stdout is returned (capture) or sent to stderr."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    call(["cmake", "-S", "perfbench", "-B", BUILD,
          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    call(["cmake", "--build", BUILD, "--target", "pbs_perfbench", "-j", jobs],
         BUILD_TIMEOUT_S)


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("runner printed nothing")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, tiny):
    spec = json.load(open(os.path.join(HERE, "workloads.json")))[name]
    params = dict(spec["args"])
    if tiny:
        params.update(spec["tiny"])
    threads = max(1, min(int(params.pop("threads")), os.cpu_count() or 1))
    env = dict(os.environ, OMP_NUM_THREADS=str(threads))

    stream = last_json(call([BINARY, "--stream-mb", "16" if tiny else "0"],
                            STREAM_TIMEOUT_S, env=env, capture=True))

    os.makedirs(os.path.join(ROOT, BUILD, "traces"), exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    cmd = [BINARY, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads), "--stream-gbs", repr(stream["copy_gbs"]),
           "--socket", os.path.join(BUILD, f"{os.getpid()}.sock"),
           "--trace-out", os.path.join(BUILD, "traces", tag + ".jsonl")]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    return stream, last_json(call(cmd, RUN_TIMEOUT_S, env=env, capture=True))


def report(name, trace, stream, res):
    """Prints the context and the metrics by name with units; returns the
    final JSON object."""
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    specs = bench["per_layer" if trace else "end_to_end"]
    attempted, failed = int(res["attempted"]), int(res["failed"])
    measured = dict(res["metrics"])
    measured["ok_frac"] = 1.0 - failed / attempted if attempted else 0.0
    measured["common.stream_copy_gbs"] = stream["copy_gbs"]

    detail = dict(res["detail"])
    detail.update({f"stream.{k}": v for k, v in stream.items()})
    detail["failed_frac"] = failed / attempted if attempted else 1.0
    print(f"# workload {name}, trace {trace}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    for err in res.get("errors", []):
        print(f"# error: {err}")

    metrics, missing = {}, []
    for m in specs:
        if measured.get(m["name"]) is None:  # absent or not finite
            missing.append(m["name"])
            continue
        value = float(measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<32} {value:>16.6g} {m['unit']}")
    if missing:
        raise BenchError("runner reported no finite value for: " +
                         ", ".join(missing))
    correct = bool(res["correct"]) and failed == 0 and attempted > 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_check():
    workloads = json.load(open(os.path.join(HERE, "workloads.json")))
    ok = True
    for name in workloads:
        for trace in (0, 1):
            try:
                stream, res = run_workload(name, 1, 1, trace, tiny=True)
                out = report(name, trace, stream, res)
                good = out["correct"]
            except BenchError as e:
                log(f"self-check {name} trace {trace}: {e}")
                good = False
            print(f"# self-check {name} trace {trace}: "
                  f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.self_check:
            return 0 if self_check() else 1
        if not args.workload:
            ap.error("--workload is required")
        stream, res = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace, tiny=False)
        print(json.dumps(report(args.workload, args.trace, stream, res)))
        return 0
    except (BenchError, KeyError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
