#!/usr/bin/env python3
"""Build and run the repository benchmark (bench/auxbench).

One run of one workload (the form BENCHMARK.json names):

    python3 bench/auxbench/run.py --workload ingest_serial --seed 7 \
        --seconds 10 --trace 0

prints `METRIC <workload> <name> <value> <unit>` lines and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}; with
--trace 1 the metrics are the per-layer set and the run also writes
trace_<workload>.json and layers_<workload>.txt under build-auxbench/.

A suite (no --workload): every workload --reps times in fresh processes with
one fixed --seed, medians and quartiles per metric, a check that the serial
workloads' modeled metrics are bit-identical across reps, and a results
JSON (--out):

    python3 bench/auxbench/run.py                      # 4 workloads x 3 reps
    python3 bench/auxbench/run.py --trace              # + 1 traced rep each
    python3 bench/auxbench/run.py --smoke              # ~10% sizes, gates only
    python3 bench/auxbench/run.py --compare A.json B.json

The build goes to build-auxbench/ at the repository root.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-auxbench"
BINARY = BUILD / "auxbench"
RUN_TIMEOUT_S = 170

# Workloads whose modeled clock is fully deterministic (one writer, one
# maintenance thread, one dispatch thread): their modeled metrics must be
# bit-identical across reps of one seed.
SERIAL = ("ingest_serial", "query_secondary", "service_mixed")
MODELED = ("modeled_ops_per_s", "modeled_mean_us", "modeled_p99_us",
           "max_rate_ops_per_s", "write_amp", "space_amp")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the auxbench target; output to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no engine sources under {ROOT}; cannot build the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "--target", "auxbench",
                "-j", jobs]
    for attempt in range(2):
        if attempt == 1:
            # A cache from another source location cannot be reused.
            shutil.rmtree(BUILD, ignore_errors=True)
        if not (BUILD / "CMakeCache.txt").is_file():
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                continue
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return
    fail("build failed")


def run_once(workload, seed, seconds, trace=False, scale=1.0):
    """Runs the binary once; returns its result dict (exit code 2 -> abort)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", str(scale)]
    if trace:
        cmd += ["--trace", "--trace-dir", str(BUILD)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        fail(f"{workload}: benchmark exited with {p.returncode}")
    result = json.loads(lines[-1])
    if p.returncode == 1 or not result["correct"]:
        result["correct"] = False
    return result


def units(spec, kind):
    return {m["name"]: m["unit"] for m in spec[kind]}


def metric_values(result, spec, kind):
    """The result's metrics of one kind, in BENCHMARK.json order."""
    src = result["end_to_end" if kind == "end_to_end" else "per_layer"]
    out = {}
    for m in spec[kind]:
        if m["name"] not in src:
            fail(f"benchmark did not report {m['name']}")
        out[m["name"]] = src[m["name"]]
    return out


def write_layer_table(workload, result, spec):
    u = units(spec, "per_layer")
    path = BUILD / f"layers_{workload}.txt"
    with open(path, "w") as f:
        f.write(f"# per-layer metrics, workload {workload}, seed "
                f"{result['seed']}, {result['rounds']} rounds\n")
        for name, v in metric_values(result, spec, "per_layer").items():
            f.write(f"{name:40s} {v:>18.6g} {u[name]}\n")
    print(f"per-layer table: {path}", file=sys.stderr)


def single(args, spec):
    """The BENCHMARK.json command: one workload, one run."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names}")
    build()
    trace = bool(args.trace)
    result = run_once(args.workload, args.seed, args.seconds, trace=trace)
    kind = "per_layer" if trace else "end_to_end"
    if not result["correct"]:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        fail(f"{args.workload}: correctness gate failed: {result['gate']}", 1)
    u = units(spec, kind)
    values = metric_values(result, spec, kind)
    if trace:
        write_layer_table(args.workload, result, spec)
    for name, v in values.items():
        print(f"METRIC {args.workload} {name} {v!r} {u[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u[n]} for n, v in values.items()},
    }))


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def host_meta():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [cxx, "--version"], stdout=subprocess.PIPE,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def suite(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    for w in chosen:
        if w not in names:
            fail(f"unknown workload {w}")
    build()

    if args.smoke:
        ok = True
        for w in chosen:
            r = run_once(w, args.seed, 0, scale=0.1)
            print(f"SMOKE {w} {'ok' if r['correct'] else 'FAILED: ' + r['gate']}")
            ok = ok and r["correct"]
        sys.exit(0 if ok else 1)

    e2e_units = units(spec, "end_to_end")
    out = {"meta": dict(host_meta(), seed=args.seed, reps=args.reps,
                        seconds=args.seconds, vary_seed=args.vary_seed),
           "workloads": {}}
    status = 0
    for w in chosen:
        runs = []
        for rep in range(args.reps):
            seed = args.seed + rep if args.vary_seed else args.seed
            r = run_once(w, seed, args.seconds)
            if not r["correct"]:
                fail(f"{w}: correctness gate failed: {r['gate']}", 1)
            runs.append(r)
            print(f"{w} rep {rep}: seed={seed} rounds={r['rounds']}",
                  file=sys.stderr)
        metrics = {}
        for name, unit in e2e_units.items():
            metrics[name] = dict(summarize([r["end_to_end"][name] for r in runs]),
                                 unit=unit)
            print(f"METRIC {w} {name} {metrics[name]['median']!r} {unit}")
        entry = {"runs": runs, "metrics": metrics,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        if w in SERIAL and not args.vary_seed:
            for name in MODELED + ("modeled_total_us",):
                vals = {r["end_to_end"].get(name, r.get(name)) for r in runs}
                if len(vals) != 1:
                    print(f"NONDETERMINISTIC {w} {name}: {sorted(vals)}")
                    status = 1
        if args.trace:
            t = run_once(w, args.seed, args.seconds, trace=True)
            if not t["correct"]:
                fail(f"{w}: traced run failed its gate: {t['gate']}", 1)
            write_layer_table(w, t, spec)
            untraced = metrics["norm_host_ops_per_s"]["median"]
            overhead = 1 - t["per_layer"]["trace.norm_host_ops_per_s"] / untraced
            entry["traced"] = t
            entry["trace_overhead"] = overhead
            print(f"TRACE {w} overhead {overhead * 100:.1f}% of norm_host_ops_per_s")
            if w in SERIAL:
                same = t["modeled_total_us"] == runs[0]["modeled_total_us"]
                print(f"TRACE {w} modeled_total_us traced={t['modeled_total_us']!r}"
                      f" untraced={runs[0]['modeled_total_us']!r}"
                      f" {'match' if same else 'MISMATCH'}")
                status = status if same else 1
        out["workloads"][w] = entry

    path = Path(args.out) if args.out else BUILD / "results.json"
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"results: {path}", file=sys.stderr)
    sys.exit(status)


def better_of(a, b, direction):
    return b < a if direction == "lower" else b > a


# A `better` verdict needs at least this many runs on each side: with fewer,
# every run of one side beating every run of the other happens by chance.
MIN_RUNS_FOR_GAIN = 10


def compare(args, spec):
    with open(args.compare[0]) as f:
        base = json.load(f)["workloads"]
    with open(args.compare[1]) as f:
        new = json.load(f)["workloads"]
    worse = False
    print(f"{'workload':18s} {'metric':20s} {'A median':>14s} {'B median':>14s}"
          f" {'B q1':>12s} {'B q3':>12s} {'change':>8s} {'bound':>6s} verdict")
    for w in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name, bound, direction = m["name"], m["bound"], m["better"]
            a, b = base[w]["metrics"][name], new[w]["metrics"][name]
            change = (b["median"] - a["median"]) / abs(a["median"]) \
                if a["median"] else 0.0
            regress = change if direction == "lower" else -change
            spread = max(a["spread"], b["spread"])
            dominates = all(better_of(x, y, direction)
                            for x in a["values"] for y in b["values"])
            enough = min(len(a["values"]), len(b["values"])) >= MIN_RUNS_FOR_GAIN
            if spread > bound and not dominates:
                verdict = "unresolved"
            elif regress > bound:
                verdict = "worse"
                worse = True
            elif enough and dominates and -regress > spread:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{w:18s} {name:20s} {a['median']:14.6g} {b['median']:14.6g}"
                  f" {b['q1']:12.6g} {b['q3']:12.6g} {change * 100:7.2f}%"
                  f" {bound:6.2f} {verdict}")
        ra = base[w]["failed"] / max(1, base[w]["attempted"])
        rb = new[w]["failed"] / max(1, new[w]["attempted"])
        if rb > ra:
            print(f"{w:18s} failed_op_ratio rose {ra:.6f} -> {rb:.6f}: worse")
            worse = True
    sys.exit(1 if worse else 0)


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run one workload once")
    p.add_argument("--workloads", help="suite: comma-separated subset")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   help="per-layer traced run (suite: one extra rep each)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--vary-seed", action="store_true",
                   help="suite: rep i uses seed + i (spread across inputs)")
    p.add_argument("--smoke", action="store_true",
                   help="suite: ~10%% sizes, correctness gates only")
    p.add_argument("--out", help="suite: results JSON path")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        compare(args, spec)
    elif args.workload:
        single(args, spec)
    else:
        suite(args, spec)


if __name__ == "__main__":
    main()
