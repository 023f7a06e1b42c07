#!/usr/bin/env python3
"""The repository benchmark's command (see perfbench/README.md).

Builds perfbench/ (the simulator library, the figure generators,
micro_components and the regless_bench program) into .bench_build/ at
the checkout root, runs one workload and prints one JSON result as the
last line of standard output:

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 35 --trace 0

Other modes:

    python3 perfbench/run.py --selftest        # golden check + build guard
    python3 perfbench/run.py --steadiness      # two sets of runs vs bounds
    python3 perfbench/run.py --record-golden   # rewrite perfbench/golden/

Every number is host time of the simulator (or a count); simulated
results are only checked, against perfbench/golden/.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BENCH = BUILD / "regless_bench"
GOLDEN = HERE / "golden"
WORKLOADS = ("report_cold", "report_warm")
DEFAULT_SEED = 1  # the seed perfbench/golden/chip.stats was recorded with
# --steadiness: sets of runs, and runs (one seed each) per workload and set
STEADINESS_SETS = 2
STEADINESS_RUNS = 10

# micro_components results mapped onto layer metric names; the time of
# each benchmark is reported in its own time_unit.
MICRO = {
    "BM_CompilerPipeline": ("compiler.pipeline_us", "us"),
    "BM_LivenessAnalysis": ("compiler.liveness_us", "us"),
    "BM_OsuAllocateErase": ("regless.osu_alloc_erase_ns", "ns"),
    "BM_OsuReclaimPath": ("regless.osu_reclaim_ns", "ns"),
    "BM_CompressorMatch": ("regless.compressor_match_ns", "ns"),
}
UNIT_SCALE = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

_child = None


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(cmd, **kwargs):
    """subprocess.run that a SIGTERM to this script also stops."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        out, err = _child.communicate()
    finally:
        if _child.poll() is None:
            _child.kill()
            _child.wait()
    code = _child.returncode
    _child = None
    return code, out, err


def on_sigterm(signum, frame):
    """Stop the child too; a terminated run.py child stops its own."""
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def build():
    """Configure once, then build; progress goes to stderr."""
    for needed in ("src/CMakeLists.txt", "bench/CMakeLists.txt",
                   "bench/figures/figures.hh"):
        if not (ROOT / needed).exists():
            log(f"run.py: {needed} is missing: not a RegLess checkout")
            sys.exit(2)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _, _ = run_child(cmd, stdout=sys.stderr)
        if code:
            log("run.py: cmake configure failed")
            sys.exit(2)
    jobs = str(len(os.sched_getaffinity(0)))
    code, _, _ = run_child(["cmake", "--build", str(BUILD), "-j", jobs],
                           stdout=sys.stderr)
    if code:
        log("run.py: build failed")
        sys.exit(2)


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def metadata():
    """Stamped on every result: what was measured, and on what."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        code, out, _ = run_child(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
        if code == 0:
            commit = out.strip()
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    code, out, _ = run_child([compiler or "c++", "--version"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    if code == 0 and out:
        compiler = out.splitlines()[0]
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "regless_sanitize": cmake_cache("REGLESS_SANITIZE"),
        "loadavg_at_start": os.getloadavg()[0],
    }


def micro_metrics():
    """Layer metrics from the already-built micro_components."""
    binary = BUILD / "regless_figures" / "micro_components"
    pattern = "^(" + "|".join(MICRO) + ")(/|$)"
    code, out, _ = run_child(
        [str(binary), "--benchmark_format=json",
         f"--benchmark_filter={pattern}", "--benchmark_min_time=0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if code:
        raise RuntimeError("micro_components failed")
    times = {}
    for bench in json.loads(out)["benchmarks"]:
        base = bench["name"].split("/")[0]
        seconds = bench["real_time"] * UNIT_SCALE[bench["time_unit"]]
        times.setdefault(base, []).append(seconds)
    metrics = {}
    for base, (name, unit) in MICRO.items():
        # CompressorMatch runs three value patterns; report their mean.
        mean = statistics.fmean(times[base])
        metrics[name] = {"value": mean / UNIT_SCALE[unit], "unit": unit}
    return metrics


def run_workload(args):
    build()
    meta = metadata()
    work = BUILD / f"work-{os.getpid()}"
    cmd = [str(BENCH), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--golden", str(GOLDEN),
           "--work", str(work)]
    try:
        code, out, _ = run_child(cmd, stdout=subprocess.PIPE, text=True)
        if code:
            log(f"run.py: regless_bench exited with {code}")
            sys.exit(1)
        lines = out.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        if args.trace:
            result["metrics"].update(micro_metrics())
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            for trace in work.glob("trace-*.json"):
                json.loads(trace.read_text())  # must be valid JSON
                shutil.move(str(trace), traces / trace.name)
                lines = [line.replace(str(trace), str(traces / trace.name))
                         for line in lines]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


def bench_mode(flag):
    """--selftest or --record-golden, passed through to regless_bench."""
    build()
    code, _, _ = run_child([str(BENCH), flag, "--golden", str(GOLDEN)])
    sys.exit(code)


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med, med


def steadiness():
    """Two sets of runs of this checkout; each end-to-end metric's
    spread (quartile distance over median) and the drift between the
    sets' medians, against the bound BENCHMARK.json fixes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    build()
    sets = []
    for s in range(STEADINESS_SETS):
        values = {w: {} for w in names}
        for w in names:
            for i in range(STEADINESS_RUNS):
                seed = 1000 * (s + 1) + i
                code, out, _ = run_child(
                    [sys.executable, str(Path(__file__)), "--workload", w,
                     "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    stdout=subprocess.PIPE, text=True)
                result = json.loads(out.rstrip("\n").split("\n")[-1]) \
                    if code == 0 else {"correct": False}
                if not result["correct"]:
                    log(f"run.py: {w} seed {seed} failed")
                    sys.exit(1)
                for name, metric in result["metrics"].items():
                    values[w].setdefault(name, []).append(metric["value"])
                log(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()))
        sets.append(values)
    ok = True
    print(f"{'workload':12} {'metric':20} {'bound':>6} " + " ".join(
        f"{'spread' + str(s + 1):>8}" for s in range(STEADINESS_SETS)) +
        f" {'drift':>8}  verdict")
    for w in names:
        for name, spec_m in bounds.items():
            spreads, medians = zip(*(quartile_spread(v[w][name])
                                     for v in sets))
            drift = (medians[-1] - medians[0]) / medians[0]
            worse = drift if spec_m["better"] == "lower" else -drift
            bound = spec_m["bound"]
            steady = all(x <= bound / 3 for x in spreads)
            verdict = "ok" if steady and worse <= bound else "NOT STEADY"
            ok &= verdict == "ok"
            print(f"{w:12} {name:20} {bound:6.3f} " + " ".join(
                f"{x:8.4f}" for x in spreads) + f" {drift:+8.4f}  {verdict}")
    out = BUILD / "steadiness.json"
    out.write_text(json.dumps({"meta": metadata(), "runs": sets}, indent=1))
    print(f"# raw values: {out}")
    sys.exit(0 if ok else 1)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        bench_mode("--selftest")
    elif args.record_golden:
        bench_mode("--record-golden")
    elif args.steadiness:
        steadiness()
    elif args.workload:
        run_workload(args)
    else:
        parser.error("--workload is required")


if __name__ == "__main__":
    main()
