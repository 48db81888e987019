"""The bcsjj benchmark: one seeded workload, several fresh children.

    python3 perfbench/run.py --workload junction --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json (medians over the children; times of the
pass at the reference core speed, see pace.py); ``--trace 1``
alternates untraced and traced children and prints the per-layer
metrics.  The last stdout line is the result JSON.  See
perfbench/README.md for the workloads, metrics and oracles.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1
MIN_CHILDREN = 3
SETUP_ONLY_CHILDREN = 4  # extra set-up samples, so every run has at least 7
DEADLINE_S = 170.0  # the whole run must end well within 180 s


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC + os.sep
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def commit_hash():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit_hash(),
    }


def run_child(workload, seed, trace, env, timeout):
    """Start one child, wait for it, return its report with setup_s added.

    ``workload`` "setup" stops the child right after set-up.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), str(int(trace))]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_done"] - t_spawn
    report["child_s"] = time.monotonic() - t_spawn
    report["traced"] = trace
    return report


def end_to_end(reports, setups):
    """Medians over the children; latency percentiles over all their calls."""
    def median(key):
        return statistics.median(key(r) for r in reports)

    point_ms = [ms for r in reports for ms in r["point_ms"]]

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda r: r["wall_s"]),
        "rows_per_s": median(lambda r: r["rows"] / r["row_seconds"]),
        "point_p50_ms": statistics.median(point_ms),
        "point_p90_ms": statistics.quantiles(point_ms, n=10)[-1],
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }


def per_layer(reports, declared):
    traced = [r for r in reports if r["traced"]]
    plain = [r for r in reports if not r["traced"]]
    metrics = {}
    for name in declared:
        values = [r["layers"].get(name, 0) for r in traced]
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bcsjj", "cli.py")):
        print(f"error: no bcsjj sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = child_env()
    started = time.monotonic()
    # Compile the sources once so every measured child imports from bytecode.
    subprocess.run([sys.executable, "-c", "import bcsjj.cli"], cwd=ROOT, env=env,
                   check=True, timeout=DEADLINE_S)

    setups = [run_child("setup", args.seed, False, env, DEADLINE_S)["setup_s"]
              for _ in range(SETUP_ONLY_CHILDREN)]
    reports = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        enough = len(reports) >= MIN_CHILDREN and (
            not args.trace or len({r["traced"] for r in reports}) == 2)
        if enough and elapsed + longest > args.seconds:
            break
        trace = bool(args.trace) and len(reports) % 2 == 1
        reports.append(run_child(args.workload, args.seed, trace, env,
                                 timeout=max(1.0, DEADLINE_S - elapsed)))
        longest = max(longest, reports[-1]["child_s"])

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        declared = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
        metrics = per_layer(reports, declared)
    else:
        metrics = end_to_end(reports, setups + [r["setup_s"] for r in reports])

    print("environment: " + json.dumps(environment()))
    if args.workload == "junction":
        print("census: " + json.dumps(workloads.census(args.seed)))
    print(f"children: {len(reports)}, point samples: {sum(len(r['point_ms']) for r in reports)}, "
          f"warnings: {sum(r['warnings'] for r in reports)}")
    print(f"raw (unscaled) wall_s median {statistics.median(r['raw_wall_s'] for r in reports)!r} s, "
          f"core speed median {statistics.median(r['speed'] for r in reports)!r}, "
          f"probes per pass {statistics.median(r['probes'] for r in reports)}")
    print(f"failed_frac {failed / attempted if attempted else 1.0!r} ratio")
    for r in reports:
        for message in r["failures"]:
            print(f"failure: {message}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
