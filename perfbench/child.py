"""One fresh process: set up bcsjj, run one pass of a workload, report.

Usage: python3 perfbench/child.py <workload|setup> <seed> <trace 0|1>

The parent starts this with PYTHONPATH pointing at the checkout's
``src`` and reads the one JSON line it prints.  The first thing done
is ``import bcsjj.cli``; the monotonic clock reading right after it is
the end of set-up; ``setup`` as the workload stops there.  The pass
calls only public entry points: ``bcsjj.cli.main(argv)`` and the
``bcsjj.lattice`` functions.  Its times are taken on the ``pace``
clock and reported at the reference core speed, alongside the raw
wall time.  Every output is checked by ``oracles`` after the pass.
"""

import sys
import time

import bcsjj.cli  # noqa: E402  (set-up is timed up to here)

SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402

import oracles  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BUILD_PROBE_N = 3
PACE = pace.Pace()
now = PACE.now


class Pass:
    """Timings, outputs and failure counts of one workload pass."""

    def __init__(self):
        self.context = None
        self.attempted = 0
        self.failures = []
        self.rows = 0
        self.row_spans = []  # (start, end) of the timed batch calls
        self.point_spans = []  # (start, end) of the timed single calls
        self.emitted = {}  # invocation kind -> rows or points emitted

    def fail(self, messages, what):
        self.attempted += 1
        if messages:
            self.failures.append(f"{what}: {'; '.join(messages)}")

    def cli(self, argv, single=False):
        """(exit code, stdout, (start, end)) of one in-process CLI invocation.

        A ``single`` call is short and timed alone, so no probe may land
        inside it.
        """
        self.context = argv[0]
        buf = io.StringIO()
        with PACE.single() if single else contextlib.nullcontext():
            t0 = now()
            try:
                with contextlib.redirect_stdout(buf):
                    code = bcsjj.cli.main(argv)
            except Exception as exc:  # the pass goes on; the oracle counts it
                print(f"{' '.join(argv[:3])}: {exc!r}", file=sys.stderr)
                code = -1
            t1 = now()
        return code, buf.getvalue(), (t0, t1)

    def count(self, kind, n):
        self.emitted[kind] = self.emitted.get(kind, 0) + n


def run_junction(seed, run):
    spec = workloads.junction(seed)
    outputs = []
    for argv, points in spec["sweeps"]:
        code, text, span = run.cli(argv)
        run.rows += len(points)
        run.row_spans.append(span)
        outputs.append(("sweep", argv, points, code, text))
    for argv, point in spec["points"]:
        code, text, span = run.cli(argv, single=True)
        run.point_spans.append(span)
        outputs.append(("ness", argv, point, code, text))
    return lambda: check_junction(outputs, run)


def check_junction(outputs, run):
    for kind, argv, expected, code, text in outputs:
        what = " ".join(argv[:3])
        if kind == "sweep":
            rows = oracles.parse_csv(text)
            run.count("sweep", len(rows))
            run.fail([f"exit {code}"] if code else [], what)
            run.fail([] if len(rows) == len(expected) else
                     [f"{len(rows)} rows for {len(expected)} points"], what)
            for row in rows:
                run.fail(oracles.check_row(row), what)
        else:
            run.count("ness", 1)
            if code:
                run.fail([f"exit {code}"], what)
                continue
            run.fail(oracles.check_ness(json.loads(text)), what)


def run_certify(seed, run):
    spec = workloads.certify(seed)
    code, suite_text, span = run.cli(spec["check"])
    run.row_spans.append(span)
    outputs = []
    for argv, point in spec["points"]:
        point_code, text, span = run.cli(argv, single=True)
        run.point_spans.append(span)
        outputs.append((point, point_code, text))

    def check():
        results, failures = oracles.check_suite(suite_text)
        run.rows += len(results)
        run.count("check", len(results))
        run.fail([f"exit {code}"] if code else [], "check")
        for line in results:
            run.fail([line] if line.startswith("FAIL ") else [], "check")
        run.fail(failures, "check summary")
        for point, point_code, text in outputs:
            run.count("gap", 1)
            if point_code:
                run.fail([f"exit {point_code}"], "gap")
                continue
            run.fail(oracles.check_gap(json.loads(text), point), "gap")

    return check


def _lattice_operands(params, n):
    from bcsjj import lattice
    from bcsjj.equilibrium import BulkParams, solve_gap
    from bcsjj.ness import JunctionParams

    bulk_i = BulkParams(params["epsilon_I"], params["beta_I"], params["phi_I"])
    bulk_ii = BulkParams(params["epsilon_II"], params["beta_II"], params["phi_II"])
    junction = JunctionParams(bulk_i, bulk_ii, params["gamma"])
    spec = lattice.LatticeSpec(n)
    hamiltonian = lattice.build_hamiltonian(spec, junction)
    current = lattice.build_current(spec, junction.gamma)
    states = ([solve_gap(bulk_i).rho] * spec.sites_per_plate
              + [solve_gap(bulk_ii).rho] * spec.sites_per_plate)
    return hamiltonian, current, states


def run_lattice(seed, run):
    from bcsjj import lattice

    spec = workloads.lattice(seed)
    outputs = []
    for argv in spec["finite_n"]:
        code, text, _ = run.cli(argv)
        outputs.append((argv, code, text))

    run.context = "evolve"
    times = spec["times"]
    h2, j2, states2 = _lattice_operands(spec["params"], 2)
    dense, krylov = [], []
    for t in times[:workloads.DENSE_ROWS]:
        t0 = now()
        dense.append(lattice.time_evolve_expectation(j2, h2, states2, t))
        run.row_spans.append((t0, now()))
        run.rows += 1
    for t in times:
        with PACE.single():
            t0 = now()
            krylov.append(lattice.time_evolve_expectation(j2, h2, states2, t, dense_dim=0))
            run.point_spans.append((t0, now()))
    del h2, j2
    h3, j3, states3 = _lattice_operands(spec["params"], 3)
    big = lattice.time_evolve_expectation(j3, h3, states3, times[0])
    del h3, j3

    def check():
        for argv, code, text in outputs:
            what = " ".join(argv[:3])
            run.count("finite-n", 1)
            if code:
                run.fail([f"exit {code}"], what)
                continue
            run.fail([] if json.loads(text).get("passed") is True else ["not passed"], what)
        for d, k in zip(dense, krylov):
            run.fail(oracles.check_evolution(d, k), "evolve n=2")
        for k in krylov[len(dense):]:
            run.fail(oracles.check_real(k), "evolve n=2 Krylov")
        run.fail(oracles.check_real(big), "evolve n=3 Krylov")
        run.count("evolve", len(dense) + len(krylov) + 1)

    return check


RUNNERS = {"junction": run_junction, "certify": run_certify, "lattice": run_lattice}


class Observed:
    """Counts the traced run takes at layer boundaries."""

    def __init__(self, run):
        self.run = run
        self.solves = 0
        self.iterations = 0
        self.solve_params = set()
        self.solves_by_context = {}
        self.gaps = 0
        self.gap_params = set()
        self.check_seconds = {}

    def attach(self, tracer):
        tracer.observers["ness.solve_ness"] = self.on_solve
        tracer.observers["equilibrium.solve_gap"] = self.on_gap
        tracer.observers["checks.check_*"] = self.on_check

    def on_solve(self, args, kwargs, result, seconds):
        self.solves += 1
        ctx = self.run.context
        self.solves_by_context[ctx] = self.solves_by_context.get(ctx, 0) + 1
        self.iterations += getattr(result, "iterations", 0)
        params = args[0] if args else kwargs.get("params")
        with contextlib.suppress(TypeError):
            self.solve_params.add(params)

    def on_gap(self, args, kwargs, result, seconds):
        self.gaps += 1
        params = args[0] if args else kwargs.get("params")
        with contextlib.suppress(TypeError):
            self.gap_params.add(params)

    def on_check(self, args, kwargs, result, seconds):
        name = getattr(result, "name", None)
        if isinstance(name, str):
            self.check_seconds[name] = self.check_seconds.get(name, 0.0) + seconds


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, observed, run):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    metrics = {}
    for name, (calls, self_s) in tracer.summary().items():
        layer = name.split(".", 1)[0]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{layer}.calls"] = metrics.get(f"{layer}.calls", 0) + calls
        metrics[f"{layer}.self_s"] = metrics.get(f"{layer}.self_s", 0.0) + self_s
    for name, seconds in observed.check_seconds.items():
        metrics[f"checks.{name}.s"] = seconds
    by_ctx = observed.solves_by_context
    emitted = run.emitted
    metrics["ness.iterations_per_solve"] = _ratio(observed.iterations, observed.solves)
    metrics["ness.solves_per_row"] = _ratio(
        by_ctx.get("sweep", 0) + by_ctx.get("ness", 0),
        emitted.get("sweep", 0) + emitted.get("ness", 0))
    metrics["ness.solves_per_point"] = _ratio(by_ctx.get("ness", 0), emitted.get("ness", 0))
    metrics["ness.distinct_solve_ratio"] = _ratio(len(observed.solve_params), observed.solves)
    metrics["equilibrium.distinct_gap_ratio"] = _ratio(len(observed.gap_params), observed.gaps)
    return metrics


def build_probe(tracer, params):
    """tracemalloc peak of building H, Q and J at n = BUILD_PROBE_N.

    Runs after the timed pass, on the unwrapped builders, so it adds no
    spans.  Returns {} when the lattice API no longer fits.
    """
    from bcsjj import lattice
    from bcsjj.equilibrium import BulkParams
    from bcsjj.ness import JunctionParams

    names = ("build_hamiltonian", "build_relative_number", "build_current")
    build = [tracer.originals.get(f"lattice.{name}", getattr(lattice, name, None)) for name in names]
    tracemalloc.start()
    try:
        junction = JunctionParams(
            BulkParams(params["epsilon_I"], params["beta_I"], params["phi_I"]),
            BulkParams(params["epsilon_II"], params["beta_II"], params["phi_II"]),
            params["gamma"],
        )
        spec = lattice.LatticeSpec(BUILD_PROBE_N)
        h = build[0](spec, junction)
        q = build[1](spec)
        j = build[2](spec, junction.gamma)
        peak = tracemalloc.get_traced_memory()[1]
        probe = {
            "lattice.build_peak_mb": peak / 1e6,
            "lattice.estimate_ratio": peak / spec.estimated_bytes,
            "lattice.nnz_h": h.nnz,
        }
        del h, q, j
    except (AttributeError, TypeError, ValueError) as exc:
        print(f"build probe skipped: {exc!r}", file=sys.stderr)
        return {}
    finally:
        tracemalloc.stop()
    return probe


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    if not bcsjj.cli.__file__.startswith(os.environ.get("PERFBENCH_SRC", "\0")):
        raise SystemExit(f"bcsjj imported from {bcsjj.cli.__file__}, not the checkout")
    if workload == "setup":
        print(json.dumps({"setup_done": SETUP_DONE}))
        return
    tracer = observed = None
    run = Pass()
    if trace:
        tracer = spans.Tracer(clock=now)  # spans never include a probe
        observed = Observed(run)
        observed.attach(tracer)
        spans.install(tracer)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        PACE.start()
        t0 = now()
        check = RUNNERS[workload](seed, run)
        t1 = now()
        PACE.stop()
    check()
    report = {
        "setup_done": SETUP_DONE,
        "wall_s": PACE.scaled(t0, t1),
        "raw_wall_s": t1 - t0,
        "speed": PACE.speed(t0, t1),
        "probes": len(PACE.at),
        "rows": run.rows,
        "row_seconds": sum(PACE.scaled(*span) for span in run.row_spans),
        "point_ms": [1e3 * PACE.scaled(*span) for span in run.point_spans],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:5],
        "warnings": len(caught),
    }
    if trace:
        report["layers"] = layer_metrics(tracer, observed, run)
        if workload == "lattice":
            report["layers"].update(build_probe(tracer, workloads.lattice(seed)["params"]))
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
