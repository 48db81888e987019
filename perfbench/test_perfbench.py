"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

They need no bcsjj: the span arithmetic runs on a synthetic tree and
on a toy package, the row oracle on a row solved here with the
oracle's own algebra, and the pace scaling on synthetic probes.
"""

import cmath
import math
import sys
import types

import oracles
import pace
import spans
import workloads


def test_self_times_on_synthetic_tree():
    # root 0..10 with children 1 (1..4) and 2 (5..9); 1 has child 3 (2..3)
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 4.0, 1.0]


def test_tracer_summary_sums_self_time_per_function():
    tracer = spans.Tracer()
    tracer.names = ["a.f", "b.g"]
    for fn, par, t0, t1 in ((0, -1, 0.0, 5.0), (1, 0, 1.0, 2.0), (1, 0, 3.0, 4.5)):
        tracer.func.append(fn)
        tracer.parent.append(par)
        tracer.start.append(t0)
        tracer.end.append(t1)
    assert tracer.summary() == {"a.f": (1, 2.5), "b.g": (2, 2.5)}


def _toy_package(monkeypatch):
    pkg = types.ModuleType("toypkg")
    pkg.__path__ = []
    core = types.ModuleType("toypkg.core")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "def _private(x):\n    return x\n",
        core.__dict__,
    )
    for func in (core.inner, core.outer, core._private):
        func.__module__ = "toypkg.core"
    front = types.ModuleType("toypkg.front")
    front.outer = core.outer                       # a `from .core import outer` binding
    front.TABLE = (("run", core.outer), ("id", core._private))
    pkg.outer = core.outer
    monkeypatch.setitem(sys.modules, "toypkg", pkg)
    monkeypatch.setitem(sys.modules, "toypkg.core", core)
    monkeypatch.setitem(sys.modules, "toypkg.front", front)
    monkeypatch.setattr(spans, "_layer_modules", lambda package: [pkg, core, front])
    return pkg, core, front


def test_install_wraps_every_binding_and_nests_spans(monkeypatch):
    pkg, core, front = _toy_package(monkeypatch)
    tracer = spans.Tracer()
    seen = []
    tracer.observers["core.out*"] = lambda args, kwargs, result, seconds: seen.append(result)
    spans.install(tracer, "toypkg")
    assert front.outer is core.outer is pkg.outer is front.TABLE[0][1]
    assert front.TABLE[1][1].__name__ == "_private" and not hasattr(front.TABLE[1][1], "__wrapped_span__")
    assert front.TABLE[0][1](1) == 4
    assert pkg.outer(2) == 6
    summary = tracer.summary()
    assert summary["core.outer"][0] == 2 and summary["core.inner"][0] == 2
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert "core._private" not in summary
    assert seen == [4, 6]


def _solved_row(gamma=1e-3, eps=(0.3, 0.2), beta=1e4, phi=(0.4, -0.3)):
    """A junction row whose contact values are the oracle's own fixed point."""
    lams = []
    for e in eps:
        lo, hi = e, 0.5
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if math.tanh(beta * mid) > 2.0 * mid else (lo, mid)
        lams.append(math.sqrt((0.5 * (lo + hi)) ** 2 - e * e))
    bulk = [cmath.rect(lam, p) for lam, p in zip(lams, phi)]
    blochs = [oracles.bulk_bloch(e, beta, lam, p) for e, lam, p in zip(eps, lams, phi)]
    contact = list(bulk)
    for _ in range(200):
        contact = [
            oracles.contact_sigma_plus(blochs[0], eps[0], bulk[0] + gamma * contact[1]),
            oracles.contact_sigma_plus(blochs[1], eps[1], bulk[1] + gamma * contact[0]),
        ]
    row = {"gamma": gamma, "converged": "true", "residual": 1e-16}
    for k, side in enumerate(("I", "II")):
        row.update({
            f"epsilon_{side}": eps[k], f"beta_{side}": beta, f"phi_{side}": phi[k],
            f"lambda_{side}": lams[k], f"lambda_t_{side}": abs(contact[k]),
            f"phi_t_{side}": cmath.phase(contact[k]),
        })
    return row


def test_row_oracle_accepts_a_solved_row():
    assert oracles.check_row(_solved_row()) == []


def test_row_oracle_catches_shifted_lambda_t():
    row = _solved_row()
    row["lambda_t_I"] += 1e-3
    failures = oracles.check_row(row)
    assert any("contact I fixed-point" in f for f in failures)


def test_row_oracle_catches_unconverged_and_large_residual():
    row = _solved_row()
    row.update(converged="false", residual=1e-9)
    assert len(oracles.check_row(row)) == 2


def test_generators_are_seeded():
    assert workloads.junction(3) == workloads.junction(3)
    assert workloads.junction(3) != workloads.junction(4)
    assert workloads.lattice(5) == workloads.lattice(5)
    assert workloads.certify(6) == workloads.certify(6)


def test_junction_stays_in_the_weak_contact_regime():
    spec = workloads.junction(11)
    points = [p for _, pts in spec["sweeps"] for p in pts] + [p for _, p in spec["points"]]
    assert len(points) == sum(workloads.SWEEP_ROWS.values()) + workloads.NESS_POINTS
    for p in points:
        assert p["gamma"] <= 0.1 * min(p["epsilon_I"], p["epsilon_II"])
    census = workloads.census(11)
    assert census["distinct"] == 1.0 and 0.0 < census["normal_plate"] < 0.5


def test_pace_scales_by_the_probes_around_an_interval():
    p = pace.Pace()
    # probes at t = 0, 1, 2: idle, twice as slow in both kernels, idle
    p.at = [0.0, 1.0, 2.0]
    p.interpreter = [pace.INTERPRETER_S, 2 * pace.INTERPRETER_S, pace.INTERPRETER_S]
    p.memory = [pace.MEMORY_S, 2 * pace.MEMORY_S, pace.MEMORY_S]
    assert math.isclose(p.speed(0.95, 1.05), 0.5)
    assert math.isclose(p.scaled(0.95, 1.05), 0.05)
    assert math.isclose(p.speed(-0.05, 0.0), 1.0)
    # the mean over all three probes, per kernel
    assert math.isclose(p.speed(0.0, 2.0), 0.75)
    assert p.speed(5.0, 6.0) == 1.0  # no probe near: raw seconds


def test_pace_clock_excludes_probe_time():
    p = pace.Pace()
    t0 = p.now()
    p.probe()
    p.probe()
    assert len(p.at) == 2 and p.spent >= sum(p.interpreter) + sum(p.memory)
    assert p.now() - t0 < p.spent
