"""Sweep table contract and command-line behavior."""

import decimal
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcsjj
from bcsjj import cli, lattice, ness, observables, spin, sweep
from bcsjj.checks import CheckResult, run_checks
from bcsjj.equilibrium import BulkParams, critical_beta, gap_root, solve_gap
from bcsjj.ness import JunctionParams, WeakContactWarning
from bcsjj.sweep import (
    CSV_COLUMNS,
    SWEEP_AXES,
    RunConfig,
    SweepRow,
    config_from_mapping,
    evaluate_point,
    params_at,
    render,
    run_sweep,
)

EXPECTED_HEADER = (
    "epsilon_I,epsilon_II,beta_I,beta_II,gamma,phi_I,phi_II,lambda_I,"
    "lambda_II,lambda_t_I,lambda_t_II,phi_t_I,phi_t_II,mu_t_I,mu_t_II,"
    "current,nu_t_I,nu_t_II,ccr_defect_I,ccr_defect_II,residual,converged"
)


def small_config(**overrides):
    base = dict(count=5, gamma=1e-3, format="csv")
    base.update(overrides)
    return config_from_mapping(base)


def test_header_contract():
    assert ",".join(CSV_COLUMNS) == EXPECTED_HEADER
    rows = run_sweep(small_config(count=1))
    text = render(rows, "csv")
    assert text.splitlines()[0] == EXPECTED_HEADER


def test_single_point_sweep():
    rows = run_sweep(small_config(count=1, start=0.4, stop=0.4))
    assert len(rows) == 1
    assert abs(rows[0].phi_II - (-0.4)) < 1e-15  # delta axis sets phi_II


def test_rows_follow_grid_order():
    config = small_config(count=5, start=-1.0, stop=1.0)
    rows = run_sweep(config)
    deltas = [row.phi_I - row.phi_II for row in rows]
    expected = [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(abs(a - b) < 1e-15 for a, b in zip(deltas, expected))


def test_gamma_axis():
    config = small_config(axis="gamma", start=0.0, stop=1e-2, count=3)
    rows = run_sweep(config)
    assert [row.gamma for row in rows] == [0.0, 5e-3, 1e-2]
    assert rows[0].lambda_t_I == pytest.approx(rows[0].lambda_I, abs=1e-11)


# each range crosses a plate's ordering threshold or epsilon = 1/2 where it can
AXIS_RANGES = {
    "delta_phi": (-3.0, 3.0),
    "gamma": (0.0, 1e-2),
    "beta_I": (1.0, 1e4),
    "beta_II": (1.0, 1e4),
    "epsilon_I": (0.1, 0.6),
    "epsilon_II": (0.1, 0.6),
}


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_solves_each_plate_once_on_bloch_vectors(axis, monkeypatch):
    """A sweep takes one bare gap root per distinct (epsilon, beta) plate
    and assembles no 2x2 matrix."""

    def forbidden(*args):
        raise AssertionError("the sweep went through a 2x2 matrix")

    roots = []

    def counted(epsilon, beta):
        roots.append((epsilon, beta))
        return gap_root(epsilon, beta)

    for module in (spin, ness, observables):
        monkeypatch.setattr(module, "_from_bloch", forbidden)
    monkeypatch.setattr(ness, "gap_root", counted)
    start, stop = AXIS_RANGES[axis]
    rows = run_sweep(small_config(axis=axis, start=start, stop=stop, count=7))
    plates = {(r.epsilon_I, r.beta_I) for r in rows} | {(r.epsilon_II, r.beta_II) for r in rows}
    assert len(rows) == 7 and all(r.converged for r in rows)
    assert len(roots) == len(plates) and set(roots) == plates


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_builds_only_the_swept_plate_per_grid_value(axis, monkeypatch):
    """A grid value changes only the swept input column, a list of numbers,
    and builds no parameters: a sweep constructs as many BulkParams and
    JunctionParams (those of the configured point) at 200 points as at 5."""
    built = []

    def counting(init):
        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        return counted

    for cls in (BulkParams, JunctionParams):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    start, stop = AXIS_RANGES[axis]
    counts = []
    for count in (5, 200):
        built.clear()
        run_sweep(small_config(axis=axis, start=start, stop=stop, count=count))
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_render_deterministic():
    rows = run_sweep(small_config())
    assert render(rows, "csv") == render(rows, "csv")
    again = run_sweep(small_config())
    assert render(rows, "csv") == render(again, "csv")


def test_csv_values_round_trip():
    rows = run_sweep(small_config(count=3))
    lines = render(rows, "csv").splitlines()
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    current_col = CSV_COLUMNS.index("current")
    assert float(cells[current_col]) == rows[0].current
    assert cells[-1] in ("true", "false")


NUMBER_COLUMNS = CSV_COLUMNS[:-1]


def reference_csv(rows):
    """render_csv spelled cell by cell: every number through "%.17g"."""
    lines = [EXPECTED_HEADER]
    for row in rows:
        cells = ["%.17g" % getattr(row, col) for col in NUMBER_COLUMNS]
        lines.append(",".join(cells + ["true" if row.converged else "false"]))
    return "\n".join(lines) + "\n"


def table(columns, converged=None):
    """SweepRows whose number columns are ``columns`` (name -> one value per
    row); the other number columns hold 0.25 in every row."""
    count = len(next(iter(columns.values())))
    flags = converged or [True] * count
    return [
        SweepRow(
            **{col: columns[col][k] if col in columns else 0.25 for col in NUMBER_COLUMNS},
            converged=flags[k],
            iterations=3,
        )
        for k in range(count)
    ]


@pytest.mark.parametrize(
    "rows",
    [
        table({"gamma": [1e-3]}),
        [],
        table({"gamma": np.linspace(0.0, -0.0, 2).tolist()}),
        table({"lambda_I": [-0.0, -0.0, -0.0], "lambda_II": [0.0, 0.0, 0.0]}),
        table({"current": [math.nan] * 3, "residual": [math.inf] * 3, "phi_t_I": [-math.inf] * 3}),
        table({"current": [math.nan, 1.0, math.nan], "residual": [math.inf, 1.0, -math.inf]}),
        table({"beta_I": [7.5, 7.5, 7.5, 2.0]}, converged=[True, False, True, True]),
        table({"beta_I": [2.0, 7.5, 7.5, 7.5], "beta_II": [7.5, 7.5, 2.0, 7.5]}),
        table({"epsilon_I": [0.1, 0.1, 0.1, 0.1]}, converged=[False] * 4),
    ],
    ids=[
        "one-row", "no-rows", "zero-and-minus-zero", "signed-zero-columns", "nan-and-inf",
        "nan-and-inf-mixed", "last-differs", "first-or-third-differs", "none-converged",
    ],
)
def test_render_csv_matches_a_per_cell_reference(rows):
    assert render(rows, "csv") == reference_csv(rows)


CELL_POOL = [0.0, -0.0, 0.25, -0.25, 3, 3.0, 1e-300, 0.1 + 0.2, math.nan, math.inf, -math.inf]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), count=st.integers(0, 4))
def test_render_csv_matches_a_per_cell_reference_on_repeated_cells(data, count):
    cells = st.lists(st.sampled_from(CELL_POOL), min_size=count, max_size=count)
    columns = {col: data.draw(cells) for col in NUMBER_COLUMNS}
    flags = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    rows = table(columns, flags) if count else []
    assert render(rows, "csv") == reference_csv(rows)


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_grid_point_changes_only_the_swept_field(axis):
    config = small_config(axis=axis, phi_I=0.7, phi_II=-1.2, epsilon_II=0.2, beta_II=40.0)
    point, value = params_at(config), 0.125
    swept = params_at(config, value)
    if axis == "gamma":
        expected = replace(point, gamma=value)
    elif axis == "delta_phi":
        expected = replace(point, bulk_II=replace(point.bulk_II, phi=config.phi_I - value))
    else:
        field, plate = axis.rsplit("_", 1)
        bulk = f"bulk_{plate}"
        expected = replace(point, **{bulk: replace(getattr(point, bulk), **{field: value})})
    assert swept == expected


def test_json_shape():
    rows = run_sweep(small_config(count=2, format="json"))
    payload = json.loads(render(rows, "json"))
    assert isinstance(payload, list) and len(payload) == 2
    assert list(payload[0].keys()) == list(CSV_COLUMNS)
    assert payload[0]["converged"] is True


def test_frequencies_even_current_odd():
    config = small_config(count=9, start=-math.pi / 2, stop=math.pi / 2)
    rows = run_sweep(config)
    for i in range(len(rows) // 2):
        mirror = rows[len(rows) - 1 - i]
        assert abs(rows[i].nu_t_I - mirror.nu_t_I) < 1e-11
        assert abs(rows[i].nu_t_II - mirror.nu_t_II) < 1e-11
        assert abs(rows[i].current + mirror.current) < 1e-14


def test_config_validation():
    with pytest.raises(ValueError):
        config_from_mapping({"axis": "nonsense"})
    with pytest.raises(ValueError):
        config_from_mapping({"count": 0})
    with pytest.raises(ValueError):
        config_from_mapping({"format": "xml"})
    with pytest.raises(ValueError):
        config_from_mapping({"no_such_key": 1})
    with pytest.raises(ValueError):
        run_sweep(small_config(seed_lambda=(0.1, 0.2, 0.3)))


# ---------------------------------------------------------------- CLI


def run_cli(*argv):
    return cli.main(list(argv))


def test_cli_gap_text(capsys):
    assert run_cli("gap", "--epsilon", "0.3", "--beta", "10000") == 0
    out = capsys.readouterr().out
    # tanh(beta / 2) rounds to 1, so mu = 1/2 is the root itself, and lambda is
    # sqrt(1/4 - epsilon^2) on the float epsilon, correctly rounded
    assert math.tanh(10000 * 0.5) == 1.0
    with decimal.localcontext() as exact:
        exact.prec = 50
        lam = float((decimal.Decimal(0.25) - decimal.Decimal(0.3) ** 2).sqrt())
    assert f"{lam:.17g}" == "0.40000000000000002"
    assert f"superconducting branch: lambda = {lam:.17g}, mu = {0.5:.17g}\n" in out
    assert "criterion" in out


def test_cli_gap_json(capsys):
    assert run_cli("gap", "--epsilon", "0.6", "--beta", "10000", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["superconducting_branch"] is None
    assert payload["critical_beta"] is None
    assert payload["criterion"] < 0.0


def test_cli_gap_warm_point(capsys):
    assert run_cli("gap", "--epsilon", "0.3", "--beta", "2") == 0
    assert "superconducting branch: absent" in capsys.readouterr().out


def test_cli_gap_requires_parameters(capsys):
    assert run_cli("gap", "--epsilon", "0.3") == 2
    capsys.readouterr()


def test_cli_gap_rejects_csv(capsys):
    assert run_cli("gap", "--epsilon", "0.3", "--beta", "10", "--format", "csv") == 2
    capsys.readouterr()


# an ordered plate, a normal one below its threshold, and epsilon >= 1/2 (no threshold)
GAP_PLATES = ((0.3, 1e4, -2.5e-05), (0.3, 2.0, 0.7), (0.6, 1e4, 0.0))


def _gap_reference(epsilon, beta, phi):
    """``gap``'s JSON and text, each built from solve_gap's 2x2 solution
    and dumped with json's indent=2 encoder."""
    sol = solve_gap(BulkParams(epsilon, beta, phi))
    criterion = math.tanh(beta * epsilon) - 2.0 * epsilon
    beta_c = critical_beta(epsilon)
    payload = {
        "epsilon": epsilon,
        "beta": beta,
        "phi": phi,
        "criterion": criterion,
        "critical_beta": beta_c if math.isfinite(beta_c) else None,
        "normal_branch": {"lambda": 0.0, "mu": epsilon},
        "superconducting_branch": {"lambda": sol.lam, "mu": sol.mu} if sol.superconducting else None,
        "fixed_point_defect": sol.residual,
    }
    lines = [
        f"epsilon = {epsilon:.17g}, beta = {beta:.17g}, phi = {phi:.17g}",
        f"branch criterion tanh(beta*epsilon) - 2*epsilon = {criterion:.17g}",
        "critical beta = " + (f"{beta_c:.17g}" if math.isfinite(beta_c) else "none (epsilon >= 1/2)"),
        f"normal branch:          lambda = 0, mu = {epsilon:.17g}",
    ]
    if sol.superconducting:
        lines.append(f"superconducting branch: lambda = {sol.lam:.17g}, mu = {sol.mu:.17g}")
        lines.append(f"fixed-point defect = {sol.residual:.3e}")
    else:
        lines.append("superconducting branch: absent")
    return json.dumps(payload, indent=2) + "\n", "\n".join(lines) + "\n"


def test_cli_gap_prints_the_bytes_of_the_solve_gap_payload(capsys):
    for epsilon, beta, phi in GAP_PLATES:
        flags = ("--epsilon", repr(epsilon), "--beta", repr(beta), "--phi", repr(phi))
        json_text, text = _gap_reference(epsilon, beta, phi)
        assert run_cli("gap", *flags, "--format", "json") == 0
        assert capsys.readouterr().out == json_text, flags
        assert run_cli("gap", *flags) == 0
        assert capsys.readouterr().out == text, flags


def test_cli_gap_builds_no_2x2_matrix(monkeypatch, capsys):
    def forbidden(*args):
        raise AssertionError("gap built a 2x2 matrix")

    for module in (spin, ness, observables):
        monkeypatch.setattr(module, "_from_bloch", forbidden)
    for epsilon, beta, phi in GAP_PLATES:
        flags = ("--epsilon", repr(epsilon), "--beta", repr(beta), "--phi", repr(phi))
        assert run_cli("gap", *flags, "--format", "json") == 0
        assert run_cli("gap", *flags) == 0
    capsys.readouterr()


def test_cli_gap_prints_strict_json(capsys):
    """The criterion's 2 * epsilon overflows at epsilon = 1e308: it prints as null."""
    assert run_cli("gap", "--epsilon", "1e308", "--beta", "1", "--format", "json") == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["criterion"] is None and payload["critical_beta"] is None
    assert payload["superconducting_branch"] is None and payload["fixed_point_defect"] == 0.0


@pytest.mark.filterwarnings("error")
def test_cli_gap_on_a_huge_epsilon_warns_nothing(capsys):
    assert run_cli("gap", "--epsilon", "1e200", "--beta", "1") == 0
    assert "superconducting branch: absent" in capsys.readouterr().out


def test_json_text_is_the_indent_2_dump():
    payloads = [
        {"a": 1.5, "b": None, "c": True, "d": -0.0, "e": 7, "f": 'q"\né'},
        {"a": {"x": 0.1, "y": None}, "b": 2.0, "c": {}, "d": None, "e": {"z": 1e-300}},
        {"only": {"x": 3}},
    ]
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2) + "\n", payload
    for bad in ({"a": math.nan}, {"a": {"x": -math.inf}}):
        with pytest.raises(ValueError):
            cli._json_text(bad)


# flags a subcommand does not read; each must exit 2 whatever its value
# (no subcommand reads --damping: the solver's Newton step needs no knob)
UNREAD_FLAGS = {
    "gap": ("--config", "--tolerance", "--max-iter", "--damping", "--seed-lambda",
            "--seed-phi", "--memory-cap", "--only"),
    "ness": ("--memory-cap", "--only", "--damping"),
    "sweep": ("--memory-cap", "--only", "--damping"),
    "check": ("--config", "--seed-lambda", "--seed-phi", "--damping"),
    "finite-n": ("--tolerance", "--max-iter", "--damping", "--seed-lambda", "--seed-phi",
                 "--only"),
}
FLAG_VALUES = {
    "--config": "run.json", "--tolerance": "1e-12", "--max-iter": "50", "--damping": "0.5",
    "--seed-lambda": "0.1", "--seed-phi": "0.2", "--memory-cap": "1000000000",
    "--only": "equilibrium",
}
REQUIRED = {"gap": ("--epsilon", "0.3", "--beta", "10")}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags],
)
def test_cli_rejects_unread_flags(command, flag, capsys):
    argv = (command, *REQUIRED.get(command, ()), flag, FLAG_VALUES[flag])
    assert run_cli(*argv) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "finite-n"])
def test_cli_text_commands_reject_csv(command, capsys):
    assert run_cli(command, "--format", "csv") == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_cli_parser_reuse_carries_no_state(capsys):
    argv = ("ness", "--gamma", "1e-3", "--phi-i", "0.3")
    cli._build_parser.cache_clear()
    assert run_cli(*argv) == 0
    fresh = capsys.readouterr().out
    cli._build_parser.cache_clear()
    seeded = ("--seed-lambda", "0.1", "0.2", "--seed-phi", "1.0", "--tolerance", "1e-12")
    assert run_cli(*argv, *seeded, "--format", "csv") == 0
    assert capsys.readouterr().out.startswith(EXPECTED_HEADER)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == fresh
    assert cli._build_parser() is cli._build_parser()


def test_cli_config_file_reaches_ness_and_finite_n(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"gamma": 2e-3, "lattice_n": 1, "format": "csv"}))
    assert run_cli("ness", "--config", str(config)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert float(lines[1].split(",")[CSV_COLUMNS.index("gamma")]) == 2e-3
    assert run_cli("finite-n", "--config", str(config), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1 and payload["passed"] is True


def test_cli_finite_n_config_file_picks_json(tmp_path, capsys):
    """The merged config's format decides json or text, not the flag alone."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "json", "lattice_n": 2}))
    assert run_cli("finite-n", "--config", str(config)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2 and payload["passed"] is True
    config.write_text(json.dumps({"lattice_n": 1}))
    assert run_cli("finite-n", "--config", str(config)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize(
    "command, mapping",
    [
        ("ness", {"gamma": "0.001"}),
        ("ness", {"epsilon_I": None}),
        ("ness", {"tolerance": "1e-3"}),
        ("ness", {"max_iter": "3"}),
        ("ness", {"seed_lambda": [0.1, True]}),
        ("sweep", {"count": True}),
        ("finite-n", {"memory_cap": "5"}),
        ("finite-n", {"lattice_n": 1.0}),
        ("ness", {"seed_lambda": [0.1, float("nan")]}),
        ("ness", {"seed_phi": float("-inf")}),
        ("ness", {"epsilon_I": 10**400}),  # an integer no float holds
        ("ness", {"seed_lambda": [0.1, 10**400]}),
    ],
)
def test_cli_rejects_mistyped_config_values(command, mapping, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(mapping))
    assert run_cli(command, "--config", str(config)) == 2
    (key,) = mapping
    assert f"config key {key!r} must be" in capsys.readouterr().err


def test_config_accepts_ints_for_float_fields_and_null_for_optional_ones():
    config = config_from_mapping({"gamma": 0, "start": -1, "memory_cap": None, "output": None})
    assert (config.gamma, config.start, config.memory_cap) == (0, -1, None)
    assert config_from_mapping({"seed_lambda": 1}).seed_lambda == (1.0,)


@pytest.mark.parametrize(
    "key, value", [("gamma", "0.001"), ("count", True), ("max_iter", 3.0), ("seed_phi", "0.1")]
)
def test_run_config_rejects_mistyped_fields_when_built_directly(key, value):
    with pytest.raises(ValueError, match=f"config key {key!r} must be"):
        RunConfig(**{key: value})


def test_run_config_built_directly_takes_ints_for_floats_and_types_its_seeds():
    assert RunConfig(epsilon_I=1).epsilon_I == 1
    config = RunConfig(seed_lambda=[0.1, 1], seed_phi=0)
    assert (config.seed_lambda, config.seed_phi) == ((0.1, 1.0), (0.0,))
    assert params_at(RunConfig(gamma=0)).gamma == 0


def _exponent_negative(token):
    """A negative number that argparse before Python 3.12 reads as a flag."""
    return token.startswith("-") and token[1:2].isdigit() and "e" in token


def _benchmark_argvs_with_exponent_negatives(monkeypatch):
    """The benchmark's `sweep`, `ness` and `gap` argvs that hold such a
    number, at the seeds where one occurs among the first 1000."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import workloads

    argvs = []
    for seed in (68, 445, 447, 597, 833, 899, 946):
        spec = workloads.junction(seed)
        argvs += [argv for argv, _ in spec["sweeps"] + spec["points"]]
    for seed in (430, 500, 803, 831):
        argvs += [argv for argv, _ in workloads.certify(seed)["points"]]
    return [argv for argv in argvs if any(map(_exponent_negative, argv))]


def _joined(argv):
    """``argv`` with each exponent-shaped negative value in --flag=value form."""
    out = []
    for token in argv:
        if _exponent_negative(token) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def test_cli_reads_negative_numbers_in_exponent_notation(monkeypatch, capsys):
    argvs = _benchmark_argvs_with_exponent_negatives(monkeypatch)
    assert len(argvs) == 11
    argvs += [
        ["gap", "--epsilon", "0.3", "--beta", "1e4", "--phi", "-2.5549494038212828e-05"],
        ["ness", "--phi-i", "-3e-05"],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakContactWarning)
        for argv in argvs:
            assert run_cli(*argv) == 0, argv
            spaced = capsys.readouterr().out
            assert run_cli(*_joined(argv)) == 0, argv
            assert spaced == capsys.readouterr().out, argv
    # a flag with several values has no --flag=value form
    assert run_cli("ness", "--seed-phi", "0.1", "-1e-3") == 0
    exponent = capsys.readouterr().out
    assert run_cli("ness", "--seed-phi", "0.1", "-0.001") == 0
    assert exponent == capsys.readouterr().out


def test_gamma_sweep_warns_once_naming_the_worst_gamma():
    config = config_from_mapping(
        {"axis": "gamma", "start": -0.5, "stop": 0.5, "count": 200,
         "epsilon_I": 0.3, "epsilon_II": 0.3}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_sweep(config)
    assert len(rows) == 200
    assert [w.category for w in caught] == [WeakContactWarning]
    message = str(caught[0].message)
    assert message.startswith("gamma = -0.5 is not small against min(epsilon) = 0.3")
    assert "(188 of 200 points)" in message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_sweep(small_config(count=3))
    assert caught == []


def _probe(statements):
    """The stdout of a fresh process that runs ``statements`` on this bcsjj."""
    src = os.path.dirname(os.path.dirname(bcsjj.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", statements], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def _modules_after(package, statements):
    """The modules of ``package`` that a fresh process holds after ``statements``."""
    return _probe(
        statements + f"\nimport sys\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    ).split()


def test_cli_import_loads_no_scipy():
    """`import bcsjj.cli` (and so `import bcsjj`) loads no scipy module."""
    assert _modules_after("scipy", "import bcsjj.cli") == []


def test_cli_commands_load_no_scipy():
    """gap, ness, sweep, check and finite-n run on numpy alone: only the
    public sparse builders and time evolution load scipy."""
    statements = (
        "import contextlib, io\n"
        "from bcsjj.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in (['check'], ['gap', '--epsilon', '0.3', '--beta', '1e4'],\n"
        "        ['ness', '--gamma', '1e-3'], ['sweep', '--count', '5'],\n"
        "        ['finite-n', '--n', '1'], ['finite-n', '--n', '2', '--format', 'json'])]\n"
        "assert codes == [0] * 6, codes"
    )
    assert _modules_after("scipy", statements) == []
    assert "scipy.sparse" in _modules_after(
        "scipy", "from bcsjj import LatticeSpec, build_current\nbuild_current(LatticeSpec(1), 1e-3)"
    )


def test_cli_import_loads_no_numpy():
    """`import bcsjj` and `import bcsjj.cli` load no numpy module: each
    module's ``np`` is a stand-in until an array is first built."""
    assert _modules_after("numpy", "import bcsjj\nimport bcsjj.cli") == []


def test_first_array_binds_numpy_in_every_module():
    """The first array a process builds binds numpy itself as ``np`` in
    every bcsjj module, so no later call pays for a stand-in or an import."""
    statements = (
        "import sys\n"
        "import bcsjj, numpy\n"
        "bcsjj.spin.SIGMA_X\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.startswith('bcsjj.') and 'np' in vars(module):\n"
        "        print(name, module.np is numpy)"
    )
    bound = dict(line.split() for line in _probe(statements).splitlines())
    assert {"bcsjj.lattice", "bcsjj.ness", "bcsjj.spin", "bcsjj.sweep"} <= bound.keys()
    assert set(bound.values()) == {"True"}, bound


def test_cli_ness_loads_no_numpy():
    """A lone ness point runs on Python floats from its flags to its row:
    JSON, CSV, the overflow point (exit 3) and a seeded point load no
    numpy.  A sweep builds arrays, so the probe sees numpy once loaded."""
    statements = (
        "import contextlib, io, warnings\n"
        "from bcsjj.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in (['ness', '--gamma', '1e-3'],\n"
        "        ['ness', '--gamma', '1e-3', '--format', 'csv'], ['ness', '--gamma', '1e155'],\n"
        "        ['ness', '--seed-lambda', '0.4', '0.39', '--seed-phi', '0.1'])]\n"
        "assert codes == [0, 0, 3, 0], codes"
    )
    assert _modules_after("numpy", statements) == []
    sweep = (
        "import contextlib, io\n"
        "from bcsjj.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sweep', '--count', '2']) == 0"
    )
    assert "numpy" in _modules_after("numpy", sweep)


def test_cli_ness_json_dump(capsys):
    code = run_cli("ness", "--gamma", "1e-3", "--phi-i", "0.3")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["lambda_t_I"] - 0.400137) < 1e-5
    assert payload["converged"] is True
    assert payload["steady_residual"] < 1e-12
    assert payload["iterations"] >= 1


# (flags, the same point as config keys, exit code): an ordered point; an
# iteration cap a gamma = 1e-2 point cannot meet; a normal plate II with a
# phase, whose zero order parameter has signed zero parts; a strong contact
NESS_EDGE_POINTS = (
    (("--gamma", "1e-3", "--phi-i", "0.3", "--beta-ii", "5"),
     {"gamma": 1e-3, "phi_I": 0.3, "beta_II": 5.0}, 0),
    (("--max-iter", "1", "--gamma", "1e-2"), {"max_iter": 1, "gamma": 1e-2}, 3),
    (("--beta-ii", "1", "--phi-ii", "2.5"), {"beta_II": 1.0, "phi_II": 2.5}, 0),
    (("--gamma", "0.2"), {"gamma": 0.2}, 0),
)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_cli_ness_json_prints_the_bytes_of_asdict(capsys):
    """``ness`` JSON is the indent=2 dump of the row, and its CSV the
    row rendered as a one-row table, byte for byte."""
    for flags, mapping, code in NESS_EDGE_POINTS:
        config = config_from_mapping(mapping)
        row = evaluate_point(params_at(config), max_iter=config.max_iter)
        payload = asdict(row)
        payload["steady_residual"] = row.residual
        assert run_cli("ness", *flags) == code
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", flags
        assert run_cli("ness", *flags, "--format", "csv") == code
        assert capsys.readouterr().out == render([row], "csv"), flags


def test_cli_ness_nonconvergence_exit(monkeypatch, capsys):
    row = evaluate_point(
        JunctionParams(BulkParams(0.3, 1e4), BulkParams(0.3, 1e4), 1e-3)
    )
    monkeypatch.setattr(cli, "evaluate_point", lambda *a, **k: replace(row, converged=False))
    assert run_cli("ness", "--format", "csv") == 3
    capsys.readouterr()


def test_cli_ness_iteration_cap_exit(capsys):
    # one Newton step cannot reach the tolerance at gamma = 1e-2
    assert run_cli("ness", "--max-iter", "1", "--gamma", "1e-2") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is False
    assert payload["iterations"] == 1
    assert payload["residual"] > 1e-12


# unequal plates at a strong contact, where a Newton step on one contact alone,
# with the other contact's value from its map, cycles for 100,000 steps
STRONG_PLATES = (
    ("0.17908194548497847", "11.153972713681394", "-1.682029518573472"),
    ("0.11358614707844915", "64.15093467871652", "1.568622731313404"),
)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["I-II", "II-I"])
def test_cli_ness_converges_at_a_strong_contact_in_both_plate_orders(order, capsys):
    (eps_i, beta_i, phi_i), (eps_ii, beta_ii, phi_ii) = (STRONG_PLATES[k] for k in order)
    argv = ["--epsilon-i", eps_i, "--beta-i", beta_i, "--phi-i", phi_i, "--epsilon-ii", eps_ii]
    argv += ["--beta-ii", beta_ii, "--phi-ii", phi_ii, "--gamma", "2.0853276761513344"]
    assert run_cli("ness", *argv, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True and payload["iterations"] <= 50
    assert payload["steady_residual"] <= 1e-15
    # the two plate orders reach one root, its plates swapped
    current = 0.4042662307487243
    assert payload["current"] == pytest.approx(current if order == (0, 1) else -current, abs=1e-12)


@pytest.mark.parametrize("flag", ["--seed-lambda", "--seed-phi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_seeds(flag, value, capsys):
    # "=" keeps argparse from reading -inf as a flag
    assert run_cli("ness", f"{flag}={value}") == 2
    key = flag[2:].replace("-", "_")
    assert f"config key {key!r} must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_cli_rejects_junction_plates_whose_epsilon_squared_underflows(capsys):
    for epsilon in ("1e-110", "1e-170"):
        tiny = ("--epsilon-i", epsilon, "--epsilon-ii", epsilon, "--beta-i", "1", "--beta-ii", "1")
        for command in ("ness", "sweep"):
            # the input checks run before the weak-contact warning: the error is all that prints
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(command, *tiny) == 2
            captured = capsys.readouterr()
            assert caught == [] and captured.out == ""
            assert captured.err == f"error: junction epsilon = {epsilon} is too small: its cube underflows to 0\n"
        # one plate alone, and the lattice, still take such an epsilon
        assert run_cli("gap", "--epsilon", epsilon, "--beta", "1") == 0
        assert run_cli("finite-n", "--n", "1", *tiny) == 0
        capsys.readouterr()
    # just above the limit both routes print a row, silently
    for command in ("ness", "sweep"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(command, "--epsilon-i", "2e-108", "--beta-i", "1", "--gamma", "0") == 0
    capsys.readouterr()


def _strict_json(text):
    """JSON parsed as RFC 8259 has it: a bare NaN, Infinity or -Infinity fails."""

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
def test_cli_ness_overflowing_contact_stops_at_once(capsys):
    # the contact field's square overflows: the map defect is NaN at the first step, and the point
    # stops there unconverged
    assert run_cli("ness", "--gamma", "1e155", "--format", "json") == 3
    payload = _strict_json(capsys.readouterr().out)
    assert payload["converged"] is False and payload["iterations"] == 1
    assert payload["residual"] is None and payload["steady_residual"] is None


def test_cli_sweep_overflowing_contact_prints_strict_json(capsys):
    """The array route stops the points alike, warns only of the strong
    contact, and prints its NaNs as null."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("sweep", "--gamma", "1e155", "--count", "2", "--format", "json") == 3
    assert [w.category for w in caught] == [WeakContactWarning]
    rows = _strict_json(capsys.readouterr().out)
    assert [(r["converged"], r["residual"], r["current"]) for r in rows] == [(False, None, None)] * 2
    assert all(isinstance(r["lambda_I"], float) for r in rows)


@pytest.mark.parametrize(
    "bounds, message",
    [
        (("0", "inf"), "config key 'stop' must be finite, got inf"),
        (("nan", "1"), "config key 'start' must be finite, got nan"),
        (("-1e308", "1e308"), "config keys 'start' and 'stop' must differ by a finite amount"),
    ],
    ids=["infinite_stop", "nan_start", "overflowing_span"],
)
@pytest.mark.filterwarnings("error")
def test_cli_sweep_rejects_a_range_that_is_not_finite(bounds, message, capsys):
    """A grid whose bounds or span are not finite is refused before numpy forms it."""
    start, stop = bounds
    for count in ("1", "3"):
        argv = ("sweep", "--axis", "gamma", "--start", start, "--stop", stop, "--count", count)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "flags, code",
    [
        (("--epsilon-i", "1e160"), 3),  # the bulk operands overflow
        (("--epsilon-ii", "1e154"), 0),  # the commutator's |F|^2 and mu_t^3 overflow
        (("--gamma", "1e308", "--tolerance", "1e4"), 3),  # the current overflows
    ],
    ids=["bulk_operands", "commutator", "current"],
)
@pytest.mark.filterwarnings("ignore::bcsjj.ness.WeakContactWarning")
@pytest.mark.filterwarnings("error")
def test_cli_array_route_is_as_quiet_as_the_float_route(flags, code, capsys):
    """The array route warns nothing where the lone point warns nothing,
    and its row 0 (phi_II = pi/2 on the delta_phi axis) is the lone row."""
    assert run_cli("sweep", *flags, "--count", "2") == code
    rows = capsys.readouterr().out.splitlines()
    assert run_cli("ness", *flags, "--phi-ii", repr(math.pi / 2), "--format", "csv") == code
    assert capsys.readouterr().out.splitlines() == rows[:2]


def test_cli_sweep_stdout(capsys):
    code = run_cli("sweep", "--count", "3", "--start", "-0.5", "--stop", "0.5")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 4


def test_phase_sweep_defaults_to_a_quarter_turn_either_side():
    deltas = [row.phi_I - row.phi_II for row in run_sweep(small_config(count=3))]
    assert deltas == [-math.pi / 2, 0.0, math.pi / 2]
    deltas = [row.phi_I - row.phi_II for row in run_sweep(small_config(count=3, start=0.0))]
    assert deltas == [0.0, math.pi / 4, math.pi / 2]


@pytest.mark.parametrize("axis", [axis for axis in SWEEP_AXES if axis != "delta_phi"])
def test_sweep_off_the_phase_axis_needs_its_range(axis, capsys):
    for flags in ((), ("--start", "0.1"), ("--stop", "0.1")):
        assert run_cli("sweep", "--axis", axis, *flags) == 2
        err = capsys.readouterr().err
        assert "--start" in err and "--stop" in err and axis in err
    with pytest.raises(ValueError, match=axis):
        run_sweep(small_config(axis=axis))


def test_cli_sweep_byte_identical(tmp_path):
    args = ("sweep", "--count", "5", "--gamma", "1e-3")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--output", str(first)) == 0
    assert run_cli(*args, "--output", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    assert b"\r" not in first.read_bytes()


def test_cli_sweep_config_file_with_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"axis": "gamma", "start": 0.0, "stop": 0.01, "count": 3,
                    "format": "json"})
    )
    assert run_cli("sweep", "--config", str(config), "--count", "4") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 4  # flag overrode the file
    assert payload[-1]["gamma"] == 0.01


def test_cli_sweep_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"numsteps": 5}))
    assert run_cli("sweep", "--config", str(config)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["ness", "sweep"])
def test_cli_rejects_a_damping_config_key(command, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"damping": 0.5}))
    assert run_cli(command, "--config", str(config)) == 2
    assert "unknown config keys: ['damping']" in capsys.readouterr().err


def test_cli_ness_strong_contact_converges(capsys):
    # the undamped map's iterates 2-cycle here; Newton steps converge
    with pytest.warns(WeakContactWarning):
        assert run_cli("ness", "--gamma", "1", "--phi-i", "3.141592653589793") == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_cli_sweep_nonconvergence_exit(tmp_path, capsys):
    # one Newton step does not meet the tolerance at gamma = 1e-2
    assert run_cli("sweep", "--max-iter", "1", "--gamma", "1e-2", "--count", "2",
                   "--output", str(tmp_path / "x.csv")) == 3
    rows = (tmp_path / "x.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith(",false") for row in rows)
    capsys.readouterr()


# Each refusal names what the per-point constructors named: the checks run in
# the order range, configured point, swept values in grid order, seeds,
# solver inputs, then the plate table's epsilon^3.
SWEEP_REFUSALS = {
    "epsilon_I_below_0_on_the_grid": (
        "--axis epsilon_I --start 0.3 --stop -0.1 --count 5",
        "epsilon must be finite and positive, got -5.551115123125783e-17",
    ),
    "beta_II_from_minus_5": ("--axis beta_II --start -5 --stop 5 --count 3", "beta must be finite and positive, got -5.0"),
    "phi_II_overflows": (
        "--axis delta_phi --phi-i 1e308 --start -1e308 --stop 0 --count 3",
        "phi must be finite, got inf",
    ),
    "epsilon_II_cube_underflows": (
        "--axis epsilon_II --start 1e-200 --stop 0.3 --count 3",
        "junction epsilon = 1e-200 is too small: its cube underflows to 0",
    ),
    "swept_value_before_tolerance": (
        "--axis epsilon_I --start -0.1 --stop 0.3 --tolerance -1",
        "epsilon must be finite and positive, got -0.1",
    ),
}


@pytest.mark.parametrize("flags, message", SWEEP_REFUSALS.values(), ids=SWEEP_REFUSALS)
def test_cli_sweep_refusals(flags, message, capsys):
    assert run_cli("sweep", *flags.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_cli_usage_errors(capsys):
    assert run_cli("sweep", "--axis", "sideways") == 2
    assert run_cli("no-such-command") == 2
    assert run_cli("sweep", "--count", "three") == 2
    capsys.readouterr()


def test_cli_check_filter(capsys):
    assert run_cli("check", "--only", "finite-n") == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 3
    assert all("finite_n." in line for line in lines)


def test_cli_check_json(capsys):
    assert run_cli("check", "--only", "equilibrium", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["passed"] for entry in payload)
    assert {entry["name"] for entry in payload} == {
        "equilibrium.fixed_point",
        "equilibrium.threshold",
        "equilibrium.gauge",
    }
    assert run_cli("check", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len({entry["name"] for entry in payload}) == len(payload) == 17
    assert all(entry["passed"] is True for entry in payload)


def test_check_results_are_builtin_types():
    for result in run_checks():
        assert type(result.passed) is bool, result.name
        assert type(result.measured) is float, result.name


def test_cli_check_iteration_cap_fails(capsys):
    # one Newton step cannot reach the standard grid's fixed points
    assert run_cli("check", "--only", "ness.steady", "--max-iter", "1") == 1
    out = capsys.readouterr().out
    assert "FAIL ness.steady_state" in out
    assert "solver failed to converge somewhere" in out


def test_cli_check_reports_failure(monkeypatch, capsys):
    fake = [CheckResult("fake.broken", False, 1.0, 0.5)]
    monkeypatch.setattr(cli, "run_checks", lambda only=None, opts=None: fake)
    assert run_cli("check") == 1
    assert "FAIL fake.broken" in capsys.readouterr().out


def test_cli_check_unmatched_filter(capsys):
    assert run_cli("check", "--only", "zzz") == 2
    capsys.readouterr()


def test_cli_finite_n_report(capsys):
    assert run_cli("finite-n", "--n", "2", "--gamma", "1e-3", "--phi-i", "0.3") == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "dimension 256" in out


def test_cli_finite_n_json(capsys):
    assert run_cli("finite-n", "--n", "1", "--format", "json") == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert payload["passed"] is True
    assert payload["commutator_defect"] < 1e-13
    assert text == json.dumps(payload, indent=2) + "\n"


def test_cli_finite_n_json_is_strict_at_an_overflowing_coupling(capsys):
    """A coupling whose products overflow fails, prints its NaN defects as
    null in strict JSON, and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("finite-n", "--n", "1", "--gamma", "1e308", "--format", "json") == 1
    text = capsys.readouterr().out
    payload = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token}"))
    assert payload["commutator_defect"] is None and payload["passed"] is False
    assert text == json.dumps(payload, indent=2) + "\n"


def test_cli_finite_n_resource_exit(capsys):
    # the second n is so large that 2 n^2 has more digits than an int may print
    for n in ("4", "1" + "0" * 2200):
        assert run_cli("finite-n", "--n", n) == 4
        err = capsys.readouterr().err
        assert "exceeds the cap" in err


def test_cli_finite_n_memory_cap(capsys):
    assert run_cli("finite-n", "--n", "2", "--memory-cap", "100") == 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ness", "--max-iter", "0"), "max_iter must be at least 1, got 0"),
        (("ness", "--max-iter", "-3"), "max_iter must be at least 1, got -3"),
        (("sweep", "--count", "2", "--max-iter", "0"), "max_iter must be at least 1"),
        (("check", "--only", "ness.steady", "--max-iter", "0"), "max_iter must be at least 1"),
        (("check", "--only", "finite-n", "--memory-cap", "0"), "memory_cap must be positive, got 0"),
        (("finite-n", "--n", "1", "--memory-cap", "-5"), "memory_cap must be positive, got -5"),
    ],
)
def test_cli_rejects_an_iteration_cap_or_memory_cap_below_one(argv, message, capsys):
    """A cap that admits no step or no byte is a usage error, not a
    non-convergence or a resource limit."""
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err


def test_cli_finite_n_peak_matches_estimate(capsys):
    """The estimate covers the commutator check, not only the operators."""
    tracemalloc.start()
    try:
        code = run_cli("finite-n", "--n", "3", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    estimate = lattice.LatticeSpec(3).estimated_bytes
    assert abs(peak / estimate - 1.0) <= 0.1, f"peak {peak} B, estimate {estimate} B"


def test_cli_finite_n_peak_within_estimate(capsys):
    """estimated_bytes bounds the traced peak of a run at every n.

    The state a process builds on its first run at a size (the parser,
    numpy's and scipy's first-use caches) is left out by one run first.
    """
    for n in (1, 2, 3):
        assert run_cli("finite-n", "--n", str(n), "--format", "json") == 0
        tracemalloc.start()
        try:
            code = run_cli("finite-n", "--n", str(n), "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        estimate = lattice.LatticeSpec(n).estimated_bytes
        assert peak <= estimate, f"n={n}: peak {peak} B, estimate {estimate} B"
    capsys.readouterr()


def _first_finite_n_run(n, *flags):
    """(exit code, traced peak, estimate) of a fresh process's first
    `finite-n --n n` run, with ``flags``.

    `from bcsjj.cli import main` must leave numpy unloaded.  numpy is then
    imported before tracing starts, as in CI's "each size in a fresh
    process" step: the first array a process builds loads numpy, ~6 MB
    traced that estimated_bytes leaves out.
    """
    probe = (
        "import contextlib, io, sys, tracemalloc\n"
        "from bcsjj.cli import main\n"
        "from bcsjj.lattice import LatticeSpec\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({['finite-n', '--n', str(n), *flags]!r})\n"
        f"print(code, tracemalloc.get_traced_memory()[1], LatticeSpec({n}).estimated_bytes)\n"
    )
    return tuple(map(int, _probe(probe).split()))


def test_cli_first_finite_n_run_peaks_within_estimate():
    """A process's first `finite-n --n 1` stays within estimated_bytes:
    the parser is built on import, outside the traced run."""
    code, peak, estimate = _first_finite_n_run(1)
    assert code == 0
    assert peak <= estimate, f"cold peak {peak} B, estimate {estimate} B"


def test_cli_first_finite_n_run_at_n_2_peaks_within_estimate():
    """A process's first `finite-n --n 2`, the size where the commutator
    check sets the peak, stays within estimated_bytes, abc's caches
    included."""
    code, peak, estimate = _first_finite_n_run(2, "--format", "json")
    assert code == 0
    assert peak <= estimate, f"cold peak {peak} B, estimate {estimate} B"


def test_cli_finite_n_memory_cap_before_build(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("operators built past the memory cap")

    for name in (
        "build_hamiltonian", "build_relative_number", "build_current",
        "_hamiltonian", "_relative_number", "_current", "_assemble",
    ):
        monkeypatch.setattr(lattice, name, never)
    cap = lattice.LatticeSpec(3).estimated_bytes - 1
    assert run_cli("finite-n", "--n", "3", "--memory-cap", str(cap)) == 4
    assert "exceeds the memory cap" in capsys.readouterr().err


def test_console_script_installed():
    exe = shutil.which("bcsjj")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "gap", "--epsilon", "0.3", "--beta", "10000"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "superconducting branch" in proc.stdout
