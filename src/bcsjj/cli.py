"""Command-line front door.

Subcommands:

* ``gap``       solve the one-plate self-consistency equation
* ``ness``      solve one junction point and dump the solution
* ``sweep``     tabulate a parameter sweep as CSV or JSON
* ``check``     run the invariant suite on the built-in grid
* ``finite-n``  small-lattice identities (exact commutator, product current)

Exit codes: 0 success, 1 failed checks or defects over threshold,
2 usage error, 3 solver non-convergence, 4 resource limit exceeded.
"""

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii

from .checks import CheckOptions, run_checks
from .equilibrium import BulkParams, critical_beta, solve_gap
from .lattice import LatticeSpec, ResourceLimitError, finite_n_report
from .sweep import (
    FORMATS,
    POINT_FIELDS,
    RunConfig,
    config_from_mapping,
    evaluate_point,
    json_number,
    params_at,
    render,
    run_sweep,
    _seed_from_config,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4

# Every flag by its dest, which is the RunConfig or CheckOptions field it
# sets where one exists.
_FLAGS = {
    "config": ("--config", dict(metavar="PATH", help="JSON run configuration; flags override it")),
    "output": ("--output", dict(metavar="PATH", help="write the result here instead of stdout")),
    "tolerance": ("--tolerance", dict(type=float, help="solver iteration tolerance")),
    "max_iter": ("--max-iter", dict(type=int, help="solver iteration cap")),
    "seed_lambda": ("--seed-lambda", dict(
        type=float, nargs="+", metavar="LAM",
        help="starting order-parameter moduli (one shared or two values)",
    )),
    "seed_phi": ("--seed-phi", dict(
        type=float, nargs="+", metavar="PHI",
        help="starting order-parameter phases (one shared or two values)",
    )),
    "memory_cap": ("--memory-cap", dict(type=int, metavar="BYTES", help="lattice memory budget")),
    "only": ("--only", dict(metavar="FILTER", help="check-name fragment to select")),
    "epsilon_I": ("--epsilon-i", dict(type=float, help="plate I level splitting")),
    "epsilon_II": ("--epsilon-ii", dict(type=float, help="plate II level splitting")),
    "beta_I": ("--beta-i", dict(type=float, help="plate I inverse temperature")),
    "beta_II": ("--beta-ii", dict(type=float, help="plate II inverse temperature")),
    "gamma": ("--gamma", dict(type=float, help="contact coupling")),
    "phi_I": ("--phi-i", dict(type=float, help="plate I phase (radians)")),
    "phi_II": ("--phi-ii", dict(type=float, help="plate II phase (radians)")),
    "epsilon": ("--epsilon", dict(type=float, required=True, help="level splitting")),
    "beta": ("--beta", dict(type=float, required=True, help="inverse temperature")),
    "phi": ("--phi", dict(type=float, default=0.0, help="order-parameter phase (radians)")),
    "axis": ("--axis", dict(
        help="swept field (delta_phi, gamma, beta_I, beta_II, epsilon_I, epsilon_II)",
    )),
    "start": ("--start", dict(type=float, help="first grid value")),
    "stop": ("--stop", dict(type=float, help="last grid value")),
    "count": ("--count", dict(type=int, help="number of grid points")),
    "lattice_n": ("--n", dict(
        type=int, metavar="N", help="plate edge length (N x N sites per plate)",
    )),
}

_SOLVER = ("tolerance", "max_iter")
_NESS = ("config", "output", *_SOLVER, "seed_lambda", "seed_phi", *POINT_FIELDS)

# (name, help, the flags it reads besides --format, its --format choices)
_SUBCOMMANDS = (
    ("gap", "one-plate gap equation", ("epsilon", "beta", "phi", "output"), ("json",)),
    ("ness", "solve one junction point", _NESS, FORMATS),
    ("sweep", "tabulate a parameter sweep", _NESS + ("axis", "start", "stop", "count"), FORMATS),
    ("check", "run the invariant suite", ("output", *_SOLVER, "memory_cap", "only"), ("json",)),
    (
        "finite-n", "small-lattice identities",
        ("config", "output", "memory_cap", "lattice_n", *POINT_FIELDS), ("json",),
    ),
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token shaped like a negative
    number as a value, ``-2.5e-05`` included (Python 3.10 and 3.11 take
    only the ``-1`` and ``-1.5`` shapes).  No bcsjj flag looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def _build_parser():
    """The top-level parser and each subcommand's parser by name, built
    once per process, on import: ``main`` may be called many times, and
    a run's peak memory leaves the parsers out."""
    parser = _Parser(
        prog="bcsjj",
        description="Two-plate BCS junction: gap equation, steady states, "
        "Josephson current, boundary mode spectra, small-lattice oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, dests, formats in _SUBCOMMANDS:
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.add_argument("--format", choices=formats, help="output format")
        for dest in dests:
            flag, options = _FLAGS[dest]
            command.add_argument(flag, dest=dest, **options)
    return parser, commands


_build_parser()


# json encodes in C only without an indent; these item separators carry
# the newline and the indent of indent=2 at the top level and one level down
_TOP_LEVEL = json.JSONEncoder(separators=(",\n  ", ": "), allow_nan=False)
_NESTED = json.JSONEncoder(separators=(",\n    ", ": "), allow_nan=False)


def _json_text(payload):
    """The bytes of ``json.dumps(payload, indent=2, allow_nan=False) + "\\n"``
    on json's C encoder.

    ``payload`` is a non-empty dict of numbers, strings, booleans and
    nulls, and of non-empty dicts of those: one level of nesting.  A
    flat payload is one encoder call; each nested dict and each run of
    plain items between them is one more.  A non-finite number raises
    ``ValueError``, as ``allow_nan=False`` does: map it to null first.
    """
    if dict not in map(type, payload.values()):
        return "{\n  " + _TOP_LEVEL.encode(payload)[1:-1] + "\n}\n"
    parts, run = [], {}
    for key, value in payload.items():
        if type(value) is dict and value:
            if run:
                parts.append(_TOP_LEVEL.encode(run)[1:-1])
                run = {}
            inner = _NESTED.encode(value)[1:-1]
            parts.append(f"{encode_basestring_ascii(key)}: {{\n    {inner}\n  }}")
        else:
            run[key] = value
    if run:
        parts.append(_TOP_LEVEL.encode(run)[1:-1])
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _emit(text, output):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_FIELD_NAMES = {cls: frozenset(f.name for f in fields(cls)) for cls in (RunConfig, CheckOptions)}


def _overrides(args, cls):
    """The parsed values that were given and name a field of dataclass ``cls``."""
    names = _FIELD_NAMES[cls]
    return {key: value for key, value in vars(args).items() if key in names and value is not None}


def _merged_config(args, default_format=None):
    """File config (if any) with command-line overrides applied.

    ``default_format`` fills in when neither a flag nor the file picks
    one; the RunConfig fallback (csv) applies otherwise.
    """
    mapping = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a single JSON object")
        mapping.update(data)
    mapping.update(_overrides(args, RunConfig))
    if default_format is not None:
        mapping.setdefault("format", default_format)
    return config_from_mapping(mapping)


def cmd_gap(args):
    """``bcsjj gap``: one plate's criterion, threshold, branches and defect.

    The plate's numbers come from :func:`equilibrium.solve_gap`, whose
    2x2 state is never read, and the JSON, with a non-finite number as
    null (a criterion whose 2 * epsilon overflows), from :func:`_json_text`.
    """
    sol = solve_gap(BulkParams(args.epsilon, args.beta, args.phi))
    criterion = math.tanh(args.beta * args.epsilon) - 2.0 * args.epsilon
    beta_c = critical_beta(args.epsilon)
    payload = {
        "epsilon": args.epsilon,
        "beta": args.beta,
        "phi": args.phi,
        "criterion": json_number(criterion),
        "critical_beta": json_number(beta_c),
        "normal_branch": {"lambda": 0.0, "mu": args.epsilon},
        "superconducting_branch": {"lambda": sol.lam, "mu": sol.mu} if sol.superconducting else None,
        "fixed_point_defect": json_number(sol.residual),
    }
    if args.format == "json":
        text = _json_text(payload)
    else:
        lines = [
            f"epsilon = {args.epsilon:.17g}, beta = {args.beta:.17g}, phi = {args.phi:.17g}",
            f"branch criterion tanh(beta*epsilon) - 2*epsilon = {criterion:.17g}",
            "critical beta = "
            + (f"{beta_c:.17g}" if math.isfinite(beta_c) else "none (epsilon >= 1/2)"),
            f"normal branch:          lambda = 0, mu = {args.epsilon:.17g}",
        ]
        if sol.superconducting:
            lines.append(f"superconducting branch: lambda = {sol.lam:.17g}, mu = {sol.mu:.17g}")
            lines.append(f"fixed-point defect = {sol.residual:.3e}")
        else:
            lines.append("superconducting branch: absent")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_ness(args):
    config = _merged_config(args, default_format="json")
    seed = _seed_from_config(config)
    row = evaluate_point(params_at(config), config.tolerance, config.max_iter, seed)
    if config.format == "csv":
        text = render([row], "csv")
    else:
        # a shallow dict, in field order: the fields are plain numbers, which asdict would
        # deep-copy one by one; the row's residual is the steady-state defect of the one solve
        payload = {name: json_number(value) for name, value in vars(row).items()}
        payload["steady_residual"] = payload["residual"]
        text = _json_text(payload)
    _emit(text, config.output)
    return EXIT_OK if row.converged else EXIT_SOLVER


def cmd_sweep(args):
    config = _merged_config(args)
    rows = run_sweep(config)
    _emit(render(rows, config.format), config.output)
    return EXIT_OK if all(row.converged for row in rows) else EXIT_SOLVER


def cmd_check(args):
    results = run_checks(only=args.only, opts=CheckOptions(**_overrides(args, CheckOptions)))
    if not results:
        raise ValueError(f"no checks match --only {args.only!r}")
    if args.format == "json":
        # a NaN defect, which fails its check, prints as null
        payload = [{**asdict(r), "measured": json_number(r.measured)} for r in results]
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            note = f"  [{r.note}]" if r.note else ""
            lines.append(
                f"{status} {r.name}: measured {r.measured:.3e}"
                f" (threshold {r.threshold:.3e}){note}"
            )
        failed = sum(1 for r in results if not r.passed)
        lines.append(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_finite_n(args):
    config = _merged_config(args)
    spec = LatticeSpec(config.lattice_n, memory_cap=config.memory_cap)
    report = finite_n_report(spec, params_at(config))
    if config.format == "json":
        text = _json_text({name: json_number(value) for name, value in vars(report).items()})
    else:
        lines = [
            f"lattice: {spec.n}x{spec.n} per plate, {spec.n_sites} sites, dimension {spec.dim}",
            f"i[H, Q] vs J entrywise defect      = {report.commutator_defect:.3e}",
            f"[H(gamma=0), Q] entrywise defect   = {report.bulk_conservation_defect:.3e}",
            f"product-state current per site     = {report.product_current_per_site:.17g}",
            f"mean-field sine-law current        = {report.mean_field_current:.17g}",
            f"current defect                     = {report.current_defect:.3e}",
            "PASS" if report.passed else "FAIL",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, config.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_DISPATCH = {
    "gap": cmd_gap,
    "ness": cmd_ness,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "finite-n": cmd_finite_n,
}


def _parse(argv):
    """The parsed arguments, with ``command`` set.

    A known command's arguments go straight to its own parser, and any
    tokens it leaves get the top-level parser's error, as argparse gives
    them.  ``-h``, no arguments and an unknown command go through the
    top-level parser.
    """
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
