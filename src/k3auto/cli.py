"""Command-line driver.

Commands:

* ``lattice <expr>`` — invariants of a lattice expression like ``U + A10``
  or ``E8(2)``;
* ``surface analyze --a <poly> --b <poly> [--field w2=<d>]`` — singular
  fibers, Euler number and surface class of y^2 = x^3 + a(t) x + b(t);
* ``verify paper [scenario]`` — replay the recorded-value suite;
* ``enumerate <scenario.json>`` — run a declarative enumeration scenario.

Reports are JSON by default (deterministic: sorted keys); ``--text`` or
``K3_REPORT_FORMAT=text`` switches to a human-readable rendition.  Exit
codes: 0 success, 1 verification failure, 2 usage/parse error, 3 invalid
model, 4 internal error (any other exception, reported as one line on
stderr without a traceback).  A reader that closes stdout early is not an
error.  The package needs nothing beyond the Python standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .ellsurf import WeierstrassModel, analyze_fibers
from .enumerations import fiber_orbit_configs, order22_replay
from .errors import InvalidModelError, K3AutoError, brief
from .isometry import lefschetz_number
from .lattice import build_lattice, determinant_and_signature, discriminant_group
from .parsing import MAX_LITERAL_DIGITS, parse_pattern, parse_poly
from .polyfield import FieldContext, RATIONALS
from .verify import run_scenarios

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INVALID_MODEL = 3
EXIT_INTERNAL = 4


def _emit(rendition: dict | str) -> None:
    """Print a JSON report (a dict) or text lines (a str)."""
    try:
        print(json.dumps(rendition, sort_keys=True, indent=2)
              if isinstance(rendition, dict) else rendition)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: not a fault; silence the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _resolve_format(args: argparse.Namespace) -> str:
    if getattr(args, "text", False):
        return "text"
    if getattr(args, "json", False):
        return "json"
    env = os.environ.get("K3_REPORT_FORMAT")
    if env is None:
        return "json"
    if env not in ("json", "text"):
        raise ValueError(f"K3_REPORT_FORMAT must be 'json' or 'text', not {brief(env)}")
    return env


def _parse_field(spec: str | None) -> FieldContext:
    if spec is None:
        return RATIONALS
    if not spec.startswith("w2="):
        raise ValueError(f"--field must look like w2=<d>, not {brief(spec)}")
    try:
        d = int(spec[3:])
    except ValueError:
        raise ValueError(f"--field needs an integer after w2=, not {brief(spec)}")
    return FieldContext(d=d)


# Each command resolves the format first and renders only that rendition.
def _cmd_lattice(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    lat = build_lattice(args.expr)
    det, signature = determinant_and_signature(lat)
    disc = discriminant_group(lat)
    eleven = all(f == 11 for f in disc.invariant_factors)  # never disagrees with disc
    if fmt == "json":
        _emit({
            "expression": args.expr,
            "rank": lat.rank,
            "gram": [list(row) for row in lat.gram],
            "even": lat.is_even,
            "det": det,
            "signature": list(signature.pair),
            "zeros": signature.zeros,
            "discriminant_group": list(disc.invariant_factors),
            "discriminant_order": disc.order,
            "eleven_elementary": eleven,
        })
        return EXIT_OK
    factors = " x ".join(f"Z/{n}" for n in disc.invariant_factors) or "trivial"
    _emit("\n".join([
        f"lattice {args.expr}",
        f"  rank {lat.rank}, det {det}, signature {signature.pair}"
        + (f" + {signature.zeros} zero(s)" if signature.zeros else ""),
        f"  even: {'yes' if lat.is_even else 'no'}",
        f"  discriminant group: {factors} (order {disc.order})",
        f"  11-elementary: {'yes' if eleven else 'no'}",
        "  gram: " + "; ".join(" ".join(str(x) for x in row) for row in lat.gram),
    ]))
    return EXIT_OK


def _cmd_surface_analyze(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    context = _parse_field(args.field)
    model = WeierstrassModel(
        parse_poly(args.a, context), parse_poly(args.b, context)
    )
    analysis = analyze_fibers(model)
    if fmt == "json":
        _emit(analysis.as_report())
        return EXIT_OK
    lines = [
        f"y^2 = x^3 + ({args.a}) x + ({args.b})"
        + (f"   over w^2 = {context.d}" if context.is_quadratic else ""),
        f"  k = {analysis.k}, surface class: {analysis.surface}, "
        f"relatively minimal: {'yes' if analysis.relatively_minimal else 'no'}",
        f"  Euler total {analysis.euler_total} "
        f"(expected {analysis.expected_euler})",
    ]
    for fiber in [f.as_record() for f in analysis.fibers]:
        lines.append(
            f"  {fiber['place']}: degree {fiber['degree']}, "
            f"type {fiber['type']}, e = {fiber['euler']}, "
            f"v(a) = {fiber['v_a']}, v(b) = {fiber['v_b']}, "
            f"v(delta) = {fiber['v_delta']}"
        )
    _emit("\n".join(lines))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)
    report = run_scenarios(args.scenario)
    _emit(report.as_report() if fmt == "json" else report.to_text())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


# Config fields are checked before use; a bad one is a usage error naming
# the field.  A missing required key raises KeyError ("missing key").
def _bad_field(key: str, want: str, value) -> ValueError:
    return ValueError(f"config field {key!r} must be {want}, got {brief(value)}")


def _positive_int(config: dict, key: str, default: int | None = None) -> int:
    value = config[key] if default is None else config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise _bad_field(key, "an integer >= 1", value)
    return value


def _string(config: dict, key: str) -> str:
    value = config[key]
    if not isinstance(value, str):
        raise _bad_field(key, "a string", value)
    return value


def _string_list(config: dict, key: str) -> list[str]:
    value = config[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise _bad_field(key, "a list of strings", value)
    return value


# A runner takes the config and the format, and returns that rendition.
def _run_fiber_orbits(config: dict, fmt: str) -> dict | str:
    configs = fiber_orbit_configs(
        _positive_int(config, "total_euler"),
        _string_list(config, "allowed_at_zero"),
        _string_list(config, "allowed_at_inf"),
        _string_list(config, "orbit_allowed"),
        _positive_int(config, "orbit_size", default=11),
    )
    if fmt == "json":
        return {
            "kind": "fiber_orbits",
            "count": len(configs),
            "configs": [c.as_record() for c in configs],
        }
    return "\n".join([f"{len(configs)} configuration(s)", *(f"  {c}" for c in configs)])


def _run_order22(config: dict, fmt: str) -> dict | str:
    report = order22_replay(_string(config, "scenario"))
    if fmt == "json":
        return report.as_report()
    lines = [
        f"scenario {report.scenario}: {len(report.survivors)} survivor(s) "
        f"out of {len(report.candidates)} candidate(s)"
    ]
    for c in report.candidates:
        verdict = c.status if c.rule is None else f"{c.status} ({c.rule})"
        lines.append(f"  {verdict}: {c.pattern.as_literal()}")
    return "\n".join(lines)


def _run_lefschetz(config: dict, fmt: str) -> dict | str:
    pattern = parse_pattern(_string(config, "pattern"))
    value = lefschetz_number(pattern)
    if fmt == "json":
        return {
            "kind": "lefschetz",
            "pattern": pattern.as_literal(),
            "algebraic_trace": pattern.algebraic.trace,
            "transcendental_trace": pattern.transcendental.trace,
            "lefschetz": value,
        }
    return f"L({pattern.as_literal()}) = {value}"


_SCENARIO_KINDS: dict[str, Callable[[dict, str], dict | str]] = {
    "fiber_orbits": _run_fiber_orbits,
    "order22": _run_order22,
    "lefschetz": _run_lefschetz,
}


def _cmd_enumerate(args: argparse.Namespace) -> int:
    fmt = _resolve_format(args)

    def bounded_int(digits: str) -> int:  # else int() fails on the interpreter's digit limit
        if len(digits.lstrip("-")) > MAX_LITERAL_DIGITS:
            raise ValueError(f"{args.config}: integer longer than {MAX_LITERAL_DIGITS} digits")
        return int(digits)

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle, parse_int=bounded_int)
    except OSError as exc:
        raise ValueError(f"cannot read {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{args.config} must hold a JSON object, not {type(config).__name__}")
    kind = config.get("kind")
    runner = _SCENARIO_KINDS.get(kind) if isinstance(kind, str) else None
    if runner is None:
        known = ", ".join(sorted(_SCENARIO_KINDS))
        raise ValueError(f"unknown scenario kind {brief(kind)}; known: {known}")
    try:
        rendition = runner(config, fmt)
    except KeyError as exc:
        raise ValueError(f"scenario config is missing key {exc}") from None
    _emit(rendition)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3auto",
        description="Exact replays of the computations classifying K3 "
                    "surfaces with an order-11 symmetry.",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps an unset leaf flag from clobbering one parsed before
    # the subcommand
    fmt.add_argument("--text", action="store_true", default=argparse.SUPPRESS,
                     help="human-readable output instead of JSON")
    fmt.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                     help="force JSON output")
    # the flags also parse before the subcommand; a value set there is kept
    parser.add_argument("--text", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lattice = sub.add_parser("lattice", parents=[fmt],
                               help="invariants of a lattice expression")
    p_lattice.add_argument("expr", help="e.g. 'U', 'U(11)', 'U + A10', 'E8(2)'")
    p_lattice.set_defaults(func=_cmd_lattice)

    p_surface = sub.add_parser("surface", help="Weierstrass model analysis")
    surface_sub = p_surface.add_subparsers(dest="surface_command", required=True)
    p_analyze = surface_sub.add_parser("analyze", parents=[fmt],
                                       help="classify singular fibers")
    p_analyze.add_argument("--a", required=True, help="coefficient a(t)")
    p_analyze.add_argument("--b", required=True, help="coefficient b(t)")
    p_analyze.add_argument("--field", help="coefficient field, w2=<d> for Q(sqrt(d))")
    p_analyze.set_defaults(func=_cmd_surface_analyze)

    p_verify = sub.add_parser("verify", help="replay recorded values")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_paper = verify_sub.add_parser("paper", parents=[fmt],
                                    help="run the scenario suite")
    p_paper.add_argument("scenario", nargs="?", default=None,
                         help="single scenario name (default: all)")
    p_paper.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", parents=[fmt],
                            help="run a JSON-described enumeration")
    p_enum.add_argument("config", help="path to a scenario JSON file")
    p_enum.set_defaults(func=_cmd_enumerate)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join value-taking flags with their argument so polynomials with a
    leading minus sign survive argparse (``--a -3*t^2`` -> ``--a=-3*t^2``)."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--a", "--b", "--field") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidModelError as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (K3AutoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug; exit 1 stays a failed verification
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
