"""Command-line front end.

One binary, scriptable subcommands, JSON reports on stdout.  Exit codes:
0 all checks passed, 1 a mathematical check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .algebra import Poly, format_scalar
from .bimodule import BimodElement, Generator
from .errors import StarBimodError
from .gns import Functional, build_gns, check_cauchy_schwarz, check_identity
from .moments import MomentFunctional
from .parser import parse_expression
from .probes import boundedness_probe, numerical_radius_norm_check
from .sampling import rand_d2_element, rand_gauss_element, rand_poly
from .selftest import run_all


# Upper limits on size arguments, refused with exit 2 before any work.
# The probe builds its whole tower at the top degree up front, a Gram of
# (B+1)^2 exact entries; the shipped moment lists stop at degree 31.  The
# same cap bounds every other degree argument.  lemma-check holds 10 000
# sampled vectors of length --max-dim at once.
MAX_DEGREE = 64
MAX_DIM = 64
MAX_TRIALS = 10_000
_LIMITS = {"max_degree": MAX_DEGREE, "max_dim": MAX_DIM, "trials": MAX_TRIALS}


class InputError(Exception):
    """User-facing input problem; exits with status 2."""


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _emit(report: dict, as_json: bool, text_lines=None):
    if as_json or text_lines is None:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _load_measure(path: str) -> MomentFunctional:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return MomentFunctional.from_json(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot read measure {path}: {exc}") from exc


def _expression_poly(text: str) -> Poly:
    value = parse_expression(text)
    if value.max_d_degree > 0:
        raise InputError(f"expected a polynomial in q, got {text!r}")
    profile = value.d_profile()
    return profile.get(0, Poly())


def _load_functional(text: str) -> Functional:
    if text in ("F0", "F1", "F2"):
        return Functional(text)
    if text.startswith("gauss-poly:"):
        return Functional.gauss_poly(_expression_poly(text[len("gauss-poly:") :]))
    if text.startswith("gauss-atoms:"):
        path = text[len("gauss-atoms:") :]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return Functional.gauss_atoms([Fraction(v) for v in data["values"]])
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"cannot read atom weights {path}: {exc}") from exc
    raise InputError(
        f"unknown functional {text!r}; use F0, F1, F2, gauss-poly:<expr>, "
        "gauss-atoms:<file>"
    )


def _load_element(text: str | None, func: Functional | None) -> BimodElement:
    if text is None:
        if func is None or func.tag is Generator.D2:
            return BimodElement.d_squared()
        return BimodElement.gauss(1)
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                return BimodElement.from_json(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            raise InputError(f"cannot read element {text}: {exc}") from exc
    value = parse_expression(text)
    try:
        return BimodElement.from_weyl(value)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_degrees(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad degree range {text!r}; expected A..B") from exc
    if lo < 0:
        raise InputError(f"negative degree in range {text!r}")
    if hi > MAX_DEGREE:
        raise InputError(f"top degree {hi} exceeds the limit of {MAX_DEGREE}")
    if hi < lo:
        raise InputError(f"empty degree range {text!r}")
    if hi - lo < 2:
        raise InputError("need at least three degrees for a verdict")
    return list(range(lo, hi + 1))


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _check_limits(args) -> None:
    for dest, cap in _LIMITS.items():
        value = getattr(args, dest, None)
        if value is not None and value > cap:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} {value} exceeds the limit of {cap}")


def _cmd_normal_order(args) -> int:
    value = parse_expression(args.expression)
    canonical = value.to_expression()
    _emit(
        {
            "check": "normal-order",
            "inputs": {"expression": args.expression},
            "canonical": canonical,
        },
        args.json,
        [canonical],
    )
    return 0


def _cmd_theta_map(args) -> int:
    element = _load_element(args.element, None)
    if element.tag is not Generator.D2:
        raise InputError("theta-map needs an element of the d^2 span")
    image = element.theta_map()
    report = {
        "check": "theta-map",
        "inputs": {"element": args.element},
        "image": image.to_expression(),
    }
    lines = [image.to_expression()]
    if args.max_degree is not None:
        table = element.schrodinger_table(args.max_degree)
        report["table"] = [p.coeff_strings() for p in table]
        lines += [f"q^{k} -> {p}" for k, p in enumerate(table)]
    _emit(report, args.json, lines)
    return 0


def _random_case(rng, func, mf, max_degree):
    a = rand_poly(rng, max_degree)
    b = rand_poly(rng, max_degree)
    if func.tag is Generator.D2:
        x = rand_d2_element(rng, max_terms=4, max_degree=min(4, max_degree))
    else:
        x = rand_gauss_element(rng, max_degree=min(4, max_degree))
    return a, x, b


def _cmd_gns_check(args) -> int:
    mf = _load_measure(args.measure)
    func = _load_functional(args.functional)
    build_gns(mf, args.max_degree)  # positivity gate
    rng = random.Random(args.seed)
    failures = 0
    witness = None
    for _ in range(args.trials):
        a, x, b = _random_case(rng, func, mf, args.max_degree)
        report = check_identity(func, a, x, b, mf)
        if not report.equal:
            failures += 1
            if witness is None:
                witness = report
    payload = {
        "check": "gns-check",
        "inputs": {
            "measure": args.measure,
            "functional": func.describe(),
            "max_degree": args.max_degree,
            "trials": args.trials,
            "seed": args.seed,
        },
        "failures": failures,
        "equal": failures == 0,
    }
    if witness is not None:
        payload["lhs"] = format_scalar(witness.lhs)
        payload["rhs"] = format_scalar(witness.rhs)
    _emit(
        payload,
        args.json,
        [f"identity holds on {args.trials - failures}/{args.trials} random cases"],
    )
    return 0 if failures == 0 else 1


def _cmd_cs_check(args) -> int:
    mf = _load_measure(args.measure)
    func = _load_functional(args.functional)
    build_gns(mf, args.max_degree)
    rng = random.Random(args.seed)
    failures = 0
    for _ in range(args.trials):
        a, x, _ = _random_case(rng, func, mf, args.max_degree)
        if not check_cauchy_schwarz(func, a, x, mf).holds:
            failures += 1
    payload = {
        "check": "cs-check",
        "inputs": {
            "measure": args.measure,
            "functional": func.describe(),
            "max_degree": args.max_degree,
            "trials": args.trials,
            "seed": args.seed,
        },
        "failures": failures,
        "holds": failures == 0,
    }
    _emit(
        payload,
        args.json,
        [f"bound holds on {args.trials - failures}/{args.trials} random cases"],
    )
    return 0 if failures == 0 else 1


def _cmd_probe(args) -> int:
    mf = _load_measure(args.measure)
    func = _load_functional(args.functional)
    element = _load_element(args.element, func)
    degrees = _parse_degrees(args.degrees)
    report = boundedness_probe(func, element, mf, degrees, args.tolerance)
    payload = {
        "check": "probe",
        "inputs": {
            "measure": args.measure,
            "functional": func.describe(),
            "element": args.element or "<generator>",
            "degrees": args.degrees,
            "tolerance": _fmt_float(args.tolerance),
        },
        "lambdas": [_fmt_float(v) for v in report.lambdas],
        "verdict": report.verdict,
    }
    lines = [
        f"degree {n}: lambda = {_fmt_float(v)}"
        for n, v in zip(report.degrees, report.lambdas)
    ] + [f"verdict: {report.verdict}"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_lemma_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    worst = 0.0
    for n in range(args.trials):
        dim = int(rng.integers(1, args.max_dim + 1))
        t = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
        report = numerical_radius_norm_check(t, seed=args.seed + n + 1)
        worst = max(worst, report.norm - report.bound)
        if not report.holds:
            failures += 1
    payload = {
        "check": "lemma-check",
        "inputs": {
            "trials": args.trials,
            "seed": args.seed,
            "max_dim": args.max_dim,
        },
        "failures": failures,
        "max_slack": _fmt_float(worst),
        "holds": failures == 0,
    }
    _emit(
        payload,
        args.json,
        [f"norm bound holds on {args.trials - failures}/{args.trials} matrices"],
    )
    return 0 if failures == 0 else 1


def _cmd_selftest(args) -> int:
    results = run_all()
    payload = {
        "check": "selftest",
        "results": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "elapsed_s": r.elapsed_s,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    _emit(payload, args.json, [r.line() for r in results])
    return 0 if payload["passed"] else 1


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="starbimod",
        description="Exact bimodule algebra over C[q] with GNS-style checks",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, measure=False, functional=False, trials=False):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="JSON report output")
        fmt.add_argument(
            "--text",
            action="store_false",
            dest="json",
            help="plain text output (default)",
        )
        if measure:
            p.add_argument("--measure", required=True, help="measure JSON file")
        if functional:
            p.add_argument(
                "--functional",
                required=True,
                help="F0 | F1 | F2 | gauss-poly:<expr> | gauss-atoms:<file>",
            )
        if trials:
            p.add_argument("--trials", type=_at_least(1), default=200)
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("normal-order", help="normal order an expression")
    p.add_argument("expression")
    common(p)
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("theta-map", help="apply the order-lowering map")
    p.add_argument("--element", required=True, help="expression or JSON file")
    p.add_argument(
        "--max-degree",
        type=_at_least(0),
        default=None,
        help="also print the operator table",
    )
    common(p)
    p.set_defaults(func=_cmd_theta_map)

    p = sub.add_parser("gns-check", help="random exact representation-identity checks")
    common(p, measure=True, functional=True, trials=True)
    p.add_argument("--max-degree", type=_at_least(0), default=6)
    p.set_defaults(func=_cmd_gns_check)

    p = sub.add_parser("cs-check", help="random exact Cauchy-Schwarz checks")
    common(p, measure=True, functional=True, trials=True)
    p.add_argument("--max-degree", type=_at_least(0), default=6)
    p.set_defaults(func=_cmd_cs_check)

    p = sub.add_parser("probe", help="finite-degree boundedness probe")
    common(p, measure=True, functional=True)
    p.add_argument("--element", default=None, help="expression or JSON file")
    p.add_argument("--degrees", default="2..10", help="degree range A..B")
    p.add_argument("--tolerance", type=_tolerance, default=1e-3)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("lemma-check", help="numerical-radius norm bound on random matrices")
    common(p)
    p.add_argument("--trials", type=_at_least(1), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--max-dim", type=_at_least(1), default=8)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StarBimodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
