"""Command-line front end.

One binary, scriptable subcommands, JSON reports on stdout.  Exit codes:
0 all checks passed, 1 a mathematical check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import sys
from functools import partial

from .algebra import Poly, format_scalar, parse_real
from .bimodule import BimodElement, Generator
from .errors import StarBimodError
from .gns import Functional, build_gns, check_cauchy_schwarz, check_identity
from .moments import MomentFunctional
from .parser import MAX_DIGITS, exceeds_digits, parse_expression
from .probes import PLATEAU_TOLERANCE, boundedness_probe, norm_bound_trials
from .sampling import rand_case
from .selftest import run_all


# Upper limits on size arguments, which ``_int_in`` refuses at parse time
# with exit 2.  The probe builds its whole tower at the top degree up
# front, a Gram of (B+1)^2 exact entries; the shipped moment lists stop at
# degree 31.  The same cap bounds every other degree argument.  lemma-check
# runs an exact LDL per trial, whose integers grow with --max-dim.
MAX_DEGREE = 64
MAX_DIM = 24
MAX_TRIALS = 10_000


class InputError(Exception):
    """User-facing input problem; exits with status 2."""


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _emit(report: dict, as_json: bool, text_lines):
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _load_json(path: str, what: str, build):
    """``build`` applied to the JSON file at ``path``.

    A file that cannot be read, parsed or built is an InputError, and so is
    JSON nested beyond the interpreter's recursion limit, which the
    decoder reports as a RecursionError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except (OSError, ValueError, StarBimodError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _load_measure(path: str, degree: int) -> MomentFunctional:
    """The measure at ``path``, gated: ``build_gns`` must realize it at ``degree``.

    A measure that fails the gate, with an indefinite Gram or moments that
    stop short of 2 * ``degree``, is refused like an unreadable file.
    """

    def build(data) -> MomentFunctional:
        mf = MomentFunctional.from_json(data)
        build_gns(mf, degree)
        return mf

    return _load_json(path, "measure", build)


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
        return _load_json(text[len("gauss-atoms:") :], "atom weights", _atom_weights)
    raise InputError(
        f"unknown functional {text!r}; use F0, F1, F2, gauss-poly:<expr>, "
        "gauss-atoms:<file>"
    )


def _functional_echo(func: Functional, text: str) -> str:
    """The functional as a report echoes it, in a form ``--functional`` reads back.

    gauss-atoms is echoed as given, since its argument names the file
    of atom values; the others print their canonical form.
    """
    return text if func.kind == "gauss-atoms" else func.describe()


def _atom_weights(data) -> Functional:
    values = data.get("values") if isinstance(data, dict) else None
    if not isinstance(values, list):
        raise ValueError('expected an object with a "values" list')
    return Functional.gauss_atoms([parse_real(v) for v in values])


def _load_element(text: str | None, func: Functional | None) -> BimodElement:
    if text is None:
        if func is None or func.tag is Generator.D2:
            return BimodElement.d_squared()
        return BimodElement.gauss(1)
    if os.path.exists(text):
        return _load_json(text, "element", BimodElement.from_json)
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


def _int_in(minimum: int, cap: int | None):
    """argparse type: an integer from ``minimum`` to ``cap`` (None: no cap)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit of {cap}")
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
    if exceeds_digits(image):
        raise InputError(f"the image has a number of more than {MAX_DIGITS} digits")
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


def _run_trials(args, check: str, key: str, claim: str, trial) -> int:
    """Run ``trial(func, case, mf)`` on seeded random (a, x, b) cases, on a gated measure.

    ``trial`` returns None when a case passes and otherwise the fields that
    the first failure adds to the report.
    """
    mf = _load_measure(args.measure, args.max_degree)
    func = _load_functional(args.functional)
    rng = random.Random(args.seed)
    failures = 0
    witness = None
    for _ in range(args.trials):
        found = trial(func, rand_case(rng, func.tag, args.max_degree), mf)
        if found is not None:
            failures += 1
            if witness is None:
                witness = found
    payload = {
        "check": check,
        "inputs": {
            "measure": args.measure,
            "functional": _functional_echo(func, args.functional),
            "max_degree": args.max_degree,
            "trials": args.trials,
            "seed": args.seed,
        },
        "failures": failures,
        key: failures == 0,
        **(witness or {}),
    }
    _emit(
        payload,
        args.json,
        [f"{claim} on {args.trials - failures}/{args.trials} random cases"],
    )
    return 0 if failures == 0 else 1


def _identity_trial(func, case, mf):
    report = check_identity(func, *case, mf)
    if report.equal:
        return None
    return {"lhs": format_scalar(report.lhs), "rhs": format_scalar(report.rhs)}


def _cs_trial(func, case, mf):
    # every case draws b, unused here, so a seed gives both checks the same cases
    report = check_cauchy_schwarz(func, *case[:2], mf)
    if report.holds:
        return None
    return {"lhs_squared": str(report.lhs_squared), "bound": str(report.bound)}


def _cmd_probe(args) -> int:
    degrees = _parse_degrees(args.degrees)
    mf = _load_measure(args.measure, degrees[-1])
    func = _load_functional(args.functional)
    element = _load_element(args.element, func)
    report = boundedness_probe(func, element, mf, degrees, args.tolerance)
    payload = {
        "check": "probe",
        "inputs": {
            "measure": args.measure,
            "functional": _functional_echo(func, args.functional),
            "element": args.element or "<generator>",
            "degrees": args.degrees,
            "tolerance": _fmt_float(args.tolerance),
        },
        "lambdas": [_fmt_float(v) for v in report.lambdas],
        "verdict": report.verdict,
        "diagnostics": {
            "pivots": list(report.pivots),
            "ranks": list(report.ranks),
            "max_bits": report.max_bits,
        },
    }
    lines = [
        f"degree {n}: lambda = {_fmt_float(v)}"
        for n, v in zip(report.degrees, report.lambdas)
    ] + [f"verdict: {report.verdict}"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_lemma_check(args) -> int:
    failures, worst = norm_bound_trials(args.trials, args.seed, args.max_dim)
    payload = {
        "check": "lemma-check",
        "inputs": {
            "trials": args.trials,
            "seed": args.seed,
            "max_dim": args.max_dim,
        },
        "certified": args.trials - failures,
        "failures": failures,
        "max_slack": _fmt_float(worst),
        "holds": failures == 0,
    }
    _emit(
        payload,
        args.json,
        [f"norm bound certified on {args.trials - failures}/{args.trials} matrices"],
    )
    return 0 if failures == 0 else 1


def _cmd_selftest(args) -> int:
    results = run_all()
    payload = {
        "check": "selftest",
        "results": [dataclasses.asdict(r) for r in results],
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

    def common(p, measure=False, functional=False):
        p.add_argument("--json", action="store_true", help="JSON report output")
        if measure:
            p.add_argument("--measure", required=True, help="measure JSON file")
        if functional:
            p.add_argument(
                "--functional",
                required=True,
                help="F0 | F1 | F2 | gauss-poly:<expr> | gauss-atoms:<file>",
            )

    p = sub.add_parser("normal-order", help="normal order an expression")
    p.add_argument(
        "expression",
        help="an expression that starts with '-' goes after '--': normal-order -- \"-q + d\"",
    )
    common(p)
    p.set_defaults(func=_cmd_normal_order)

    p = sub.add_parser("theta-map", help="apply the order-lowering map")
    p.add_argument(
        "--element",
        required=True,
        help="expression or JSON file; one that starts with '-' takes '=': --element=-d^2",
    )
    p.add_argument(
        "--max-degree",
        type=_int_in(0, MAX_DEGREE),
        default=None,
        help="also print the operator table",
    )
    common(p)
    p.set_defaults(func=_cmd_theta_map)

    # the trial commands, one row each: name, help, report key, claim, trial
    for check, help_text, key, claim, trial in (
        ("gns-check", "random exact representation-identity checks", "equal", "identity holds",
         _identity_trial),
        ("cs-check", "random exact Cauchy-Schwarz checks", "holds", "bound holds", _cs_trial),
    ):
        p = sub.add_parser(check, help=help_text)
        common(p, measure=True, functional=True)
        p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=200)
        p.add_argument("--seed", type=_int_in(0, None), default=0)
        p.add_argument("--max-degree", type=_int_in(0, MAX_DEGREE), default=6)
        p.set_defaults(func=partial(_run_trials, check=check, key=key, claim=claim, trial=trial))

    p = sub.add_parser("probe", help="finite-degree boundedness probe")
    common(p, measure=True, functional=True)
    p.add_argument(
        "--element",
        default=None,
        help="expression or JSON file; one that starts with '-' takes '=': --element=-d^2",
    )
    p.add_argument("--degrees", default="2..10", help="degree range A..B")
    p.add_argument("--tolerance", type=_tolerance, default=PLATEAU_TOLERANCE)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("lemma-check", help="numerical-radius norm bound on random matrices")
    common(p)
    p.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=100)
    p.add_argument("--seed", type=_int_in(0, None), default=0)
    p.add_argument("--max-dim", type=_int_in(1, MAX_DIM), default=8)
    p.set_defaults(func=_cmd_lemma_check)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return top


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, StarBimodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
