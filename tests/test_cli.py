"""Command-line behaviour: reports, exit codes, determinism and refusals.

Every CLI call goes through ``cli_contract.run`` or ``report``, which assert
the CLI contract on it.  Each refusal is one row of ``REFUSALS``, pinned by
its argv and the exact last line of its stderr.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_contract import report, run
from starbimod import cli, selftest
from starbimod.algebra import Scalar
from starbimod.cli import MAX_DEGREE, MAX_DIM, MAX_TRIALS, build_arg_parser
from starbimod.errors import NotPositiveError
from starbimod.gns import (
    CauchySchwarzReport,
    IdentityReport,
    check_cauchy_schwarz,
    check_identity,
)
from starbimod.moments import MomentFunctional
from starbimod.parser import MAX_NESTING
from starbimod.probes import norm_bound_trials

MEASURES = Path(__file__).resolve().parents[1] / "measures"
MU3 = str(MEASURES / "mu3.json")  # atoms -1, 0 and 1, each of weight 1
GAUSS64 = str(MEASURES / "gauss64.json")  # the standard Gaussian's moments m_0..m_64


# A fake ``cli.main`` for each way to break the contract; the runner must
# refuse each.  A fake that raises SystemExit stands for an argparse refusal.
def _fake_main(code, out="", err="", by_argparse=False):
    def main(argv):
        print(out, end="")
        print(err, end="", file=sys.stderr)
        if by_argparse:
            raise SystemExit(code)
        return code

    return main


CONTRACT_BREAKERS = {
    "exit-3": _fake_main(3, out="report\n"),
    "traceback": _fake_main(
        2, err="Traceback (most recent call last):\nerror: x\n", by_argparse=True
    ),
    "stdout-on-exit-2": _fake_main(2, out="partial\n", err="error: bad input\n"),
    "two-error-lines": _fake_main(2, err="error: one\nerror: two\n", by_argparse=True),
    "no-error-prefix": _fake_main(2, err="note: error: bad input\n"),
    "stderr-on-exit-0": _fake_main(0, out="report\n", err="warning\n"),
}


class TestRunner:
    @pytest.mark.parametrize("name", CONTRACT_BREAKERS)
    def test_a_broken_contract_fails(self, monkeypatch, name):
        monkeypatch.setattr(cli, "main", CONTRACT_BREAKERS[name])
        with pytest.raises(AssertionError):
            run(["normal-order", "q"])


FILE = "<path>"  # the row's input file, in its argv and its line
DEEP_EXPRESSION = "(" * 300 + "q" + ")" * 300
DEEP_JSON = "[" * 100_000 + "]" * 100_000
BIG = "1" + "0" * 400
GNS = ["gns-check", "--measure", MU3, "--functional"]
CS = ["cs-check", "--measure", MU3, "--functional"]
PROBE = ["probe", "--measure", MU3, "--functional"]
ONE_TRIAL = ["--max-degree", "1", "--trials", "1", "--seed", "0"]
TOLERANCE = ["probe", "--functional", "gauss-poly:q", "--degrees", "2..6", "--measure", MU3]
DIGITS = "error: number of 5000 digits exceeds the limit of 1000"
TOWER = "error: result has a number of more than 1000 digits, exceeding the limit (offset 8)"
TERM_PAIRS = (
    "error: product of factors of 81 and 81 terms makes 6561 term pairs, "
    "exceeding the limit of 4225"
)
NESTED = "error: parentheses nested more than 100 deep (offset 100)"
TOO_DEEP = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
NOT_REAL = {"type": "moments", "values": ["1", "1+1i", "1"]}
NOT_REAL_LINE = "moments of a positive functional must be real"
ABOVE_DEGREE = f"{MAX_DEGREE + 1} exceeds the limit of {MAX_DEGREE}"
ABOVE_TRIALS = f"{MAX_TRIALS + 1} exceeds the limit of {MAX_TRIALS}"


def _argparse(command, flag, message):
    return f"starbimod {command}: error: argument {flag}: {message}"


def _by_name(*rows):
    """``name -> (argv, input file or None, last stderr line)``; a repeated name fails here."""
    names = [row[0] for row in rows]
    assert len(set(names)) == len(names), "a refusal name is given twice"
    return {name: (argv, content, line) for name, argv, content, line in rows}


# The input file is JSON, or raw text when given as a string.
REFUSALS = _by_name(
    # expressions
    ("dangling-plus", ["normal-order", "q +"], None,
     "error: unexpected 'end of input' (offset 3)"),
    ("huge-exponent", ["normal-order", "q^100000000"], None,
     "error: power 100000000 of a degree-1 base exceeds the limit of 64 (offset 2)"),
    ("nested-power", ["normal-order", "(q^8)^9"], None,
     "error: power 9 of a degree-8 base exceeds the limit of 64 (offset 6)"),
    ("long-literal", ["normal-order", "1" * 5000], None, f"{DIGITS} (offset 0)"),
    ("long-literal-element", ["theta-map", "--element", "1" * 5000], None, f"{DIGITS} (offset 0)"),
    ("long-exponent", ["normal-order", "q^" + "9" * 5000], None, f"{DIGITS} (offset 2)"),
    ("long-exponent-element", ["theta-map", "--element", "q^" + "9" * 5000], None,
     f"{DIGITS} (offset 2)"),
    ("power-tower", ["normal-order", "((2^64)^64)^64"], None, TOWER),
    ("power-tower-element", ["theta-map", "--element", "((2^64)^64)^64"], None, TOWER),
    ("power-tower-times-d", ["normal-order", "((2^64)^64)^64*d"], None, TOWER),
    ("power-tower-times-d-element", ["theta-map", "--element", "((2^64)^64)^64*d"], None, TOWER),
    ("zero-denominator", ["normal-order", "1/0"], None, "error: zero denominator (offset 2)"),
    # str.isdigit accepts '²', which int() refuses; a number is decimal digits only
    ("superscript", ["normal-order", "²"], None, "error: unexpected character '²' (offset 0)"),
    ("superscript-element", ["theta-map", "--element", "²"], None,
     "error: unexpected character '²' (offset 0)"),
    ("superscript-exponent", ["normal-order", "q^²"], None,
     "error: unexpected character '²' (offset 2)"),
    ("superscript-exponent-element", ["theta-map", "--element", "q^²"], None,
     "error: unexpected character '²' (offset 2)"),
    ("superscript-denominator", ["normal-order", "1/²"], None,
     "error: expected digits after '/' (offset 2)"),
    ("superscript-denominator-element", ["theta-map", "--element", "1/²"], None,
     "error: expected digits after '/' (offset 2)"),
    ("superscript-digit", ["normal-order", "2²"], None,
     "error: unexpected character '²' (offset 1)"),
    ("superscript-digit-element", ["theta-map", "--element", "2²"], None,
     "error: unexpected character '²' (offset 1)"),
    ("deep-expression", ["normal-order", DEEP_EXPRESSION], None, NESTED),
    ("deep-expression-element", ["theta-map", "--element", DEEP_EXPRESSION], None, NESTED),
    ("deep-gauss-poly", [*GNS, f"gauss-poly:{DEEP_EXPRESSION}"], None, NESTED),
    ("nesting-past-the-limit",
     ["normal-order", "(" * (MAX_NESTING + 1) + "q" + ")" * (MAX_NESTING + 1)], None, NESTED),
    ("term-pairs-of-a-power", ["normal-order", "(q+d+q*d)^64"], None, f"{TERM_PAIRS} (offset 10)"),
    ("term-pairs-of-two-powers", ["normal-order", "(q+d+q*d)^32*(q+d+q*d)^32"], None,
     f"{TERM_PAIRS} (offset 10)"),
    ("term-pairs-of-a-product", ["normal-order", "(q+d)^64*(q+d)^64"], None,
     f"{TERM_PAIRS} (offset 6)"),
    # an expression that starts with '-' is read as an option unless it follows
    # '--' or is attached to its option with '=', as the README says
    ("bare-leading-minus", ["normal-order", "-1/2*q"], None,
     "starbimod normal-order: error: the following arguments are required: expression"),
    ("bare-leading-minus-element", ["theta-map", "--element", "-d^2"], None,
     _argparse("theta-map", "--element", "expected one argument")),
    # elements
    ("theta-map-of-d3", ["theta-map", "--element", "d^3"], None,
     "error: d-degree 3 exceeds 2; not in the d^2 span"),
    ("theta-map-of-a-gaussian-element", ["theta-map", "--element", FILE],
     {"tag": "gauss", "terms": [[["1"], ["1"]]]},
     "error: theta-map needs an element of the d^2 span"),
    # each literal is within the digit cap, but their sum is not
    ("theta-map-image-past-the-digit-cap", ["theta-map", "--element", FILE],
     {"tag": "d2", "terms": [[[f"1/{10**999 + k}"], ["1"]] for k in (1, 3, 7)]},
     "error: the image has a number of more than 1000 digits"),
    ("element-json-list", [*PROBE, "F0", "--element", FILE], [1],
     f'error: cannot read element {FILE}: an element is an object with "tag" and a "terms" list'),
    ("deep-element-json", [*PROBE, "F0", "--element", FILE], DEEP_JSON,
     f"error: cannot read element {FILE}: {TOO_DEEP}"),
    ("deep-element-json-theta-map", ["theta-map", "--element", FILE], DEEP_JSON,
     f"error: cannot read element {FILE}: {TOO_DEEP}"),
    # measures
    ("indefinite-measure", ["gns-check", "--measure", FILE, "--functional", "F0", *ONE_TRIAL],
     {"type": "moments", "values": ["1", "0", "-1"]}, "error: negative pivot -1"),
    ("measure-zero-denominator",
     ["gns-check", "--measure", FILE, "--functional", "F0", *ONE_TRIAL],
     {"type": "moments", "values": ["1", "1/0", "2"]},
     f"error: cannot read measure {FILE}: bad scalar literal: '1/0' (offset 0)"),
    ("measure-json-list", ["gns-check", "--measure", FILE, "--functional", "F0"], [1, 2, 3],
     f"error: cannot read measure {FILE}: "
     'a measure has "type" "atomic" or "moments", got a JSON list'),
    ("measure-json-numbers", ["cs-check", "--measure", FILE, "--functional", "F0"],
     {"type": "moments", "values": [1, 0, 1]},
     f"error: cannot read measure {FILE}: expected a scalar literal string, got 1 (offset 0)"),
    ("measure-atoms-object", ["gns-check", "--measure", FILE, "--functional", "F0"],
     {"type": "atomic", "atoms": {"x": "1", "w": "1"}},
     f'error: cannot read measure {FILE}: "atoms" must be a list of {{"x": .., "w": ..}} objects'),
    ("deep-measure-json", ["gns-check", "--measure", FILE, "--functional", "F0"], DEEP_JSON,
     f"error: cannot read measure {FILE}: {TOO_DEEP}"),
    ("non-real-moments-gns-check", ["gns-check", "--functional", "F0", "--measure", FILE],
     NOT_REAL, f"error: cannot read measure {FILE}: {NOT_REAL_LINE}"),
    ("non-real-moments-cs-check", ["cs-check", "--functional", "F0", "--measure", FILE],
     NOT_REAL, f"error: cannot read measure {FILE}: {NOT_REAL_LINE}"),
    ("non-real-moments-probe",
     ["probe", "--functional", "F0", "--degrees", "0..2", "--measure", FILE],
     NOT_REAL, f"error: cannot read measure {FILE}: {NOT_REAL_LINE}"),
    # q acts with eigenvalues 10^-400 and 2*10^-400, far below any double
    ("lambda-below-the-double-range",
     ["probe", "--measure", FILE, "--functional", "gauss-poly:q", "--degrees", "0..2"],
     {"type": "atomic", "atoms": [{"x": f"1/{BIG}", "w": "1"}, {"x": f"2/{BIG}", "w": "1"}]},
     "error: lambda is below the normal double range"),
    ("lambda-beyond-the-double-range",
     ["probe", "--measure", FILE, "--functional", "gauss-poly:q", "--degrees", "0..2"],
     {"type": "atomic", "atoms": [{"x": BIG, "w": "1"}]},
     "error: lambda is above the double range"),
    # functionals
    ("unknown-functional", [*GNS, "F9", "--trials", "1", "--seed", "0"], None,
     "error: unknown functional 'F9'; use F0, F1, F2, gauss-poly:<expr>, gauss-atoms:<file>"),
    ("weight-with-d", [*PROBE, "gauss-poly:d", "--degrees", "2..6"], None,
     "error: expected a polynomial in q, got 'd'"),
    ("atom-values-json-list", [*GNS, f"gauss-atoms:{FILE}"], [1],
     f'error: cannot read atom weights {FILE}: expected an object with a "values" list'),
    ("atom-values-zero-denominator", [*PROBE, f"gauss-atoms:{FILE}"], {"values": ["1/0"]},
     f"error: cannot read atom weights {FILE}: bad scalar literal: '1/0' (offset 0)"),
    ("deep-atom-values-json", [*CS, f"gauss-atoms:{FILE}"], DEEP_JSON,
     f"error: cannot read atom weights {FILE}: {TOO_DEEP}"),
    # degree ranges; the tower is built at its top degree at once, so a huge
    # range must be refused before any Gram is allocated
    ("empty-degree-range", [*PROBE, "F0", "--element", "d^2", "--degrees", "10..2"], None,
     "error: empty degree range '10..2'"),
    ("negative-low-degree", [*PROBE, "F0", "--degrees=-1..4"], None,
     "error: negative degree in range '-1..4'"),
    ("top-degree-above-the-cap", [*PROBE, "F0", "--degrees", f"2..{MAX_DEGREE + 1}"], None,
     f"error: top degree {MAX_DEGREE + 1} exceeds the limit of {MAX_DEGREE}"),
    ("top-degree-far-above-the-cap", [*PROBE, "F0", "--degrees", "2..100000"], None,
     f"error: top degree 100000 exceeds the limit of {MAX_DEGREE}"),
    ("range-without-dots", [*PROBE, "F0", "--degrees", "2-6"], None,
     "error: bad degree range '2-6'; expected A..B"),
    ("range-not-integers", [*PROBE, "F0", "--degrees", "a..b"], None,
     "error: bad degree range 'a..b'; expected A..B"),
    ("two-degrees", [*PROBE, "F0", "--degrees", "2..3"], None,
     "error: need at least three degrees for a verdict"),
    # flags, refused by argparse
    ("text-flag", [*CS, "F0", "--trials", "5", "--seed", "2", "--text"], None,
     "starbimod: error: unrecognized arguments: --text"),
    ("tolerance-negative", [*TOLERANCE, "--tolerance=-1"], None,
     _argparse("probe", "--tolerance", "must be finite and >= 0, got -1")),
    ("tolerance-slightly-negative", [*TOLERANCE, "--tolerance=-1e-9"], None,
     _argparse("probe", "--tolerance", "must be finite and >= 0, got -1e-9")),
    ("tolerance-nan", [*TOLERANCE, "--tolerance=nan"], None,
     _argparse("probe", "--tolerance", "must be finite and >= 0, got nan")),
    ("tolerance-inf", [*TOLERANCE, "--tolerance=inf"], None,
     _argparse("probe", "--tolerance", "must be finite and >= 0, got inf")),
    ("tolerance-minus-inf", [*TOLERANCE, "--tolerance=-inf"], None,
     _argparse("probe", "--tolerance", "must be finite and >= 0, got -inf")),
    ("tolerance-not-a-number", [*TOLERANCE, "--tolerance=abc"], None,
     _argparse("probe", "--tolerance", "not a number: 'abc'")),
    ("trials-not-an-integer", ["lemma-check", "--trials", "x"], None,
     _argparse("lemma-check", "--trials", "not an integer: 'x'")),
    # size flags below their minimum
    ("gns-check-degree-below", [*GNS, "F0", "--max-degree", "-1"], None,
     _argparse("gns-check", "--max-degree", "must be at least 0, got -1")),
    ("cs-check-degree-below", [*CS, "F0", "--max-degree", "-1"], None,
     _argparse("cs-check", "--max-degree", "must be at least 0, got -1")),
    ("theta-map-degree-below", ["theta-map", "--element", "d^2", "--max-degree", "-3"], None,
     _argparse("theta-map", "--max-degree", "must be at least 0, got -3")),
    ("lemma-check-dim-below", ["lemma-check", "--max-dim", "0"], None,
     _argparse("lemma-check", "--max-dim", "must be at least 1, got 0")),
    ("gns-check-trials-below", [*GNS, "F0", "--trials", "-5"], None,
     _argparse("gns-check", "--trials", "must be at least 1, got -5")),
    ("cs-check-trials-below", [*CS, "F0", "--trials", "0"], None,
     _argparse("cs-check", "--trials", "must be at least 1, got 0")),
    ("lemma-check-trials-below", ["lemma-check", "--trials", "-1"], None,
     _argparse("lemma-check", "--trials", "must be at least 1, got -1")),
    ("lemma-check-seed-below", ["lemma-check", "--seed", "-1"], None,
     _argparse("lemma-check", "--seed", "must be at least 0, got -1")),
    ("gns-check-seed-below", [*GNS, "F0", "--seed", "-1"], None,
     _argparse("gns-check", "--seed", "must be at least 0, got -1")),
    ("cs-check-seed-below", [*CS, "F0", "--seed", "-1"], None,
     _argparse("cs-check", "--seed", "must be at least 0, got -1")),
    # size flags above their cap
    ("theta-map-degree-above",
     ["theta-map", "--element", "d^2", "--max-degree", str(MAX_DEGREE + 1)], None,
     _argparse("theta-map", "--max-degree", ABOVE_DEGREE)),
    ("theta-map-degree-far-above",
     ["theta-map", "--element", "d^2", "--max-degree", "100000"], None,
     _argparse("theta-map", "--max-degree", f"100000 exceeds the limit of {MAX_DEGREE}")),
    ("gns-check-degree-above", [*GNS, "F0", "--max-degree", str(MAX_DEGREE + 1)], None,
     _argparse("gns-check", "--max-degree", ABOVE_DEGREE)),
    ("cs-check-degree-above", [*CS, "F0", "--max-degree", str(MAX_DEGREE + 1)], None,
     _argparse("cs-check", "--max-degree", ABOVE_DEGREE)),
    ("lemma-check-dim-above", ["lemma-check", "--max-dim", str(MAX_DIM + 1)], None,
     _argparse("lemma-check", "--max-dim", f"{MAX_DIM + 1} exceeds the limit of {MAX_DIM}")),
    ("gns-check-trials-above", [*GNS, "F0", "--trials", str(MAX_TRIALS + 1)], None,
     _argparse("gns-check", "--trials", ABOVE_TRIALS)),
    ("cs-check-trials-above", [*CS, "F0", "--trials", str(MAX_TRIALS + 1)], None,
     _argparse("cs-check", "--trials", ABOVE_TRIALS)),
    ("lemma-check-trials-above", ["lemma-check", "--trials", str(MAX_TRIALS + 1)], None,
     _argparse("lemma-check", "--trials", ABOVE_TRIALS)),
)


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(tmp_path, name):
    argv, content, line = REFUSALS[name]
    path = tmp_path / "input.json"
    if content is not None:
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text, encoding="utf-8")
    _, _, err = run([arg.replace(FILE, str(path)) for arg in argv], codes=(2,))
    assert err.splitlines()[-1] == line.replace(FILE, str(path))


@pytest.mark.parametrize(
    "name", ["term-pairs-of-a-power", "term-pairs-of-two-powers", "term-pairs-of-a-product"]
)
def test_too_many_term_pairs_exit_2_within_a_second(name):
    start = time.perf_counter()
    run(REFUSALS[name][0], codes=(2,))
    assert time.perf_counter() - start < 1.0


class TestNormalOrder:
    def test_pinned_example(self):
        assert run(["normal-order", "d*q - q*d"], codes=(0,))[1] == "1\n"

    def test_json_report(self):
        found = report(["normal-order", "d*q"])
        assert (found["check"], found["canonical"]) == ("normal-order", "q*d + 1")

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["normal-order", "--", "-1/2*q"], "-1/2*q"),
            (["normal-order", "--", "-q + d"], "-q + d"),
            (["normal-order", "--json", "--", "-d*q"], None),
            (["theta-map", "--element=-d^2"], "-i*d"),
        ],
    )
    def test_documented_leading_minus_forms_exit_0(self, argv, out):
        printed = run(argv, codes=(0,))[1]
        if out is None:
            assert json.loads(printed)["canonical"] == "-q*d - 1"
        else:
            assert printed == out + "\n"

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert run(["normal-order", "٣*q"], codes=(0,))[1] == "3*q\n"

    def test_nesting_at_the_limit_runs(self):
        at_limit = "(" * MAX_NESTING + "q" + ")" * MAX_NESTING
        assert run(["normal-order", at_limit], codes=(0,))[1] == "q\n"


class TestThetaMap:
    def test_image_of_generator(self):
        assert run(["theta-map", "--element", "d^2"], codes=(0,))[1] == "i*d\n"

    def test_table(self):
        found = report(["theta-map", "--element", "d^2", "--max-degree", "2"])
        assert found["image"] == "i*d"
        assert found["table"][:2] == [[], ["1i"]]

    def test_table_at_cap(self):
        table = report(["theta-map", "--element", "d^2", "--max-degree", str(MAX_DEGREE)])["table"]
        assert len(table) == MAX_DEGREE + 1
        assert table[MAX_DEGREE] == ["0"] * (MAX_DEGREE - 1) + [f"{MAX_DEGREE}i"]

    def test_element_from_file(self, tmp_path):
        path = tmp_path / "elem.json"
        path.write_text(json.dumps({"tag": "d2", "terms": [[["1"], ["0", "1"]]]}))
        assert run(["theta-map", "--element", str(path)], codes=(0,))[1] == "i*q*d + i\n"


class TestChecks:
    def test_gns_check_passes(self):
        argv = [*GNS, "F0", "--max-degree", "6", "--trials", "50", "--seed", "42"]
        assert report(argv)["equal"] is True

    def test_gns_check_gauss_variant(self):
        run([*GNS, "gauss-poly:q^2-1", "--trials", "25", "--seed", "1"], codes=(0,))

    def test_cs_check_passes(self):
        run(["cs-check", "--measure", MU3, "--functional", "F1", "--trials", "40", "--seed", "7"],
            codes=(0,))

    def test_gauss_atoms_functional(self, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"values": ["1", "1/2", "2"]}))
        run([*GNS, f"gauss-atoms:{weights}", "--trials", "25", "--seed", "3"], codes=(0,))

    @pytest.mark.parametrize("command", ["gns-check", "cs-check", "probe"])
    def test_echoed_functional_replays(self, tmp_path, command):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"values": ["1", "-1/2", "0"]}))
        argv = [command, "--measure", MU3, "--functional"]
        if command != "probe":
            argv[1:1] = ["--trials", "3"]
        for functional in ("gauss-poly:i*q + 1/2*q^2 - (2 - 3*i)*q^3", f"gauss-atoms:{values}"):
            echoed = report(argv + [functional])["inputs"]["functional"]
            assert report(argv + [echoed])["inputs"]["functional"] == echoed

    def test_gns_check_failure_exits_1_with_its_witness(self, monkeypatch):
        """The third of five cases fails: exit 1, one failure, and its two sides."""
        reports = []

        def third_fails(*args):
            report = check_identity(*args)
            if len(reports) == 2:
                report = IdentityReport(report.lhs, report.rhs + Scalar(Fraction(1, 3), -1))
            reports.append(report)
            return report

        monkeypatch.setattr(cli, "check_identity", third_fails)
        argv = ["gns-check", "--measure", MU3, "--functional", "F1",
                "--trials", "5", "--seed", "4", "--json"]
        found = json.loads(run(argv, codes=(1,))[1])
        assert len(reports) == 5
        witness = reports[2]
        assert (found["failures"], found["equal"]) == (1, False)
        assert (found["lhs"], found["rhs"]) == (str(witness.lhs), str(witness.rhs))
        assert witness.lhs != witness.rhs

    def test_cs_check_failure_exits_1_with_its_witness(self, monkeypatch):
        """The third of five cases fails in each run: exit 1, one failure, and its exact sides."""
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) % 5 == 3:
                return CauchySchwarzReport(Fraction(169, 9), Fraction(-1, 2))
            return check_cauchy_schwarz(*args)

        monkeypatch.setattr(cli, "check_cauchy_schwarz", third_fails)
        argv = ["cs-check", "--measure", MU3, "--functional", "F2",
                "--trials", "5", "--seed", "4"]
        assert run(argv, codes=(1,))[1] == "bound holds on 4/5 random cases\n"
        found = json.loads(run(argv + ["--json"], codes=(1,))[1])
        assert len(calls) == 10
        assert (found["failures"], found["holds"]) == (1, False)
        assert (found["lhs_squared"], found["bound"]) == ("169/9", "-1/2")

    def test_deterministic_reports(self):
        argv = [*GNS, "F2", "--trials", "20", "--seed", "5", "--json"]
        assert run(argv, codes=(0,)) == run(argv, codes=(0,))

    def test_measure_with_decimal_digits_of_any_script(self, tmp_path):
        # the moments (1/3)^k at 2k, 0 at odd indices: atoms +-1/sqrt(3) with weights 1/2
        path = tmp_path / "arabic.json"
        values = ["١", "٠", "1/٣", "٠", "1/٩", "٠", "1/٢٧", "٠", "1/٨١"]
        path.write_text(json.dumps({"type": "moments", "values": values}))
        run(["gns-check", "--measure", str(path), "--functional", "F0", *ONE_TRIAL], codes=(0,))

    @pytest.mark.parametrize("command", ["gns-check", "cs-check"])
    def test_check_degree_at_cap(self, command):
        argv = [command, "--measure", MU3, "--functional", "F0", "--max-degree", str(MAX_DEGREE)]
        assert "2/2" in run(argv + ["--trials", "2", "--seed", "4"], codes=(0,))[1]

    @pytest.mark.parametrize("command", ["gns-check", "cs-check", "lemma-check"])
    def test_trials_at_cap_accepted(self, command):
        # a full run at the cap takes minutes, so only the parse, which
        # holds the cap check, is exercised
        argv = [command, "--trials", str(MAX_TRIALS)]
        if command != "lemma-check":
            argv += ["--measure", MU3, "--functional", "F0"]
        assert build_arg_parser().parse_args(argv).trials == MAX_TRIALS


class TestProbe:
    def test_growth_detected_on_gaussian(self):
        argv = ["probe", "--measure", GAUSS64, "--functional", "F1", "--element", "d^2"]
        found = report(argv + ["--degrees", "2..10"])
        assert found["verdict"] == "GrowthDetected"
        assert len(found["lambdas"]) == 9

    def test_bounded_on_atoms(self):
        argv = ["probe", "--measure", MU3, "--functional", "gauss-poly:q", "--degrees", "2..8"]
        assert report(argv)["verdict"] == "Bounded"

    @pytest.mark.parametrize(
        "measure, functional, pivots, ranks",
        [
            (MU3, "gauss-poly:q", [0, 1, 2], [3] * 7),
            (GAUSS64, "F1", list(range(8)), list(range(3, 9))),
        ],
        ids=["mu3", "gauss"],
    )
    def test_json_diagnostics(self, measure, functional, pivots, ranks):
        top = 2 + len(ranks) - 1
        argv = ["probe", "--measure", measure, "--functional", functional]
        argv += ["--degrees", f"2..{top}"]
        found = report(argv)
        assert list(found) == ["check", "inputs", "lambdas", "verdict", "diagnostics"]
        diagnostics = found["diagnostics"]
        assert diagnostics["pivots"] == pivots
        assert diagnostics["ranks"] == ranks
        assert isinstance(diagnostics["max_bits"], int) and diagnostics["max_bits"] > 0
        # text output is the lambdas and the verdict only
        assert run(argv, codes=(0,))[1].splitlines() == [
            f"degree {n}: lambda = {v}" for n, v in zip(range(2, top + 1), found["lambdas"])
        ] + [f"verdict: {found['verdict']}"]

    def test_top_degree_at_cap_runs(self):
        argv = [*PROBE, "gauss-poly:1", "--degrees", f"{MAX_DEGREE - 2}..{MAX_DEGREE}"]
        assert "verdict: Bounded" in run(argv, codes=(0,))[1]

    @pytest.mark.parametrize("value", ["0", "1e-3"])
    def test_valid_tolerance_keeps_verdict(self, value):
        assert "verdict: Bounded" in run([*TOLERANCE, "--tolerance", value], codes=(0,))[1]

    @pytest.mark.parametrize("values", [
        [BIG, "0", BIG, "0", "3" + "0" * 400],
        [f"1/{BIG}", "0", f"1/{BIG}", "0", f"3/{BIG}"],
    ], ids=["1e400", "1e-400"])
    def test_moments_beyond_the_double_range_give_a_verdict(self, tmp_path, values):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"type": "moments", "values": values}))
        argv = ["probe", "--measure", str(path), "--functional", "F0", "--degrees", "0..2"]
        # F0 of d^2 is the Gram form itself, so every lambda is 1
        assert run(argv, codes=(0,))[1].splitlines() == [
            "degree 0: lambda = 1",
            "degree 1: lambda = 1",
            "degree 2: lambda = 1",
            "verdict: Bounded",
        ]


class TestSelftestReport:
    @staticmethod
    def _fake(index, passed):
        return f"fake-{index}", lambda: (passed, "detail")

    def test_json_results_carry_elapsed_time(self, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CHECKS", (self._fake(1, True), self._fake(2, True))
        )
        found = report(["selftest"])
        assert found["passed"] is True
        for entry, index in zip(found["results"], (1, 2)):
            assert list(entry) == ["index", "name", "passed", "detail", "elapsed_s"]
            assert entry["index"] == index
            assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0

    def test_text_output_and_exit_code_unchanged(self, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CHECKS", (self._fake(1, True), self._fake(2, False))
        )
        assert run(["selftest"], codes=(1,))[1].splitlines() == [
            "PASS   1 fake-1: detail",
            "FAIL   2 fake-2: detail",
        ]

    def test_a_raising_criterion_fails_and_the_rest_still_run(self, monkeypatch):
        def cauchy_schwarz():
            raise NotPositiveError("matrix is not hermitian")

        monkeypatch.setattr(
            selftest,
            "ALL_CHECKS",
            (self._fake(1, True), ("cauchy-schwarz", cauchy_schwarz), self._fake(3, True)),
        )
        assert run(["selftest"], codes=(1,))[1].splitlines() == [
            "PASS   1 fake-1: detail",
            "FAIL   2 cauchy-schwarz: raised NotPositiveError: matrix is not hermitian",
            "PASS   3 fake-3: detail",
        ]
        found = json.loads(run(["selftest", "--json"], codes=(1,))[1])
        names = [entry["name"] for entry in found["results"]]
        assert names == ["fake-1", "cauchy-schwarz", "fake-3"]


class TestLemmaCheck:
    def test_small_run(self):
        found = report(["lemma-check", "--trials", "5", "--seed", "3"])
        assert (found["holds"], found["failures"], found["certified"]) == (True, 0, 5)

    def test_reports_the_real_slack(self):
        found = report(["lemma-check", "--seed", "0", "--trials", "50"])
        _, worst = norm_bound_trials(50, 0, 8)
        assert found["max_slack"] == f"{worst:.17g}"
        assert float(found["max_slack"]) < 0

    def test_dim_at_cap(self):
        argv = ["lemma-check", "--max-dim", str(MAX_DIM), "--trials", "2", "--seed", "1"]
        assert "2/2" in run(argv, codes=(0,))[1]


# A random expression grammar for the CLI contract: literals up to and far
# beyond the digit limit (and the interpreter's int-string limit), zero
# denominators, powers at and beyond the exponent cap, and nested powers.
# A compound base takes only small or refused exponents, so each example
# stays fast.
_digits = st.one_of(
    st.integers(0, 10**12).map(str),
    st.sampled_from(["0", "00", "1" * 999, "7" * 1000, "9" * 1001, "1" * 5000]),
)
_literals = st.one_of(_digits, st.builds("{}/{}".format, _digits, _digits))
_refused = st.sampled_from(["65", "100000000", "9" * 5000])
_atoms = st.one_of(st.sampled_from(["q", "p", "d", "i", "(2^64)"]), _literals)
_atom_powers = st.builds(
    "{}^{}".format, _atoms, st.one_of(st.integers(0, 64).map(str), _refused)
)


def _compound(inner):
    return st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*"), inner),
        st.builds("({})^{}".format, inner, st.one_of(st.integers(0, 2).map(str), _refused)),
        st.builds("-{}".format, inner),
    )


_expressions = st.recursive(st.one_of(_atoms, _atom_powers), _compound, max_leaves=5)


class TestContract:
    """Every argv ends in exit 0 or 2, never in a traceback."""

    @given(_expressions, st.sampled_from(["normal-order", "theta-map"]))
    @settings(max_examples=120, deadline=None)
    def test_random_expressions(self, expression, command):
        if command == "normal-order":
            run([command, expression], codes=(0, 2))
        else:
            run([command, "--element", expression], codes=(0, 2))


# Flag values for lemma-check: valid ones, integers out of range, and text
# that is no integer (including one longer than int() accepts)
_NOT_INTEGERS = ["", "x", "1.5", "1e3", "0x10", "2 2", "9" * 5000]


def _flag_values(valid, out_of_range):
    return st.one_of(map(st.sampled_from, (valid, out_of_range, _NOT_INTEGERS)))


class TestLemmaContract:
    """lemma-check ends in exit 0 or 2, never in a traceback."""

    # --trials is always given: the default of 100 trials costs about 0.5 s a run
    @given(
        _flag_values(["1", "2", "3"], ["0", "-1", str(MAX_TRIALS + 1), str(10**30)]),
        st.none() | _flag_values(["0", "7", str(2**64)], ["-1", "-99"]),
        st.none()
        | _flag_values(["1", "3", str(MAX_DIM)], ["0", "-2", str(MAX_DIM + 1), str(10**30)]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_flags(self, trials, seed, max_dim, as_json):
        argv = ["lemma-check", "--trials", trials]
        for flag, value in (("--seed", seed), ("--max-dim", max_dim)):
            if value is not None:
                argv += [flag, value]
        if as_json:
            argv.append("--json")
        run(argv, codes=(0, 2))


# Random measure JSON for the measure-driven commands: moments and atoms
# far beyond the double range either way, non-real and invalid literals,
# negative and zero weights, repeated atoms, short moment lists, and the
# wrong shapes.
_rationals = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from([BIG, f"-{BIG}", f"1/{BIG}", f"3/{BIG}", "1/2", "-7/3"]),
)
_literals_json = st.one_of(
    _rationals,
    st.builds("{}+{}i".format, _rationals, _rationals),
    st.sampled_from(["i", "1/0", "0.5", "1e400", "", 1, 2.5, None, [1]]),
)
_wrong_shapes = st.sampled_from(
    [
        [1, 2, 3],
        "moments",
        None,
        {},
        {"type": "moments", "values": [1, 0, 1]},
        {"type": "moments", "values": "101"},
        {"type": "atomic", "atoms": {"x": "1", "w": "1"}},
        {"type": "atomic", "atoms": [["1", "1"]]},
        {"type": "atomic", "atoms": [{"x": "1"}]},
        {"type": "gaussian", "values": ["1"]},
    ]
)


def _gaussian_moments(scale: str, count: int) -> list[str]:
    values = MomentFunctional.gaussian(count).values
    return [str(v.re * Fraction(scale)) for v in values]


_measures_json = st.one_of(
    st.builds(
        lambda atoms: {"type": "atomic", "atoms": atoms},
        st.lists(
            st.fixed_dictionaries({"x": _rationals, "w": _rationals}),
            max_size=4,
        ),
    ),
    st.builds(
        lambda values: {"type": "moments", "values": values},
        st.lists(_literals_json, max_size=8),
    ),
    st.builds(
        lambda scale, count: {"type": "moments", "values": _gaussian_moments(scale, count)},
        st.sampled_from(["1", BIG, f"1/{BIG}"]),
        st.integers(1, 9),
    ),
    _wrong_shapes,
)
_atom_values_json = st.one_of(
    st.builds(lambda values: {"values": values}, st.lists(_rationals, max_size=4)),
    st.builds(lambda values: {"values": values}, st.lists(_literals_json, max_size=3)),
    _wrong_shapes,
)


class TestMeasureContract:
    """gns-check, cs-check and probe end in exit 0, 1 or 2 on any measure JSON.

    Every flag passed is valid, so a refusal is the CLI's own: one line.
    """

    @given(
        _measures_json,
        _atom_values_json,
        st.sampled_from(["gns-check", "cs-check", "probe"]),
        st.sampled_from(["F0", "F1", "F2", "gauss-poly:q", "gauss-poly:1", "gauss-atoms"]),
        st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_measures(self, tmp_path_factory, measure, atom_values, command, functional, degree):
        folder = tmp_path_factory.getbasetemp()
        measure_path = folder / "contract-measure.json"
        measure_path.write_text(json.dumps(measure))
        if functional == "gauss-atoms":
            values_path = folder / "contract-atom-values.json"
            values_path.write_text(json.dumps(atom_values))
            functional = f"gauss-atoms:{values_path}"
        argv = [command, "--measure", str(measure_path), "--functional", functional]
        if command == "probe":
            argv += ["--degrees", f"{degree}..{degree + 2}"]
        else:
            argv += ["--max-degree", str(degree), "--trials", "2"]
        assert len(run(argv)[2].splitlines()) <= 1


# Random element JSON for theta-map: literals up to and beyond the digit
# cap, bad tags, and the wrong shapes at every level.  Three or more terms
# over distinct 1000-digit denominators sum to a coefficient beyond the
# cap, though each literal is within it.
_AT_CAP = ["9" * 1000, *(f"1/{10**999 + k}" for k in (1, 3, 7, 9, 13))]
_element_literals = st.one_of(
    _literals_json, st.sampled_from(["9" * 4000, "1/" + "7" * 1001, *_AT_CAP])
)
_coefficients = st.one_of(st.lists(_element_literals, max_size=3), _element_literals)
_terms = st.lists(
    st.one_of(st.tuples(_coefficients, _coefficients).map(list), _coefficients),
    max_size=4,
)
_long_pairs = st.lists(st.sampled_from(_AT_CAP), min_size=1, max_size=2)
_elements_json = st.one_of(
    st.fixed_dictionaries(
        {"tag": st.sampled_from(["d2", "d2", "gauss", "D2", "", None, 1]), "terms": _terms}
    ),
    st.fixed_dictionaries(
        {"tag": st.just("d2"), "terms": st.lists(st.tuples(_long_pairs, _long_pairs).map(list), min_size=3, max_size=4)}
    ),
    st.sampled_from([[1], "d2", None, {}, {"tag": "d2"}, {"tag": "d2", "terms": {}}]),
)


class TestElementContract:
    """theta-map --element <file> ends in exit 0 or 2 on any element JSON.

    Every flag passed is valid, so a refusal is the CLI's own: one line.
    """

    @given(_elements_json, st.booleans(), st.sampled_from([None, 0, 3]))
    @settings(max_examples=100, deadline=None)
    def test_random_elements(self, tmp_path_factory, element, as_json, max_degree):
        path = tmp_path_factory.getbasetemp() / "contract-element.json"
        path.write_text(json.dumps(element))
        argv = ["theta-map", "--element", str(path)]
        argv += ["--json"] if as_json else []
        argv += ["--max-degree", str(max_degree)] if max_degree is not None else []
        assert len(run(argv, codes=(0, 2))[2].splitlines()) <= 1
