"""Command-line behaviour: reports, exit codes, determinism."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starbimod import cli
from starbimod.algebra import Scalar
from starbimod.cli import (
    MAX_DEGREE,
    MAX_DIM,
    MAX_TRIALS,
    build_arg_parser,
    main,
)
from starbimod import selftest
from starbimod.errors import NotPositiveError
from starbimod.gns import (
    CauchySchwarzReport,
    IdentityReport,
    check_cauchy_schwarz,
    check_identity,
)
from starbimod.moments import MomentFunctional
from starbimod.parser import MAX_NESTING
from starbimod.probes import BOUNDED, GROWTH, norm_bound_trials, plateau_verdict


@pytest.fixture
def mu3_file(tmp_path):
    path = tmp_path / "mu3.json"
    atoms = [{"x": x, "w": "1"} for x in ("-1", "0", "1")]
    path.write_text(json.dumps({"type": "atomic", "atoms": atoms}))
    return str(path)


@pytest.fixture
def gauss_file():
    # the standard Gaussian's moments m_0..m_64
    return str(Path(__file__).resolve().parents[1] / "measures" / "gauss64.json")


class TestNormalOrder:
    def test_pinned_example(self, capsys):
        assert main(["normal-order", "d*q - q*d"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_json_report(self, capsys):
        assert main(["normal-order", "--json", "d*q"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == "normal-order"
        assert report["canonical"] == "q*d + 1"

    def test_parse_error_exit_code(self, capsys):
        assert main(["normal-order", "q +"]) == 2
        assert "error" in capsys.readouterr().err

    def test_huge_exponent_refused(self, capsys):
        assert main(["normal-order", "q^100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "exceeds the limit" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_nested_power_refused(self, capsys):
        assert main(["normal-order", "(q^8)^9"]) == 2
        assert "offset 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expression",
        ["1" * 5000, "q^" + "9" * 5000, "((2^64)^64)^64", "((2^64)^64)^64*d"],
    )
    def test_numbers_beyond_the_digit_limit_refused(self, capsys, expression):
        for argv in (["normal-order", expression], ["theta-map", "--element", expression]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "limit" in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    def test_zero_denominator_is_a_parse_error(self, capsys):
        assert main(["normal-order", "1/0"]) == 2
        err = capsys.readouterr().err
        assert "zero denominator" in err
        assert "Traceback" not in err


class TestLeadingMinus:
    """An expression that starts with '-' is read as an option unless it
    follows '--' or is attached to its option with '=', as the README says."""

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["normal-order", "--", "-1/2*q"], "-1/2*q"),
            (["normal-order", "--", "-q + d"], "-q + d"),
            (["normal-order", "--json", "--", "-d*q"], None),
            (["theta-map", "--element=-d^2"], "-i*d"),
        ],
    )
    def test_documented_forms_exit_0(self, capsys, argv, out):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        if out is None:
            assert json.loads(printed)["canonical"] == "-q*d - 1"
        else:
            assert printed.strip() == out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normal-order", "-1/2*q"], "the following arguments are required: expression"),
            (["theta-map", "--element", "-d^2"], "argument --element: expected one argument"),
        ],
    )
    def test_bare_forms_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err


class TestThetaMap:
    def test_image_of_generator(self, capsys):
        assert main(["theta-map", "--element", "d^2"]) == 0
        assert capsys.readouterr().out.strip() == "i*d"

    def test_table(self, capsys):
        code = main(
            ["theta-map", "--element", "d^2", "--max-degree", "2", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["image"] == "i*d"
        assert report["table"][0] == []
        assert report["table"][1] == ["1i"]

    def test_rejects_high_order(self, capsys):
        assert main(["theta-map", "--element", "d^3"]) == 2

    def test_element_from_file(self, capsys, tmp_path):
        path = tmp_path / "elem.json"
        path.write_text(
            json.dumps({"tag": "d2", "terms": [[["1"], ["0", "1"]]]})
        )
        assert main(["theta-map", "--element", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "i*q*d + i"


class TestChecks:
    def test_gns_check_passes(self, capsys, mu3_file):
        code = main(
            [
                "gns-check",
                "--measure",
                mu3_file,
                "--functional",
                "F0",
                "--max-degree",
                "6",
                "--trials",
                "50",
                "--seed",
                "42",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equal"] is True

    def test_gns_check_gauss_variant(self, capsys, mu3_file):
        code = main(
            [
                "gns-check",
                "--measure",
                mu3_file,
                "--functional",
                "gauss-poly:q^2-1",
                "--trials",
                "25",
                "--seed",
                "1",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["gns-check", "cs-check", "probe"])
    def test_echoed_functional_replays(self, capsys, tmp_path, mu3_file, command):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"values": ["1", "-1/2", "0"]}))
        argv = [command, "--measure", mu3_file, "--json", "--functional"]
        if command != "probe":
            argv[1:1] = ["--trials", "3"]
        for functional in ("gauss-poly:i*q + 1/2*q^2 - (2 - 3*i)*q^3", f"gauss-atoms:{values}"):
            assert main(argv + [functional]) == 0
            echoed = json.loads(capsys.readouterr().out)["inputs"]["functional"]
            assert main(argv + [echoed]) == 0
            assert json.loads(capsys.readouterr().out)["inputs"]["functional"] == echoed

    def test_cs_check_passes(self, capsys, mu3_file):
        code = main(
            [
                "cs-check",
                "--measure",
                mu3_file,
                "--functional",
                "F1",
                "--trials",
                "40",
                "--seed",
                "7",
            ]
        )
        assert code == 0

    def test_gns_check_failure_exits_1_with_its_witness(self, capsys, monkeypatch, mu3_file):
        """The third of five cases fails: exit 1, one failure, and its two sides."""
        reports = []

        def third_fails(*args):
            report = check_identity(*args)
            if len(reports) == 2:
                report = IdentityReport(report.lhs, report.rhs + Scalar(Fraction(1, 3), -1))
            reports.append(report)
            return report

        monkeypatch.setattr(cli, "check_identity", third_fails)
        argv = ["gns-check", "--measure", mu3_file, "--functional", "F1",
                "--trials", "5", "--seed", "4", "--json"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert len(reports) == 5
        witness = reports[2]
        assert (report["failures"], report["equal"]) == (1, False)
        assert (report["lhs"], report["rhs"]) == (str(witness.lhs), str(witness.rhs))
        assert witness.lhs != witness.rhs

    def test_cs_check_failure_exits_1_with_its_witness(self, capsys, monkeypatch, mu3_file):
        """The third of five cases fails in each run: exit 1, one failure, and its exact sides."""
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) % 5 == 3:
                return CauchySchwarzReport(Fraction(169, 9), Fraction(-1, 2))
            return check_cauchy_schwarz(*args)

        monkeypatch.setattr(cli, "check_cauchy_schwarz", third_fails)
        argv = ["cs-check", "--measure", mu3_file, "--functional", "F2",
                "--trials", "5", "--seed", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().out.strip() == "bound holds on 4/5 random cases"
        assert main(argv + ["--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 10
        assert (report["failures"], report["holds"]) == (1, False)
        assert (report["lhs_squared"], report["bound"]) == ("169/9", "-1/2")

    def test_deterministic_reports(self, capsys, mu3_file):
        args = [
            "gns-check",
            "--measure",
            mu3_file,
            "--functional",
            "F2",
            "--trials",
            "20",
            "--seed",
            "5",
            "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_indefinite_measure_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "moments", "values": ["1", "0", "-1"]}))
        code = main(
            ["gns-check", "--measure", str(bad), "--functional", "F0",
             "--max-degree", "1", "--trials", "1", "--seed", "0"]
        )
        assert code == 2

    def test_zero_denominator_measure_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "moments", "values": ["1", "1/0", "2"]}))
        code = main(
            ["gns-check", "--measure", str(bad), "--functional", "F0",
             "--max-degree", "1", "--trials", "1", "--seed", "0"]
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_measure_with_decimal_digits_of_any_script(self, capsys, tmp_path):
        # the moments (1/3)^k at 2k, 0 at odd indices: atoms +-1/sqrt(3) with weights 1/2
        path = tmp_path / "arabic.json"
        values = ["١", "٠", "1/٣", "٠", "1/٩", "٠", "1/٢٧", "٠", "1/٨١"]
        path.write_text(json.dumps({"type": "moments", "values": values}))
        code = main(
            ["gns-check", "--measure", str(path), "--functional", "F0",
             "--max-degree", "1", "--trials", "1", "--seed", "0"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_unknown_functional(self, capsys, mu3_file):
        code = main(
            ["gns-check", "--measure", mu3_file, "--functional", "F9",
             "--trials", "1", "--seed", "0"]
        )
        assert code == 2

    def test_gauss_atoms_functional(self, capsys, mu3_file, tmp_path):
        weights = tmp_path / "weights.json"
        weights.write_text(json.dumps({"values": ["1", "1/2", "2"]}))
        code = main(
            [
                "gns-check",
                "--measure",
                mu3_file,
                "--functional",
                f"gauss-atoms:{weights}",
                "--trials",
                "25",
                "--seed",
                "3",
            ]
        )
        assert code == 0

    def test_text_flag_is_unknown(self, capsys, mu3_file):
        # text is the default output; --text is no option
        with pytest.raises(SystemExit) as exc:
            main(["cs-check", "--measure", mu3_file, "--functional", "F0",
                  "--trials", "5", "--seed", "2", "--text"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "unrecognized arguments: --text" in captured.err.strip().splitlines()[-1]


class TestProbe:
    def test_growth_detected_on_gaussian(self, capsys, gauss_file):
        code = main(
            [
                "probe",
                "--measure",
                gauss_file,
                "--functional",
                "F1",
                "--element",
                "d^2",
                "--degrees",
                "2..10",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "GrowthDetected"
        assert len(report["lambdas"]) == 9

    def test_bounded_on_atoms(self, capsys, mu3_file):
        code = main(
            [
                "probe",
                "--measure",
                mu3_file,
                "--functional",
                "gauss-poly:q",
                "--degrees",
                "2..8",
                "--json",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Bounded"

    @pytest.mark.parametrize(
        "measure, functional, pivots, ranks",
        [
            ("mu3", "gauss-poly:q", [0, 1, 2], [3] * 7),
            ("gauss", "F1", list(range(8)), list(range(3, 9))),
        ],
    )
    def test_json_diagnostics(
        self, capsys, mu3_file, gauss_file, measure, functional, pivots, ranks
    ):
        path = mu3_file if measure == "mu3" else gauss_file
        top = 2 + len(ranks) - 1
        argv = ["probe", "--measure", path, "--functional", functional]
        argv += ["--degrees", f"2..{top}"]
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["check", "inputs", "lambdas", "verdict", "diagnostics"]
        diagnostics = report["diagnostics"]
        assert diagnostics["pivots"] == pivots
        assert diagnostics["ranks"] == ranks
        assert isinstance(diagnostics["max_bits"], int) and diagnostics["max_bits"] > 0
        # text output is the lambdas and the verdict only
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"degree {n}: lambda = {v}" for n, v in zip(range(2, top + 1), report["lambdas"])
        ] + [f"verdict: {report['verdict']}"]

    def test_bad_degree_range(self, capsys, mu3_file):
        code = main(
            ["probe", "--measure", mu3_file, "--functional", "F0",
             "--element", "d^2", "--degrees", "10..2"]
        )
        assert code == 2

    def test_negative_low_degree_refused(self, capsys, mu3_file):
        code = main(
            ["probe", "--measure", mu3_file, "--functional", "F0",
             "--degrees=-1..4"]
        )
        assert code == 2
        assert "negative degree" in capsys.readouterr().err

    def test_top_degree_above_cap_refused(self, capsys, mu3_file):
        # the tower is built at its top degree at once, so a huge range
        # must be refused before any Gram is allocated
        for top in (MAX_DEGREE + 1, 100000):
            code = main(
                ["probe", "--measure", mu3_file, "--functional", "F0",
                 "--degrees", f"2..{top}"]
            )
            assert code == 2
            assert "exceeds the limit" in capsys.readouterr().err

    def test_top_degree_at_cap_runs(self, capsys, mu3_file):
        code = main(
            ["probe", "--measure", mu3_file, "--functional", "gauss-poly:1",
             "--degrees", f"{MAX_DEGREE - 2}..{MAX_DEGREE}"]
        )
        assert code == 0
        assert "verdict: Bounded" in capsys.readouterr().out


class TestProbeTolerance:
    ARGV = ["probe", "--functional", "gauss-poly:q", "--degrees", "2..6"]

    @pytest.mark.parametrize("value", ["-1", "-1e-9", "nan", "inf", "-inf", "abc"])
    def test_bad_tolerance_refused(self, capsys, mu3_file, value):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV + ["--measure", mu3_file, f"--tolerance={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--tolerance" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize("value", ["0", "1e-3"])
    def test_valid_tolerance_keeps_verdict(self, capsys, mu3_file, value):
        code = main(self.ARGV + ["--measure", mu3_file, "--tolerance", value])
        assert code == 0
        assert "verdict: Bounded" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_plateau_verdict_rejects(self, value):
        with pytest.raises(ValueError):
            plateau_verdict([1.0, 1.0, 1.0], value)

    def test_plateau_verdict_at_zero_tolerance(self):
        assert plateau_verdict([1.0, 2.0, 2.0, 2.0], 0.0) == BOUNDED
        assert plateau_verdict([1.0, 2.0, 2.0, 2.5], 0.0) == GROWTH


class TestSelftestReport:
    @staticmethod
    def _fake(index, passed):
        return f"fake-{index}", lambda: (passed, "detail")

    def test_json_results_carry_elapsed_time(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CHECKS", (self._fake(1, True), self._fake(2, True))
        )
        assert main(["selftest", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        for entry, index in zip(report["results"], (1, 2)):
            assert list(entry) == ["index", "name", "passed", "detail", "elapsed_s"]
            assert entry["index"] == index
            assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0

    def test_text_output_and_exit_code_unchanged(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CHECKS", (self._fake(1, True), self._fake(2, False))
        )
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS   1 fake-1: detail",
            "FAIL   2 fake-2: detail",
        ]

    def test_a_raising_criterion_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        def cauchy_schwarz():
            raise NotPositiveError("matrix is not hermitian")

        monkeypatch.setattr(
            selftest,
            "ALL_CHECKS",
            (self._fake(1, True), ("cauchy-schwarz", cauchy_schwarz), self._fake(3, True)),
        )
        assert main(["selftest"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "PASS   1 fake-1: detail",
            "FAIL   2 cauchy-schwarz: raised NotPositiveError: matrix is not hermitian",
            "PASS   3 fake-3: detail",
        ]
        assert err == ""
        assert main(["selftest", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in report["results"]]
        assert names == ["fake-1", "cauchy-schwarz", "fake-3"]


class TestLemmaCheck:
    def test_small_run(self, capsys):
        code = main(["lemma-check", "--trials", "5", "--seed", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["failures"] == 0
        assert report["certified"] == 5

    def test_reports_the_real_slack(self, capsys):
        assert main(["lemma-check", "--json", "--seed", "0", "--trials", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        _, worst = norm_bound_trials(50, 0, 8)
        assert report["max_slack"] == f"{worst:.17g}"
        assert float(report["max_slack"]) < 0


MEASURE = "<measure>"


def _argv(argv, measure):
    return [measure if a == MEASURE else a for a in argv]


class TestSizeArguments:
    """Negative and oversized size arguments exit 2 before any work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gns-check", "--measure", MEASURE, "--functional", "F0", "--max-degree", "-1"],
            ["cs-check", "--measure", MEASURE, "--functional", "F0", "--max-degree", "-1"],
            ["theta-map", "--element", "d^2", "--max-degree", "-3"],
            ["lemma-check", "--max-dim", "0"],
            ["gns-check", "--measure", MEASURE, "--functional", "F0", "--trials", "-5"],
            ["cs-check", "--measure", MEASURE, "--functional", "F0", "--trials", "0"],
            ["lemma-check", "--trials", "-1"],
            ["lemma-check", "--seed", "-1"],
            ["gns-check", "--measure", MEASURE, "--functional", "F0", "--seed", "-1"],
            ["cs-check", "--measure", MEASURE, "--functional", "F0", "--seed", "-1"],
        ],
    )
    def test_below_range_refused(self, capsys, mu3_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(_argv(argv, mu3_file))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [ln for ln in err.splitlines() if "error:" in ln] == err.strip().splitlines()[-1:]
        assert "must be at least" in err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta-map", "--element", "d^2", "--max-degree", str(MAX_DEGREE + 1)],
            ["theta-map", "--element", "d^2", "--max-degree", "100000"],
            ["gns-check", "--measure", MEASURE, "--functional", "F0",
             "--max-degree", str(MAX_DEGREE + 1)],
            ["cs-check", "--measure", MEASURE, "--functional", "F0",
             "--max-degree", str(MAX_DEGREE + 1)],
            ["lemma-check", "--max-dim", str(MAX_DIM + 1)],
            ["gns-check", "--measure", MEASURE, "--functional", "F0",
             "--trials", str(MAX_TRIALS + 1)],
            ["cs-check", "--measure", MEASURE, "--functional", "F0",
             "--trials", str(MAX_TRIALS + 1)],
            ["lemma-check", "--trials", str(MAX_TRIALS + 1)],
        ],
    )
    def test_above_cap_refused(self, capsys, mu3_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(_argv(argv, mu3_file))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "exceeds the limit" in err.strip().splitlines()[-1]

    def test_theta_map_table_at_cap(self, capsys):
        code = main(
            ["theta-map", "--element", "d^2", "--max-degree", str(MAX_DEGREE), "--json"]
        )
        assert code == 0
        table = json.loads(capsys.readouterr().out)["table"]
        assert len(table) == MAX_DEGREE + 1
        assert table[MAX_DEGREE] == ["0"] * (MAX_DEGREE - 1) + [f"{MAX_DEGREE}i"]

    @pytest.mark.parametrize("command", ["gns-check", "cs-check"])
    def test_check_degree_at_cap(self, capsys, mu3_file, command):
        code = main(
            [command, "--measure", mu3_file, "--functional", "F0",
             "--max-degree", str(MAX_DEGREE), "--trials", "2", "--seed", "4"]
        )
        assert code == 0
        assert "2/2" in capsys.readouterr().out

    def test_lemma_dim_at_cap(self, capsys):
        code = main(
            ["lemma-check", "--max-dim", str(MAX_DIM), "--trials", "2", "--seed", "1"]
        )
        assert code == 0
        assert "2/2" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gns-check", "cs-check", "lemma-check"])
    def test_trials_at_cap_accepted(self, mu3_file, command):
        # a full run at the cap takes minutes, so only the parse, which
        # holds the cap check, is exercised
        argv = [command, "--trials", str(MAX_TRIALS)]
        if command != "lemma-check":
            argv += ["--measure", mu3_file, "--functional", "F0"]
        args = build_arg_parser().parse_args(argv)
        assert args.trials == MAX_TRIALS


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


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestContract:
    """Every argv ends in exit 0 or 2, never in a traceback."""

    @given(_expressions, st.sampled_from(["normal-order", "theta-map"]))
    @settings(max_examples=120, deadline=None)
    def test_random_expressions(self, expression, command):
        argv = [command, expression] if command == "normal-order" else [command, "--element", expression]
        code, out, err = _run(argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.strip()
        else:
            assert out.strip() and err == ""

    # str.isdigit accepts '²', which int() refuses; a number is decimal digits only
    @pytest.mark.parametrize(
        "expression, offset", [("²", 0), ("q^²", 2), ("1/²", 2), ("2²", 1)]
    )
    @pytest.mark.parametrize("command", ["normal-order", "theta-map"])
    def test_non_decimal_digits_refused_at_their_offset(self, expression, offset, command):
        argv = [command, expression] if command == "normal-order" else [command, "--element", expression]
        code, out, err = _run(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"(offset {offset})" in err
        assert len(err.strip().splitlines()) == 1

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert _run(["normal-order", "٣*q"]) == (0, "3*q\n", "")


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
        code, out, err = _run(argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.strip()
        else:
            assert out.strip() and err == ""


FILE = "<file>"


class TestMalformedJson:
    """Wrongly shaped JSON inputs exit 2 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["gns-check", "--measure", FILE, "--functional", "F0"], [1, 2, 3]),
            (
                ["cs-check", "--measure", FILE, "--functional", "F0"],
                {"type": "moments", "values": [1, 0, 1]},
            ),
            (
                ["gns-check", "--measure", FILE, "--functional", "F0"],
                {"type": "atomic", "atoms": {"x": "1", "w": "1"}},
            ),
            (["gns-check", "--measure", MEASURE, "--functional", f"gauss-atoms:{FILE}"], [1]),
            (
                ["probe", "--measure", MEASURE, "--functional", f"gauss-atoms:{FILE}"],
                {"values": ["1/0"]},
            ),
            (["probe", "--measure", MEASURE, "--functional", "F0", "--element", FILE], [1]),
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, tmp_path, mu3_file, argv, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = [a.replace(FILE, str(path)) for a in _argv(argv, mu3_file)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


DEEP_EXPRESSION = "(" * 300 + "q" + ")" * 300


class TestDeepNesting:
    """Input nested past the parser's limit or the JSON decoder's recursion
    limit exits 2 with one error line, never with a RecursionError."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["normal-order", DEEP_EXPRESSION],
            ["theta-map", "--element", DEEP_EXPRESSION],
            ["gns-check", "--measure", MEASURE, "--functional", f"gauss-poly:{DEEP_EXPRESSION}"],
            ["gns-check", "--measure", FILE, "--functional", "F0"],
            ["probe", "--measure", MEASURE, "--functional", "F0", "--element", FILE],
            ["theta-map", "--element", FILE],
            ["cs-check", "--measure", MEASURE, "--functional", f"gauss-atoms:{FILE}"],
        ],
    )
    def test_exit_2_with_one_error_line(self, tmp_path, mu3_file, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = [a.replace(FILE, str(path)) for a in _argv(argv, mu3_file)]
        code, out, err = _run(argv)
        assert code == 2
        assert out == "" and "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "expression", ["(q+d+q*d)^64", "(q+d+q*d)^32*(q+d+q*d)^32", "(q+d)^64*(q+d)^64"]
    )
    def test_too_many_term_pairs_exit_2_within_a_second(self, expression):
        start = time.perf_counter()
        code, out, err = _run(["normal-order", expression])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == "" and "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "term pairs" in lines[0]

    def test_nesting_at_the_limit_runs(self, capsys):
        at_limit = "(" * MAX_NESTING + "q" + ")" * MAX_NESTING
        assert main(["normal-order", at_limit]) == 0
        assert capsys.readouterr().out.strip() == "q"
        assert main(["normal-order", f"({at_limit})"]) == 2
        assert f"(offset {MAX_NESTING})" in capsys.readouterr().err


class TestProbeMomentRange:
    """Moments far outside the double range still give a verdict."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "values",
        [
            [BIG, "0", BIG, "0", "3" + "0" * 400],
            [f"1/{BIG}", "0", f"1/{BIG}", "0", f"3/{BIG}"],
        ],
        ids=["1e400", "1e-400"],
    )
    def test_scaled_gaussian_moments(self, capsys, tmp_path, values):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"type": "moments", "values": values}))
        argv = ["probe", "--measure", str(path), "--functional", "F0", "--degrees", "0..2"]
        assert main(argv) == 0
        # F0 of d^2 is the Gram form itself, so every lambda is 1
        assert capsys.readouterr().out.splitlines() == [
            "degree 0: lambda = 1",
            "degree 1: lambda = 1",
            "degree 2: lambda = 1",
            "verdict: Bounded",
        ]


    def test_lambda_below_the_double_range_refused(self, capsys, tmp_path):
        # q acts with eigenvalues 10^-400 and 2*10^-400, far below any double
        atoms = [{"x": f"1/{self.BIG}", "w": "1"}, {"x": f"2/{self.BIG}", "w": "1"}]
        path = tmp_path / "tiny-atoms.json"
        path.write_text(json.dumps({"type": "atomic", "atoms": atoms}))
        argv = ["probe", "--measure", str(path), "--functional", "gauss-poly:q", "--degrees", "0..2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "double range" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_lambda_beyond_the_double_range_refused(self, capsys, tmp_path):
        path = tmp_path / "far-atom.json"
        path.write_text(json.dumps({"type": "atomic", "atoms": [{"x": self.BIG, "w": "1"}]}))
        argv = ["probe", "--measure", str(path), "--functional", "gauss-poly:q", "--degrees", "0..2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "double range" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestNonRealMoments:
    """A moments file with a non-real value is refused at load by every measure command."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gns-check", "--functional", "F0"],
            ["cs-check", "--functional", "F0"],
            ["probe", "--functional", "F0", "--degrees", "0..2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_with_one_error_line(self, capsys, tmp_path, argv):
        path = tmp_path / "complex-moments.json"
        path.write_text(json.dumps({"type": "moments", "values": ["1", "1+1i", "1"]}))
        assert main([*argv, "--measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read measure {path}: moments of a positive functional must be real\n"
        )


MU3 = str(Path(__file__).resolve().parents[1] / "measures" / "mu3.json")


class TestInputRefusals:
    """Refusals of a functional, a degree range or an element: exit 2 with one error line."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["--functional", "gauss-poly:d", "--degrees", "2..6"],
                "error: expected a polynomial in q, got 'd'",
            ),
            (
                ["--functional", "F0", "--degrees", "2-6"],
                "error: bad degree range '2-6'; expected A..B",
            ),
            (
                ["--functional", "F0", "--degrees", "a..b"],
                "error: bad degree range 'a..b'; expected A..B",
            ),
            (
                ["--functional", "F0", "--degrees", "2..3"],
                "error: need at least three degrees for a verdict",
            ),
        ],
        ids=["weight-with-d", "range-without-dots", "range-not-integers", "two-degrees"],
    )
    def test_probe_refusal(self, capsys, argv, line):
        assert main(["probe", "--measure", MU3, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_theta_map_refuses_a_gaussian_element(self, capsys, tmp_path):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps({"tag": "gauss", "terms": [[["1"], ["1"]]]}))
        assert main(["theta-map", "--element", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: theta-map needs an element of the d^2 span\n"


# Random measure JSON for the measure-driven commands: moments and atoms
# far beyond the double range either way, non-real and invalid literals,
# negative and zero weights, repeated atoms, short moment lists, and the
# wrong shapes.
_BIG = "1" + "0" * 400
_rationals = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from([_BIG, f"-{_BIG}", f"1/{_BIG}", f"3/{_BIG}", "1/2", "-7/3"]),
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
        st.sampled_from(["1", _BIG, f"1/{_BIG}"]),
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
    """gns-check, cs-check and probe end in exit 0, 1 or 2 on any measure JSON."""

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
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            lines = err.strip().splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert out.strip() and err == ""


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
    """theta-map --element <file> ends in exit 0 or 2 on any element JSON."""

    @given(_elements_json, st.booleans(), st.sampled_from([None, 0, 3]))
    @settings(max_examples=100, deadline=None)
    def test_random_elements(self, tmp_path_factory, element, as_json, max_degree):
        path = tmp_path_factory.getbasetemp() / "contract-element.json"
        path.write_text(json.dumps(element))
        argv = ["theta-map", "--element", str(path)]
        argv += ["--json"] if as_json else []
        argv += ["--max-degree", str(max_degree)] if max_degree is not None else []
        code, out, err = _run(argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            lines = err.strip().splitlines()
            assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert out.strip() and err == ""
