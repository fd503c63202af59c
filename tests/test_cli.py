"""Command-line behaviour: reports, exit codes, determinism."""

import json

import pytest

from starbimod.cli import (
    MAX_DEGREE,
    MAX_DIM,
    MAX_TRIALS,
    _check_limits,
    build_arg_parser,
    main,
)
from starbimod import selftest
from starbimod.moments import MomentFunctional
from starbimod.probes import BOUNDED, GROWTH, plateau_verdict
from starbimod.sampling import mu3


@pytest.fixture
def mu3_file(tmp_path):
    path = tmp_path / "mu3.json"
    path.write_text(json.dumps(mu3().to_json()))
    return str(path)


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(MomentFunctional.gaussian(64).to_json()))
    return str(path)


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

    def test_zero_denominator_is_a_parse_error(self, capsys):
        assert main(["normal-order", "1/0"]) == 2
        err = capsys.readouterr().err
        assert "zero denominator" in err
        assert "Traceback" not in err


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

    def test_explicit_text_flag(self, capsys, mu3_file):
        code = main(
            ["cs-check", "--measure", mu3_file, "--functional", "F0",
             "--trials", "5", "--seed", "2", "--text"]
        )
        assert code == 0
        assert "5/5" in capsys.readouterr().out


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
        def check():
            return selftest.CheckResult(index, f"fake-{index}", passed, "detail")

        return check

    def test_json_results_carry_elapsed_time(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CHECKS", (self._fake(1, True), self._fake(2, True))
        )
        assert main(["selftest", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        for entry, index in zip(report["results"], (1, 2)):
            assert set(entry) == {"index", "name", "passed", "detail", "elapsed_s"}
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


class TestLemmaCheck:
    def test_small_run(self, capsys):
        code = main(["lemma-check", "--trials", "5", "--seed", "3", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["failures"] == 0


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
        ],
    )
    def test_below_range_refused(self, capsys, mu3_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(_argv(argv, mu3_file))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
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
        assert main(_argv(argv, mu3_file)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --")
        assert "exceeds the limit" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

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
        # a full run at the cap takes minutes, so only the gate is exercised
        argv = [command, "--trials", str(MAX_TRIALS)]
        if command != "lemma-check":
            argv += ["--measure", mu3_file, "--functional", "F0"]
        args = build_arg_parser().parse_args(argv)
        assert args.trials == MAX_TRIALS
        _check_limits(args)
