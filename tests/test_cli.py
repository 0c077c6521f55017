import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import medli.certify
import medli.cli
from conftest import (
    FIXED,
    FIXTURES,
    GOLDEN,
    GOLDEN_CASES,
    MALFORMED,
    NEAR_SINGULAR,
    ORTH,
    PI6,
    RANDOM_D4,
    SRC,
    run_cli,
)
from medli import certify_full, certify_simplified, random_ensemble, solve
from medli.cli import main
from medli.linalg import DEFAULT_TOL, haar_unitary
from medli.pgm import _measurement
from medli.serialize import (
    dumps,
    ensemble_from_doc,
    ensemble_to_doc,
    load_json,
    measurement_to_doc,
    povm_from_doc,
)


def run_inprocess(*argv, capsys=None):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    return code, out


class TestExitCodePartition:
    def test_valid_input_certified(self):
        code, out, _ = run_cli("solve", ORTH, "--quiet")
        assert code == 0
        assert json.loads(out)["success_prob"] == 1.0

    def test_malformed_json(self):
        code, out, err = run_cli("solve", MALFORMED, "--quiet")
        assert code == 2
        assert out == b""

    def test_malformed_json_diagnostic_names_location(self):
        code, _, err = run_cli("solve", MALFORMED)
        assert code == 2
        assert "line" in err

    def test_field_error_names_field(self, tmp_path):
        doc = json.loads(pathlib.Path(ORTH).read_text())
        doc["states"][1][0][1] = [0.0]
        bad = tmp_path / "bad_field.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli("solve", str(bad))
        assert code == 2
        assert "states[1]" in err

    def test_uncertified(self):
        # an absurd positivity bar cannot be met, so the result is uncertified
        code, out, _ = run_cli("solve", RANDOM_D4, "--tol-psd", "0.6", "--quiet")
        assert code == 3
        assert json.loads(out)["verdict"] != "Optimal"

    def test_numerical_failure(self):
        # the average state's condition number is beyond COND_LIMIT, so the PGM is refused
        code, out, err = run_cli("fixpoint", NEAR_SINGULAR)
        assert code == 4
        assert "numerical failure" in err

    def test_gen_signature_mismatch(self):
        code, _, err = run_cli("gen", "--dim", "3", "--signature", "2,2")
        assert code == 2

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_tolerance_flag(self, value):
        code, out, err = run_cli("solve", ORTH, "--tol-psd", value)
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and "tol_psd" in err

    @pytest.mark.parametrize(
        "command, value",
        [("solve", "0"), ("solve", "-3"), ("map", "0"), ("roundtrip", "0")],
        ids=["0", "-3", "map-forward", "roundtrip"],
    )
    def test_restarts_below_one(self, command, value):
        extra = ("--direction", "forward") if command == "map" else ()
        code, out, err = run_cli(command, RANDOM_D4, *extra, "--restarts", value)
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and "restarts must be at least 1" in err

    @pytest.mark.parametrize(
        "argv",
        [("map", RANDOM_D4, "--direction", "inverse"), ("solve", PI6, "--oracle")],
        ids=["map-inverse", "solve-oracle"],
    )
    def test_restarts_unread_without_solve(self, argv):
        # neither the inverse map nor the oracle reads --restarts
        code, out, err = run_cli(*argv, "--restarts", "0", "--quiet")
        assert code == 0, err
        assert json.loads(out)["verdict"] == "Optimal"

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", NEAR_SINGULAR),
            ("solve", PI6, "--oracle"),
            ("map", RANDOM_D4, "--direction", "forward"),
            ("roundtrip", RANDOM_D4),
        ],
        ids=["haar-starts", "oracle", "map-forward", "roundtrip"],
    )
    def test_negative_seed(self, argv):
        # past COND_LIMIT every start is a Haar unitary and the oracle draws its
        # grid at once; every command that may draw refuses the seed up front
        code, out, err = run_cli(*argv, "--seed", "-1")
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and "seed must be at least 0" in err

    @pytest.mark.parametrize(
        "field, where",
        [
            ("states", "ensemble.states[0][1][1]"),
            ("priors", "ensemble.priors[1]"),
            ("elements", "measurement.elements[1][0][0]"),
        ],
    )
    def test_oversized_integer_literal(self, tmp_path, field, where):
        # json reads 10**400 as an int that no float holds; the parser names the field
        ensemble = json.loads(pathlib.Path(ORTH).read_text())
        measurement = json.loads((GOLDEN / "solve_orthogonal.json").read_text())["measurement"]
        if field == "states":
            ensemble["states"][0][1][1][0] = 10**400
        elif field == "priors":
            ensemble["priors"][1] = 10**400
        else:
            measurement["elements"][1][0][0][1] = 10**400
        ensemble_path, measurement_path = tmp_path / "ensemble.json", tmp_path / "measurement.json"
        ensemble_path.write_text(json.dumps(ensemble))
        measurement_path.write_text(json.dumps(measurement))
        code, out, err = run_cli("certify", str(ensemble_path), str(measurement_path))
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and f"{where}: integer literal too large" in err

    def test_memory_error_is_exit_4(self, monkeypatch, capsys):
        # an allocation failure ends in the numerical-failure code and one line, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array")

        monkeypatch.setattr(medli.cli, "solve", exhausted)
        code = main(["solve", ORTH])
        out, err = capsys.readouterr()
        assert code == 4
        assert out == ""
        assert err == "out of memory: Unable to allocate 1.00 TiB for an array\n"

    @pytest.mark.parametrize(
        "argv", [("certify", ORTH, str(GOLDEN / "solve_orthogonal.json")), ("fixpoint", FIXED)]
    )
    def test_seed_only_where_read(self, argv):
        # certify and fixpoint draw no random numbers, so they take no --seed
        code, out, err = run_cli(*argv, "--seed", "3")
        assert code == 2
        assert out == b""
        assert "--seed" in err

    def test_oracle_outside_its_domain(self, tmp_path):
        ensemble = tmp_path / "d5.json"
        code, _, _ = run_cli(
            "gen", "--dim", "5", "--signature", "1,1,1,1,1", "--seed", "1", "--out", str(ensemble)
        )
        assert code == 0
        code, out, err = run_cli("solve", str(ensemble), "--oracle")
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and "oracle" in err

    def test_unwritable_out_path(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli("gen", "--dim", "2", "--signature", "1,1", "--out", str(target))
        assert code == 2
        assert err.startswith("input error:") and str(target) in err

    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_unwritable_out_rejected_before_solving(self, tmp_path, where):
        target = tmp_path / where
        code, out, err = run_cli("solve", RANDOM_D4, "--out", str(target))
        assert code == 2
        assert out == b""
        assert err.startswith("input error:") and str(target) in err
        assert "solve finished" not in err

    def test_nan_prior_is_input_error(self, tmp_path):
        # json accepts the NaN literal; the validator must reject the value
        doc = json.loads(pathlib.Path(ORTH).read_text())
        doc["priors"][0] = float("nan")
        bad = tmp_path / "nan_prior.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli("fixpoint", str(bad))
        assert code == 2
        assert out == b""
        assert err.startswith("input error:")

    def test_fixpoint_false_is_exit_3(self):
        code, out, _ = run_cli("fixpoint", RANDOM_D4, "--quiet")
        assert code == 3
        assert json.loads(out)["fixed_point"]["is_fixed"] is False

    def test_fixpoint_true_is_exit_0(self):
        code, out, _ = run_cli("fixpoint", FIXED, "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["fixed_point"]["is_fixed"] is True


class TestSolveCommand:
    def test_oracle_pi6(self):
        code, out, _ = run_cli("solve", PI6, "--oracle", "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["success_prob"] - 0.75) < 1e-6
        assert doc["verdict"] == "Optimal"

    def test_report_byte_stable(self):
        _, first, _ = run_cli("solve", RANDOM_D4, "--seed", "3", "--quiet")
        _, second, _ = run_cli("solve", RANDOM_D4, "--seed", "3", "--quiet")
        assert first == second

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["solve", ORTH, "--quiet", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(target.read_text())["success_prob"] == 1.0


class TestCertifyCommand:
    def _measurement_file(self, tmp_path, source, swap=False):
        code, out, _ = run_cli("solve", source, "--quiet")
        assert code == 0
        meas = json.loads(out)["measurement"]
        if swap:
            meas["elements"] = meas["elements"][::-1]
        path = tmp_path / ("meas_swapped.json" if swap else "meas.json")
        path.write_text(json.dumps(meas))
        return str(path)

    def test_optimal_measurement(self, tmp_path):
        meas = self._measurement_file(tmp_path, ORTH)
        code, out, _ = run_cli("certify", ORTH, meas, "--quiet")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Optimal"
        assert doc["simplified_verdict"] == "Optimal"
        assert doc["verdicts_agree"] is True

    def test_swapped_projectors_not_optimal(self, tmp_path):
        meas = self._measurement_file(tmp_path, ORTH, swap=True)
        code, out, _ = run_cli("certify", ORTH, meas, "--quiet")
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "NotOptimal"
        # the simplified route sees hermiticity 0, positivity min eig exactly 0:
        # inside the roundoff band, so Inconclusive rather than NotOptimal
        assert doc["simplified_verdict"] in ("NotOptimal", "Inconclusive")

    def test_non_projective_povm_has_no_simplified_verdict(self, tmp_path):
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        path = tmp_path / "halves.json"
        path.write_text(
            json.dumps({"schema_version": "med-li/1", "dim": 2, "elements": [half, half]})
        )
        code, out, _ = run_cli("certify", ORTH, str(path), "--quiet")
        assert code == 3
        doc = json.loads(out)
        assert doc["verdict"] == "NotOptimal"
        assert doc["simplified_verdict"] is None
        assert doc["verdicts_agree"] is None

    def test_ranks_count_eigenvalues_above_one_half(self, tmp_path):
        # within --tol-recon 1e-6 of a projector, the 5e-7 eigenvalue adds no
        # rank: the measurement's ranks are (1, 1), the states'
        elements = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [5e-7, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"schema_version": "med-li/1", "dim": 2, "elements": elements}))
        code, out, err = run_cli("certify", ORTH, str(path), "--tol-recon", "1e-6", "--quiet")
        assert code == 0, err
        assert json.loads(out)["simplified_verdict"] == "Optimal"

    def test_rank_mismatched_measurement_rejected(self, tmp_path):
        # fixed_point_d3 has signature (2,1); feed it projectors of ranks (1,2)
        meas = self._measurement_file(tmp_path, FIXED)
        doc = json.loads(pathlib.Path(meas).read_text())
        rng = np.random.default_rng(0)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(z)
        p1 = np.outer(q[:, 0], q[:, 0].conj())
        p2 = np.eye(3) - p1
        doc["elements"] = [
            [[[float(x.real), float(x.imag)] for x in row] for row in p]
            for p in (p1, p2)
        ]
        path = tmp_path / "rank_mismatch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli("certify", FIXED, str(path))
        assert code == 2
        assert "ranks" in err

    def test_pairs_the_measurement_once(self, monkeypatch, capsys):
        calls = []
        pair = medli.certify._pair

        def counting_pair(*args):
            calls.append(args)
            return pair(*args)

        monkeypatch.setattr(medli.certify, "_pair", counting_pair)
        code = main(["certify", ORTH, str(GOLDEN / "solve_orthogonal.json"), "--quiet"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["orth", "orth_swapped", "solve_random_d4", "haar_d6"])
    def test_report_reads_the_library_certifiers(self, case, tmp_path, capsys):
        # one certify_full report carries both verdicts, bit for bit what the
        # two public certifiers give on the parsed file
        if case == "haar_d6":
            ensemble = random_ensemble(6, (2, 2, 1, 1), seed=6)
            states = tmp_path / "states.json"
            states.write_text(dumps(ensemble_to_doc(ensemble)))
            haar = haar_unitary(6, np.random.default_rng(6))
            meas_doc = measurement_to_doc(_measurement(haar, ensemble, DEFAULT_TOL))
        elif case == "solve_random_d4":
            states = RANDOM_D4
            ensemble = ensemble_from_doc(load_json(RANDOM_D4)[0])
            meas_doc = measurement_to_doc(solve(ensemble).measurement)
        else:
            states = ORTH
            ensemble = ensemble_from_doc(load_json(ORTH)[0])
            meas_doc = load_json(GOLDEN / "solve_orthogonal.json")[0]["measurement"]
            if case == "orth_swapped":
                meas_doc["elements"] = meas_doc["elements"][::-1]
        meas = tmp_path / "meas.json"
        meas.write_text(dumps(meas_doc))
        povm = povm_from_doc(load_json(meas)[0])
        full, simplified = certify_full(ensemble, povm), certify_simplified(ensemble, povm)

        main(["certify", str(states), str(meas), "--quiet"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"] == {
            "stationarity": full.stationarity_residual,
            "min_slack_eig": full.min_slack_eig,
            "positivity_min_eig": full.positivity_min_eig,
            "hermiticity": full.hermiticity_residual,
        }
        assert doc["dual_value"] == full.dual_value
        assert doc["verdict"] == full.verdict
        assert doc["simplified_verdict"] == simplified.verdict

    @pytest.mark.parametrize("projective", [True, False])
    def test_mismatched_measurement_is_input_error(self, projective, tmp_path):
        # a qubit measurement against the d=3 states, projective or not
        if projective:
            elements = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                        [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        else:
            half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
            elements = [half, half]
        path = tmp_path / "qubit_meas.json"
        path.write_text(json.dumps({"schema_version": "med-li/1", "dim": 2, "elements": elements}))
        code, out, err = run_cli("certify", FIXED, str(path))
        assert code == 2
        assert out == b""
        assert "input error" in err and "does not match ensemble" in err


class TestMapCommand:
    def test_forward_on_fixed_point_returns_input(self, capsys):
        code, out = run_inprocess("map", FIXED, "--direction", "forward", "--quiet", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        image = ensemble_from_doc(doc["ensemble"])
        original = ensemble_from_doc(load_json(FIXED)[0])
        for a, b in zip(image.weighted_states(), original.weighted_states()):
            assert np.abs(a - b).max() < 1e-8

    def test_inverse_self_certifies(self, capsys):
        code, out = run_inprocess("map", RANDOM_D4, "--direction", "inverse", "--quiet", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Optimal"
        assert doc["measurement"] is not None
        assert doc["ensemble"]["dim"] == 4

    def test_inverse_pairs_the_measurement_once(self, monkeypatch, capsys):
        # the command reads the inverse map's report and certifies nothing again;
        # a pairing the maps made themselves would count too
        calls = []
        pair = medli.ensembles._pair

        def counting_pair(*args):
            calls.append(args)
            return pair(*args)

        for module in (medli.certify, medli.belavkin):
            monkeypatch.setattr(module, "_pair", counting_pair, raising=False)
        code = main(["map", RANDOM_D4, "--direction", "inverse", "--quiet"])
        capsys.readouterr()
        assert code == 0
        assert len(calls) == 1

    def test_orthogonal_pair_identity_both_directions(self, capsys):
        original = ensemble_from_doc(load_json(ORTH)[0])
        for direction in ("forward", "inverse"):
            code, out = run_inprocess("map", ORTH, "--direction", direction, "--quiet", capsys=capsys)
            assert code == 0
            image = ensemble_from_doc(json.loads(out)["ensemble"])
            for a, b in zip(image.weighted_states(), original.weighted_states()):
                assert np.abs(a - b).max() < 1e-10


class TestRoundtripCommand:
    def test_orthogonal_pair(self, capsys):
        code, out = run_inprocess("roundtrip", ORTH, "--quiet", capsys=capsys)
        assert code == 0
        res = json.loads(out)["residuals"]
        assert res["forward_then_inverse"] < 1e-10
        assert res["inverse_then_forward"] < 1e-10

    def test_random_d4(self, capsys):
        code, out = run_inprocess("roundtrip", RANDOM_D4, "--quiet", capsys=capsys)
        assert code == 0
        res = json.loads(out)["residuals"]
        assert res["forward_then_inverse"] < 1e-7
        assert res["inverse_then_forward"] < 1e-7


class TestGenCommand:
    def test_reproducible_bytes(self):
        _, first, _ = run_cli("gen", "--dim", "2", "--signature", "1,1", "--seed", "7", "--quiet")
        _, second, _ = run_cli("gen", "--dim", "2", "--signature", "1,1", "--seed", "7", "--quiet")
        assert first == second

    def test_output_parses_as_valid_ensemble(self, capsys):
        code, out = run_inprocess(
            "gen", "--dim", "4", "--signature", "2,2", "--seed", "0", "--quiet", capsys=capsys
        )
        assert code == 0
        ens = ensemble_from_doc(json.loads(out))
        assert ens.rank_signature == (2, 2)

    def test_fixed_point_flag_output_passes_fixpoint(self, tmp_path, capsys):
        target = tmp_path / "fp.json"
        code = main(["gen", "--dim", "4", "--signature", "2,2", "--seed", "3",
                     "--fixed-point", "--quiet", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        code = main(["fixpoint", str(target), "--quiet"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["fixed_point"]["is_fixed"] is True


class TestSerializationRoundtrip:
    @pytest.mark.parametrize("fixture", ["orthogonal_pair", "theta_pi6_pair", "random_d4"])
    def test_parse_serialize_identity(self, fixture):
        path = FIXTURES / f"{fixture}.json"
        doc, raw = load_json(path)
        ens = ensemble_from_doc(doc)
        again = ensemble_to_doc(ens, label=doc.get("label"))
        assert dumps(again).encode() == raw


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(name):
    """Byte equality against committed reports; UPDATE_GOLDEN=1 regenerates."""
    expected, argv = GOLDEN_CASES[name]
    code, out, err = run_cli(*argv)
    assert code == expected, err
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_bytes(out)
    assert path.exists(), f"golden file {name} missing; run with UPDATE_GOLDEN=1"
    assert out == path.read_bytes()


# Runs the closed-form path, solve and the CLI in a fresh interpreter, so no
# other test's imports reach sys.modules. numpy.ma (pulled in by np.unique,
# among others) costs about 1 MB of resident memory on every medli process.
NO_MASKED_ARRAYS = """
import sys
import medli
from medli.cli import main
from medli.serialize import ensemble_from_doc, load_json

ens = ensemble_from_doc(load_json(sys.argv[1])[0])
pre_image, measurement, report, _ = medli.inverse_map(ens)
medli.certify_simplified(pre_image, measurement)
medli.certify_full(pre_image, measurement)
medli.forward_map(pre_image, measurement, report)
medli.fixpoint_check(ens)
assert medli.solve(ens).certified
assert main(["fixpoint", sys.argv[2], "--quiet"]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_library_and_cli_do_not_import_numpy_ma():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, RANDOM_D4, FIXED], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
