import json

import numpy as np
import pytest

from elaswave import cli
from elaswave.cli import run

from oracles import C_R_POISSON


@pytest.fixture()
def iso_file(tmp_path):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({"name": "iso", "density": 1.0,
                                "stiffness": {"type": "isotropic",
                                              "lambda": 2.0, "mu": 1.0}}))
    return str(path)


@pytest.fixture()
def poisson_file(tmp_path):
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps({"name": "poisson", "density": 1.0,
                                "stiffness": {"type": "isotropic",
                                              "lambda": 1.0, "mu": 1.0}}))
    return str(path)


@pytest.fixture()
def stack_file(tmp_path):
    doc = {
        "layers": [{"material": {"name": "soft", "density": 1.0,
                                 "stiffness": {"type": "isotropic",
                                               "lambda": 2.0, "mu": 1.0}},
                    "thickness": 1.0}],
        "halfspace": {"name": "rigid", "density": 100.0,
                      "stiffness": {"type": "isotropic",
                                    "lambda": 800.0, "mu": 400.0}},
    }
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_BAD_FRAMES = (("--eta", "1", "0", "--tau", "nan"),
               ("--eta", "1", "0", "--tau", "inf"),
               ("--eta", "nan", "0", "--tau", "-1"))


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, error", [
        *(((cmd, *bad), 2, "InvalidInput")
          for cmd in ("impedance", "factorize", "classify", "reflect", "trace")
          for bad in _BAD_FRAMES),
        (("impedance", "--eta", "1e160", "0", "--tau", "-1"), 3, "CoefficientOverflow"),
        (("impedance", "--eta", "0.3", "0", "--tau", "1e200"), 3, "CoefficientOverflow"),
        (("slowness", "--direction", "0", "0", "0"), 2, "ValidationError"),
        (("slowness", "--direction", "nan", "0", "1"), 2, "ValidationError"),
    ])
    def test_non_finite_and_overflowing_inputs(self, capsys, iso_file, stack_file,
                                               argv, code, error):
        # Typed errors, not a bare ValueError from scipy, a NaN reaching
        # LAPACK or an uncaught OverflowError.
        source = ("--stack", stack_file) if argv[0] == "trace" else ("--material", iso_file)
        got, _, err = invoke(capsys, argv[0], *source, *argv[1:])
        assert got == code
        assert json.loads(err)["error"] == error

    def test_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        m = np.eye(6)
        m[0, 5] = 1.0
        bad.write_text(json.dumps({"name": "bad", "density": 1.0,
                                   "stiffness": {"type": "voigt",
                                                 "matrix": m.tolist()}}))
        code, _, err = invoke(capsys, "material", "--validate", str(bad))
        assert code == 2
        assert json.loads(err)["error"] == "AsymmetricVoigtMatrix"

    @pytest.mark.parametrize("stiffness", [
        {"type": "isotropic", "lambda": "two", "mu": 1.0},
        {"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0, "alpha": "x",
         "beta": 0.05, "gamma": 0.02, "axis": [0.0, 0.0, 1.0]},
        {"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0, "alpha": 0.05,
         "beta": 0.05, "gamma": 0.02, "axis": ["a", "b", "c"]},
        {"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0, "alpha": 0.05,
         "beta": 0.05, "gamma": 0.02, "axis": [0.0, 1.0]},
        {"type": "voigt", "matrix": [[1.0] * 6] * 5 + [[1.0, 2.0]]},
        {"type": "isotropic", "lambda": None, "mu": 1.0},
        {"type": "isotropic", "lambda": "nan", "mu": 1.0},
        {"type": "voigt"},
    ], ids=["lambda", "ti_modulus", "axis_text", "axis_length", "ragged_voigt",
            "null_lambda", "nan_lambda", "no_matrix"])
    def test_malformed_material_numbers(self, capsys, tmp_path, stiffness):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "density": 1.0, "stiffness": stiffness}))
        code, _, err = invoke(capsys, "material", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "MaterialFileError"

    def test_lapack_failure_is_numerical(self, capsys, monkeypatch, iso_file):
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(cli._HANDLERS, "material", fail)
        code, _, err = invoke(capsys, "material", iso_file)
        assert code == 3
        assert json.loads(err)["error"] == "LinAlgError"

    def test_numerical_domain_error(self, capsys, iso_file):
        # glancing frame: tau = c_s |eta|
        code, _, err = invoke(capsys, "factorize", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-1")
        assert code == 3
        assert json.loads(err)["error"] == "GlancingSpectrum"

    def test_zero_eta_is_validation_error(self, capsys, iso_file):
        # a zero eta has no direction to normalize
        for argv in (("rayleigh", "--material", iso_file),
                     ("stoneley", "--material-plus", iso_file,
                      "--material-minus", iso_file)):
            code, _, err = invoke(capsys, *argv, "--eta", "0", "0")
            assert code == 2, argv[0]
            assert json.loads(err)["error"] == "ValidationError", argv[0]

    def test_trace_source_layer_out_of_range(self, capsys, stack_file):
        code, _, err = invoke(capsys, "trace", "--stack", stack_file,
                              "--eta", "0", "0", "--tau", "-1",
                              "--source-layer", "9")
        assert code == 2
        assert json.loads(err)["error"] == "ValidationError"

    @pytest.mark.parametrize("floor, code", [("-1", 2), ("nan", 2), ("inf", 2), ("0", 0)])
    def test_trace_amplitude_floor(self, capsys, stack_file, floor, code):
        # -1 and nan would floor nothing and inf every child; 0 floors nothing
        got, out, err = invoke(capsys, "trace", "--stack", stack_file,
                               "--eta", "0.3", "0", "--tau", "-1.2",
                               "--amplitude-floor", floor)
        assert got == code
        if code:
            assert out == "" and json.loads(err)["error"] == "ValidationError"
        else:
            assert json.loads(out)["events"]

    def test_trace_rejects_stack_without_free_surface(self, capsys, stack_file):
        with open(stack_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["free_surface"] = False
        with open(stack_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = invoke(capsys, "trace", "--stack", stack_file,
                                "--eta", "0", "0", "--tau", "-1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "StackFileError"

    def test_success(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "material", iso_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["harmonic"]["lambda"] == "2"


class TestSubcommands:
    def test_rayleigh_value(self, capsys, poisson_file):
        code, out, _ = invoke(capsys, "rayleigh", "--material", poisson_file,
                              "--eta", "1", "0")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["tau_r"]) == pytest.approx(C_R_POISSON, abs=1e-4)

    def test_impedance_elliptic_hermitian(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "impedance", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-0.5")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["hermiticity_residual_on_ec"]) <= 1e-9
        assert doc["dim_ec"] == 3

    def test_factorize_outputs(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "factorize", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-1.5")
        doc = json.loads(out)
        assert code == 0
        assert float(doc["solvency_residual"]) < 1e-10
        assert len(doc["sigma"]) == 3

    def test_classify_grid_csv(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "classify", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-1.5",
                              "--grid", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eta_x,eta_y,tau,label,margin"
        assert len(lines) == 7
        assert all("mixed" in ln for ln in lines[1:])

    def test_reflect_csv(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "reflect", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-2.5",
                              "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eta_x,eta_y,tau,s_in,side,s_out")
        assert len(lines) >= 3
        assert float(lines[1].split(",")[-1]) < 1e-8   # balance residual

    def test_trace_and_arrivals(self, capsys, stack_file):
        code, out, _ = invoke(capsys, "arrivals", "--stack", stack_file,
                              "--eta", "0", "0", "--tau", "-1",
                              "--max-events", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,layer,mode_s,amplitude,flux"
        assert float(lines[1].split(",")[0]) == pytest.approx(2.0, rel=1e-9)

    def test_slowness(self, capsys, iso_file):
        code, out, _ = invoke(capsys, "slowness", "--material", iso_file,
                              "--direction", "0", "0", "1", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(2.0)
        assert float(row[4]) == pytest.approx(1.0)


class TestDeterminism:
    def test_byte_identical(self, capsys, iso_file):
        argv = ("impedance", "--material", iso_file,
                "--eta", "0.6", "0.2", "--tau", "-0.41")
        _, out1, _ = invoke(capsys, *argv)
        _, out2, _ = invoke(capsys, *argv)
        assert out1 == out2

    def test_out_file(self, capsys, iso_file, tmp_path):
        target = tmp_path / "z.json"
        code, out, _ = invoke(capsys, "impedance", "--material", iso_file,
                              "--eta", "1", "0", "--tau", "-0.5",
                              "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dim_ec"] == 3

    @pytest.mark.parametrize("flag", ["--tol-grouping", "--tol-glancing", "--tol-bisection"])
    def test_tolerances_are_not_options(self, capsys, iso_file, flag):
        # every tolerance is a fixed constant, so argparse rejects the old flags
        with pytest.raises(SystemExit) as info:
            run(["impedance", "--material", iso_file, "--eta", "1", "0", "--tau", "-0.5",
                 flag, "1e-8"])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
