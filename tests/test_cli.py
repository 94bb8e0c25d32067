import collections
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elaswave import cli, factorization
from elaswave.cli import run

from oracles import C_R_POISSON, render_json_dumps

# bench/workloads.py: the golden CLI commands and the files they read
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench"))
import workloads  # noqa: E402


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
        (("slowness", "--grid", "-3"), 2, "ValidationError"),
        (("classify", "--eta", "1", "0", "--tau", "-1.5", "--grid", "-4"), 2,
         "ValidationError"),
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

    def test_non_finite_density(self, capsys, tmp_path):
        # JSON reads 1e999 as inf: bad input, not a numerical failure
        path = tmp_path / "inf.json"
        path.write_text('{"name": "inf", "density": 1e999, '
                        '"stiffness": {"type": "isotropic", "lambda": 2.0, "mu": 1.0}}')
        for argv in (("material", str(path)),
                     ("impedance", "--material", str(path), "--eta", "1", "0", "--tau", "-0.5")):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and out == "", argv[0]
            assert json.loads(err)["error"] == "NonPositiveDensity", argv[0]

    def test_non_finite_stiffness(self, capsys, tmp_path):
        # Python's JSON reader takes NaN as a number; the stiffness tensor rejects it
        path = tmp_path / "nan.json"
        path.write_text('{"name": "nan", "density": 1.0, '
                        '"stiffness": {"type": "isotropic", "lambda": NaN, "mu": 1.0}}')
        code, out, err = invoke(capsys, "material", str(path))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "message": "stiffness entries must be finite"}

    @pytest.mark.parametrize("stiffness", [
        '{"type": "isotropic", "lambda": 1e999, "mu": 1.0}',
        '{"type": "transversely_isotropic", "lambda": 1.0, "mu": 1.0, "alpha": 1e999, '
        '"beta": 0.0, "gamma": 0.0, "axis": [0.0, 0.0, 1.0]}'], ids=["lambda", "alpha"])
    def test_infinite_modulus_is_one_json_error(self, capsys, tmp_path, stiffness):
        # An infinite modulus times the zeros of the identity products would
        # be NaN, and numpy's warning of it would precede the JSON error
        path = tmp_path / "inf.json"
        path.write_text(f'{{"name": "inf", "density": 1.0, "stiffness": {stiffness}}}')
        code, out, err = invoke(capsys, "material", str(path))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "InvalidInput",
                                   "message": "stiffness entries must be finite"}

    def test_infinite_layer_thickness(self, capsys, stack_file):
        with open(stack_file, encoding="utf-8") as fh:
            text = fh.read()
        assert '"thickness": 1.0' in text
        with open(stack_file, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"thickness": 1.0', '"thickness": 1e999'))
        code, out, err = invoke(capsys, "trace", "--stack", stack_file,
                                "--eta", "0.3", "0", "--tau", "-1.2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "StackFileError"

    @pytest.mark.parametrize("field, value", [
        ('"density": 1.0', '"density": true'), ('"lambda": 2.0', '"lambda": "2"')],
        ids=["density_true", "lambda_str"])
    def test_non_number_material_field(self, capsys, iso_file, field, value):
        with open(iso_file, encoding="utf-8") as fh:
            text = fh.read()
        assert field in text
        with open(iso_file, "w", encoding="utf-8") as fh:
            fh.write(text.replace(field, value))
        code, out, err = invoke(capsys, "impedance", "--material", iso_file,
                                "--eta", "1", "0", "--tau", "-0.5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "MaterialFileError"

    def test_non_number_layer_thickness(self, capsys, stack_file):
        with open(stack_file, encoding="utf-8") as fh:
            text = fh.read()
        with open(stack_file, "w", encoding="utf-8") as fh:
            fh.write(text.replace('"thickness": 1.0', '"thickness": true'))
        code, out, err = invoke(capsys, "arrivals", "--stack", stack_file,
                                "--eta", "0.3", "0", "--tau", "-1.2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "StackFileError"

    @pytest.mark.parametrize("argv", [
        ("material",),
        ("classify", "--material-plus", "<iso>", "--eta", "1", "0", "--tau", "-1.5"),
        ("reflect", "--material-plus", "<iso>", "--eta", "1", "0", "--tau", "-1.5"),
    ], ids=["material_without_path", "classify_without_minus", "reflect_without_minus"])
    def test_missing_material(self, capsys, iso_file, argv):
        code, out, err = invoke(capsys, *(iso_file if a == "<iso>" else a for a in argv))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValidationError"

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

    @pytest.mark.parametrize("target", ["missing/z.json", "."],
                             ids=["missing_directory", "directory"])
    def test_unwritable_out_file(self, capsys, iso_file, tmp_path, target):
        code, out, err = invoke(capsys, "impedance", "--material", iso_file,
                                "--eta", "1", "0", "--tau", "-0.5",
                                "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "OutputFileError"

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
                              "--grid", "6")
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

    @pytest.mark.parametrize("mode, code, error", [("1", 0, None), ("2", 3, "NoIncomingMode"),
                                                   ("-1", 2, "InvalidInput")])
    def test_reflect_mode_is_an_index(self, capsys, iso_file, mode, code, error):
        # the frame has two incoming modes, s ~ 0.5 and 2.0
        got, out, err = invoke(capsys, "reflect", "--material", iso_file, "--eta", "1", "0",
                               "--tau", str(np.sqrt(5.0)), "--mode", mode, "--format", "csv")
        assert got == code
        if error:
            assert json.loads(err)["error"] == error
        else:
            assert out.splitlines()[1].split(",")[3] == "1.999999999999998"

    @pytest.mark.parametrize("pair, builds", [(False, 1), (True, 2)])
    def test_reflect_builds_each_side_once(self, capsys, monkeypatch, iso_file, poisson_file,
                                           pair, builds):
        # the incident mode and the law share the + side
        calls = []
        build = factorization._polynomial_stacks
        monkeypatch.setattr(factorization, "_polynomial_stacks",
                            lambda stacks: calls.extend(m for m, _ in stacks) or build(stacks))
        materials = (["--material-plus", iso_file, "--material-minus", poisson_file] if pair
                     else ["--material", iso_file])
        code, _, _ = invoke(capsys, "reflect", *materials, "--eta", "1", "0", "--tau", "-2.5")
        assert code == 0
        assert len(calls) == builds

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

    @pytest.mark.parametrize("spaced, reference", [
        (("--eta", "1", "0", "--tau", "-1e-1"), ("--eta", "1", "0", "--tau=-1e-1")),
        (("--eta", "-1e-1", "0", "--tau", "-1"), ("--eta", "-0.1", "0", "--tau", "-1")),
    ])
    def test_exponent_notation_negatives(self, capsys, iso_file, spaced, reference):
        # argparse alone reads "-1e-1" after a flag as an unknown option
        code, out, _ = invoke(capsys, "impedance", "--material", iso_file, *spaced)
        assert code == 0
        assert out == invoke(capsys, "impedance", "--material", iso_file, *reference)[1]

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

    @pytest.mark.parametrize("argv", [
        ["material", "m.json"],
        ["factorize", "--material", "m.json", "--eta", "1", "0", "--tau", "-1.5"],
        ["impedance", "--material", "m.json", "--eta", "1", "0", "--tau", "-0.5"],
        ["classify", "--material", "m.json", "--eta", "1", "0", "--tau", "-1.5", "--grid", "4"],
        ["rayleigh", "--material", "m.json", "--eta", "1", "0"],
        ["stoneley", "--material-plus", "m.json", "--material-minus", "m.json",
         "--eta", "1", "0"],
        ["trace", "--stack", "s.json", "--eta", "0", "0", "--tau", "-1"],
    ])
    def test_format_only_where_it_applies(self, capsys, argv):
        # these commands print one format, so argparse rejects --format
        with pytest.raises(SystemExit) as info:
            run([*argv, "--format", "json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


# Commands whose JSON documents the goldens do not cover; files as in bench/workloads.py.
_MORE_JSON_COMMANDS = [
    ["material", "ti.json"],
    ["material", "--validate", "--material", "ortho.json"],
    ["slowness", "--material", "ti.json", "--grid", "8"],
    ["factorize", "--material", "ti.json", "--eta", "0.6", "0.8", "--tau", "-1.5"],
    ["factorize", "--material", "iso.json", "--eta", "1", "0", "--tau", "-2.5",
     "--direction", "incoming"],
    ["classify", "--material", "iso.json", "--eta", "1", "0", "--tau", "-1.5"],
    ["classify", "--material-plus", "iso.json", "--material-minus", "hard.json",
     "--eta", "1", "0", "--tau", "-2.5"],
    ["reflect", "--material", "ti.json", "--eta", "0.6", "0.8", "--tau", "-1.5",
     "--format", "json"],
]
_GOLDEN_COMMANDS = [argv for variants in workloads.CLI_COMMANDS.values() for argv in variants]

# Nested documents of every kind of value the CLI prints, and of the kinds it
# could be handed: numpy scalars and arrays, complex values, int and float keys
# (1, "1", 1.0 and "1.0" collide once turned into strings), and strings that
# need escapes.
_FLOATS = st.floats(allow_subnormal=True)
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f'), st.characters()))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _TEXT, _FLOATS,
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
    hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
_KEYS = st.one_of(_TEXT, st.integers(-3, 3), st.sampled_from([1, "1", 1.0, "1.0", -0.0]),
                  _FLOATS)
_DOCS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=20)


class TestJsonText:
    """cli.render_json against json.dumps of the oracle's jsonable form."""

    @pytest.mark.parametrize("argv", _GOLDEN_COMMANDS + _MORE_JSON_COMMANDS,
                             ids=lambda argv: "_".join(argv[:1] + argv[-2:]))
    def test_command_documents_match_oracle(self, capsys, monkeypatch, tmp_path, argv):
        workloads.write_cli_files(str(tmp_path))
        render = cli.render_json
        docs = []
        monkeypatch.setattr(cli, "render_json", lambda doc: docs.append(doc) or render(doc))
        code, out, _ = invoke(capsys, *(str(tmp_path / a) if a.endswith(".json") else a
                                        for a in argv))
        assert code == 0
        assert len(docs) == (1 if out.startswith("{") else 0)
        for doc in docs:
            assert out == render(doc) == render_json_dumps(doc)

    @given(_DOCS)
    @example({1: "a", "1": "b"})
    @example({"1": "a", 1: "b", 1.0: "c", "1.0": "d"})
    @example([-0.0, float("inf"), -float("inf"), float("nan"), 5e-324, 2.2250738585072009e-308])
    @example({"": [], "x": {}, "y": (), "z": np.zeros((0, 2))})
    @example([np.float32(0.1), np.complex64(1 - 2j), np.array([1 + 0j, -0.0j]), 1j])
    @example(collections.OrderedDict(b=np.str_("s"), a=collections.namedtuple("P", "x y")(1, 2.5)))
    def test_random_documents_match_oracle(self, doc):
        assert cli.render_json(doc) == render_json_dumps(doc)

    def test_equal_keys_that_print_differently(self):
        # A list's dicts reuse the sorted, quoted keys of the dict before
        # them only where those keys are str: 1, 1.0 and True are equal, so
        # their key tuples are too, but each prints its own key.
        rows = [{1: "a"}, {1.0: "b"}, {True: "c"}, {"1": "d"}, {"1": "e"}, {1: "f"},
                {"x": 0, 1: 1}, {"x": 2, 1.0: 3}, {"x": 4, True: 5}, {"x": 6, "1": 7},
                {"x": 8, "1": 9}, {"1": 10, "x": 11}, {}, {"x": 12, "1": 13}]
        for doc in (rows, {"rows": rows, "reversed": rows[::-1]}, [rows, (rows,)]):
            assert cli.render_json(doc) == render_json_dumps(doc)

    @pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, object()],
                             ids=["np_bool", "set", "object"])
    def test_unsupported_types_raise(self, value):
        for doc in (value, [value], {"k": value}):
            with pytest.raises(TypeError):
                render_json_dumps(doc)
            with pytest.raises(TypeError):
                cli.render_json(doc)
