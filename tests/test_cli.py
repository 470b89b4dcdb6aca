import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latquot
from latquot import cli, lattice_core
from latquot.cli import run


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def lattice_doc(basis):
    return {"n": len(basis), "basis": basis}


Z2 = lattice_doc([["1", "0"], ["0", "1"]])
DOUBLED = lattice_doc([["2", "0"], ["0", "2"]])


class TestVolume:
    def test_standard(self, capsys, write):
        code, out = invoke(capsys, ["volume", "--lattice", write("z2.json", Z2)])
        assert code == 0
        assert out == '{"covolume":"1"}\n'

    def test_rectangular(self, capsys, write):
        path = write("r.json", lattice_doc([["2", "0"], ["0", "3"]]))
        code, out = invoke(capsys, ["volume", "--lattice", path])
        assert code == 0
        assert json.loads(out) == {"covolume": "6"}


class TestReduceAndAdd:
    def test_reduce(self, capsys, write):
        code, out = invoke(
            capsys,
            ["reduce", "--lattice", write("z2.json", Z2), "--vector", write("v.json", ["3/2", "-1/4"])],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coords"] == ["1/2", "3/4"]

    def test_add_needs_two_points(self, capsys, write):
        p = write("p.json", {"lattice": Z2, "coords": ["1/2", "0"]})
        code, out = invoke(capsys, ["add", "--point", p])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "SchemaError"

    def test_add(self, capsys, write):
        p = write("p.json", {"lattice": Z2, "coords": ["1/2", "0"]})
        q = write("q.json", {"lattice": Z2, "coords": ["3/4", "1/2"]})
        code, out = invoke(capsys, ["add", "--point", p, "--point", q])
        assert code == 0
        assert json.loads(out)["coords"] == ["1/4", "1/2"]


class TestInduce:
    def test_valid_map(self, capsys, write):
        argv = [
            "induce",
            "--matrix", write("a.json", [["2", "0"], ["0", "2"]]),
            "--source", write("z2.json", Z2),
            "--target", write("l2.json", DOUBLED),
        ]
        code, out = invoke(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["volume_scale"] == "4"
        assert doc["witness"] == [[1, 0], [0, 1]]

    def test_apply_to_point(self, capsys, write):
        argv = [
            "induce",
            "--matrix", write("a.json", [["2", "0"], ["0", "2"]]),
            "--source", write("z2.json", Z2),
            "--target", write("l2.json", DOUBLED),
            "--point", write("p.json", {"lattice": Z2, "coords": ["1/2", "1/2"]}),
        ]
        code, out = invoke(capsys, argv)
        assert code == 0
        assert json.loads(out)["coords"] == ["1/2", "1/2"]

    def test_not_preserving(self, capsys, write):
        argv = [
            "induce",
            "--matrix", write("bad.json", [["2", "0"], ["0", "2"]]),
            "--source", write("z2.json", Z2),
            "--target", write("z2b.json", Z2),
        ]
        code, out = invoke(capsys, argv)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["kind"] == "NotLatticePreserving"


class TestMetricCommands:
    def test_shortest(self, capsys, write):
        code, out = invoke(capsys, ["shortest", "--lattice", write("z2.json", Z2)])
        assert code == 0
        doc = json.loads(out)
        assert doc["squared_length"] == "1"
        assert doc["vectors"] == [[0, 1], [1, 0]]

    def test_spectrum(self, capsys, write):
        code, out = invoke(
            capsys, ["spectrum", "--lattice", write("z2.json", Z2), "--bound", "2"]
        )
        assert code == 0
        assert json.loads(out)["spectrum"] == [["1", 2], ["2", 2]]

    def test_angle(self, capsys, write):
        v = write("v.json", {"lattice": Z2, "coeffs": [1, 0]})
        w = write("w.json", {"lattice": Z2, "coeffs": [1, 1]})
        code, out = invoke(capsys, ["angle", "--vector", v, "--vector", w])
        assert code == 0
        doc = json.loads(out)
        assert doc["cos_squared_signed"] == "1/2"
        assert doc["angle_float"].startswith("0.785398163")

    def test_injectivity(self, capsys, write):
        code, out = invoke(capsys, ["injectivity", "--lattice", write("z2.json", Z2)])
        assert code == 0
        assert json.loads(out) == {"radius_squared": "1/4", "radius_float": "0.5"}

    def test_gram(self, capsys, write):
        path = write("shear.json", lattice_doc([["1", "1"], ["0", "1"]]))
        code, out = invoke(capsys, ["gram", "--lattice", path])
        assert code == 0
        assert json.loads(out)["gram"] == [["1", "1"], ["1", "2"]]

    def test_isometric(self, capsys, write):
        a = write("a.json", lattice_doc([["1", "0"], ["0", "4"]]))
        b = write("b.json", lattice_doc([["2", "0"], ["0", "2"]]))
        code, out = invoke(capsys, ["isometric", "--lattice", a, "--lattice", b])
        assert code == 0
        assert json.loads(out) == {"isometric": False, "witness": None}

    def test_volume_scaled_2pi(self, capsys, write):
        code, out = invoke(
            capsys, ["volume-scaled", "--lattice", write("z2.json", Z2), "--scale", "2pi"]
        )
        assert code == 0
        assert json.loads(out)["volume_float"] == "39.4784176044"

    def test_volume_scaled_rational(self, capsys, write):
        code, out = invoke(
            capsys, ["volume-scaled", "--lattice", write("z2.json", Z2), "--scale", "3/2"]
        )
        assert code == 0
        assert json.loads(out)["volume_float"] == "2.25"


class TestComplexCommands:
    def test_realify(self, capsys, write):
        code, out = invoke(capsys, ["realify", "--cmatrix", write("c.json", [[["3", "4"]]])])
        assert code == 0
        assert json.loads(out)["matrix"] == [["3", "-4"], ["4", "3"]]

    def test_is_unitary(self, capsys, write):
        path = write("t.json", [["3/5", "-4/5"], ["4/5", "3/5"]])
        code, out = invoke(capsys, ["is-unitary", "--matrix", path, "--cdim", "1"])
        assert code == 0
        assert json.loads(out) == {"unitary": True}

    def test_complex_induce(self, capsys, write):
        argv = [
            "complex-induce",
            "--cmatrix", write("i.json", [[["0", "1"]]]),
            "--source", write("z2.json", Z2),
            "--target", write("z2b.json", Z2),
        ]
        code, out = invoke(capsys, argv)
        assert code == 0
        assert json.loads(out)["volume_scale"] == "1"


class TestModuliCommands:
    def test_gram_map(self, capsys, write):
        code, out = invoke(capsys, ["gram-map", "--matrix", write("t.json", [["1", "1"], ["0", "1"]])])
        assert code == 0
        assert json.loads(out)["gram"] == [["1", "1"], ["1", "2"]]

    def test_coset_eq(self, capsys, write):
        a = write("a.json", [["1", "0"], ["0", "1"]])
        b = write("b.json", [["3/5", "-4/5"], ["4/5", "3/5"]])
        code, out = invoke(capsys, ["coset-eq", "--matrix", a, "--matrix", b])
        assert code == 0
        assert json.loads(out) == {"same_coset": True}

    def test_in_m(self, capsys, write):
        code, out = invoke(capsys, ["in-m", "--matrix", write("s.json", [["2", "0"], ["0", "1/2"]])])
        assert code == 0
        assert json.loads(out) == {"in_m": True}

    def test_in_sigma(self, capsys, write):
        code, out = invoke(capsys, ["in-sigma", "--matrix", write("u.json", [["1", "0"], ["0", "-1"]])])
        assert code == 0
        assert json.loads(out) == {"in_sigma": False}

    def test_orientation(self, capsys, write):
        code, out = invoke(capsys, ["orientation", "--matrix", write("p.json", [["0", "1"], ["1", "0"]])])
        assert code == 0
        assert json.loads(out) == {"orientation": -1}

    def test_double_coset(self, capsys, write):
        a = write("a.json", Z2)
        b = write("b.json", lattice_doc([["3/5", "-4/5"], ["4/5", "3/5"]]))
        code, out = invoke(capsys, ["double-coset", "--lattice", a, "--lattice", b, "--oriented"])
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is True

    def test_double_coset_covolume_mismatch(self, capsys, write):
        a = write("a.json", Z2)
        b = write("b.json", DOUBLED)
        code, out = invoke(capsys, ["double-coset", "--lattice", a, "--lattice", b])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "CovolumeMismatch"


class TestErrorHandling:
    def test_missing_file(self, capsys, tmp_path):
        code, out = invoke(capsys, ["volume", "--lattice", str(tmp_path / "nope.json")])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "SchemaError"
        assert err["input"].endswith("nope.json")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out = invoke(capsys, ["volume", "--lattice", str(path)])
        assert code == 2

    def test_deeply_nested_json(self, capsys, tmp_path):
        # the JSON scanner recurses once per array: past its limit this is a schema error, not an internal one
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out = invoke(capsys, ["volume", "--lattice", str(path)])
        assert code == 2
        assert one_document(out)["error"] == {
            "kind": "SchemaError", "message": "invalid JSON: nested too deeply", "input": str(path),
        }

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "basis": [["\xff"]]}')
        code, out = invoke(capsys, ["volume", "--lattice", str(path)])
        assert code == 2
        err = json.loads(out)["error"]
        assert (err["kind"], err["input"]) == ("SchemaError", str(path))

    def test_bad_rational_string(self, capsys, write):
        path = write("bad.json", lattice_doc([["1/0", "0"], ["0", "1"]]))
        code, out = invoke(capsys, ["volume", "--lattice", path])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "ZeroDenominator"
        assert err["input"].endswith("bad.json")

    def test_singular_basis(self, capsys, write):
        path = write("sing.json", lattice_doc([["1", "0"], ["0", "0"]]))
        code, out = invoke(capsys, ["volume", "--lattice", path])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "SingularBasis"

    def test_usage_error_exits_2(self, capsys):
        assert run(["volume"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run(["frobnicate"]) == 2

    # entries of 10^400 overflow a float and 10^-400 underflows it; the
    # failure must be one JSON document with exit 1 and a documented kind,
    # never a traceback and never a silent "0" or "inf"
    HUGE = "1" + "0" * 400
    TINY = "1/" + HUGE
    FLOAT_RANGE = {"error": {
        "kind": "FloatRangeError",
        "message": "value is outside the range of normal floats",
        "input": None,
    }}

    def test_float_overflow_in_volume_scaled(self, capsys, write):
        # a covolume beyond the float range, and a scale of 10^200 that fits a
        # float whose square does not
        for basis, scale in (([[self.HUGE, "0"], ["0", "1"]], "2pi"), ([["1", "0"], ["0", "1"]], "1" + "0" * 200)):
            path = write("big.json", lattice_doc(basis))
            code, out = invoke(capsys, ["volume-scaled", "--lattice", path, "--scale", scale])
            assert code == 1
            assert json.loads(out) == self.FLOAT_RANGE
            assert out.count("\n") == 1

    def test_float_overflow_in_injectivity(self, capsys, write):
        code, out = invoke(capsys, ["injectivity", "--lattice", write("big.json", lattice_doc([[self.HUGE]]))])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "FloatRangeError"
        assert out.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["shortest"], ["injectivity"], ["volume-scaled", "--scale", "2pi"],
    ])
    def test_float_underflow_is_not_a_silent_zero(self, capsys, write, argv):
        path = write("tiny.json", lattice_doc([["1", "0"], ["0", self.TINY]]))
        code, out = invoke(capsys, [argv[0], "--lattice", path, *argv[1:]])
        assert code == 1
        assert json.loads(out) == self.FLOAT_RANGE
        assert out.count("\n") == 1

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, capsys, write, monkeypatch, exc):
        def handler(lib, args):
            raise exc

        help_text, module, flags, _ = cli.COMMANDS["volume"]
        monkeypatch.setitem(cli.COMMANDS, "volume", (help_text, module, flags, handler))
        with pytest.raises(exc):
            run(["volume", "--lattice", write("z2.json", Z2)])
        assert capsys.readouterr().out == ""

    def test_unexpected_exception_is_an_internal_error(self, capsys, write, monkeypatch):
        def handler(lib, args):
            raise RuntimeError("boom")

        help_text, module, flags, _ = cli.COMMANDS["volume"]
        monkeypatch.setitem(cli.COMMANDS, "volume", (help_text, module, flags, handler))
        code, out = invoke(capsys, ["volume", "--lattice", write("z2.json", Z2)])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {"error": {"kind": "InternalError", "message": "RuntimeError: boom", "input": None}}


# The interpreter's int<->str digit limit, read at call time as the CLI reads
# it; 0 (or a Python before 3.10.7) means none.  Over a limit an integer is an
# input error (exit 2) on the way in and a DigitLimitError (exit 1) on the
# way out; with no limit the same documents parse and print exactly.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
RUN = LIMIT + 1 if LIMIT else 5001  # a digit run over the limit
K = LIMIT // 2 + 1 if LIMIT else 3000  # 10^K is in the limit, 10^2K is not
POWER = "1" + "0" * K


def one_document(out):
    assert out.count("\n") == 1
    return json.loads(out)


class TestDigitLimit:
    def test_json_integer_literal(self, capsys, tmp_path):
        path = tmp_path / "literal.json"
        path.write_text('{"n": 1, "basis": [[%s]]}' % ("7" * RUN), encoding="utf-8")
        code, out = invoke(capsys, ["volume", "--lattice", str(path)])
        doc = one_document(out)
        if LIMIT:
            assert code == 2
            assert (doc["error"]["kind"], doc["error"]["input"]) == ("SchemaError", str(path))
        else:
            assert (code, doc) == (0, {"covolume": "7" * RUN})

    def test_rational_string(self, capsys, write):
        path = write("string.json", lattice_doc([["1/" + "7" * RUN]]))
        code, out = invoke(capsys, ["volume", "--lattice", path])
        doc = one_document(out)
        if LIMIT:
            assert code == 2
            assert (doc["error"]["kind"], doc["error"]["input"]) == ("ParseError", path)
            assert doc["error"]["message"].endswith("(byte offset 2)")
        else:
            assert (code, doc) == (0, {"covolume": "1/" + "7" * RUN})

    @pytest.mark.parametrize("entry, square", [(POWER, "1" + "0" * 2 * K), ("1/" + POWER, "1/1" + "0" * 2 * K)],
                             ids=["huge", "tiny"])
    @pytest.mark.parametrize("command", ["volume", "gram", "shortest"])
    def test_exact_output(self, capsys, write, command, entry, square):
        path = write("diag.json", lattice_doc([[entry, "0"], ["0", entry]]))
        code, out = invoke(capsys, [command, "--lattice", path])
        doc = one_document(out)
        if LIMIT:
            assert code == 1
            assert doc == {"error": {"kind": "DigitLimitError", "message": doc["error"]["message"], "input": None}}
        elif command == "shortest":  # the squared length prints, but length_float 10^(+-K) is no float
            assert (code, doc["error"]["kind"]) == (1, "FloatRangeError")
        else:
            expected = {"volume": {"covolume": square}, "gram": {"gram": [[square, "0"], ["0", square]]}}
            assert (code, doc) == (0, expected[command])

    def test_witness_entry(self, capsys, write):
        # A B = [[1 + 10^2K, 10^K], [10^K, 1]] is unimodular, so it is the witness of A(B Z^2) = Z^2
        a = write("a.json", [["1", POWER], ["0", "1"]])
        source = write("source.json", lattice_doc([["1", "0"], [POWER, "1"]]))
        code, out = invoke(capsys, ["induce", "--matrix", a, "--source", source, "--target", write("z2.json", Z2)])
        doc = one_document(out)
        if LIMIT:
            assert (code, doc["error"]["kind"]) == (1, "DigitLimitError")
        else:
            p = 10**K
            assert (code, doc) == (0, {"volume_scale": "1", "witness": [[1 + p * p, p], [p, 1]]})


# The parser's messages, as the 20-subparser parser printed them at 80 columns.
USAGE = (
    "usage: latquot [-h]\n"
    "               {reduce,add,induce,volume,volume-scaled,gram,shortest,spectrum,angle,injectivity,"
    "isometric,realify,is-unitary,complex-induce,gram-map,coset-eq,in-m,in-sigma,orientation,double-coset}\n"
    "               ...\n"
)
HELP = USAGE + """
Exact computations with lattices, quotient tori, and spaces of lattices.

positional arguments:
  {reduce,add,induce,volume,volume-scaled,gram,shortest,spectrum,angle,injectivity,isometric,realify,is-unitary,complex-induce,gram-map,coset-eq,in-m,in-sigma,orientation,double-coset}
    reduce              canonical quotient map: reduce an ambient vector
                        modulo a lattice
    add                 add two torus points (pass --point twice)
    induce              validate A(L1) = L2 and report the induced map
                        (optionally apply it)
    volume              covolume of a lattice (volume of its quotient torus)
    volume-scaled       volume of the quotient by c*L for a real scale c
    gram                Gram form of the lattice basis
    shortest            all shortest nonzero vector classes of a lattice
    spectrum            squared geodesic lengths up to a bound, with
                        multiplicities
    angle               angle between two geodesic classes (pass --vector
                        twice)
    injectivity         injectivity radius of the quotient map
    isometric           rotation-isometry test for two lattices (pass
                        --lattice twice)
    realify             real 2n x 2n matrix of a complex matrix
    is-unitary          complex-linearity plus orthogonality test
    complex-induce      validate that a complex matrix takes one lattice onto
                        another
    gram-map            T -> T^T T into the positive-definite forms
    coset-eq            orthogonal left-coset test for two matrices (pass
                        --matrix twice)
    in-m                symmetric positive definite with determinant 1
    in-sigma            integer entries with determinant 1
    orientation         sign of the determinant
    double-coset        rotation equivalence of equal-covolume lattices (pass
                        --lattice twice)

options:
  -h, --help            show this help message and exit
"""
VOLUME_USAGE = "usage: latquot volume [-h] [--output PATH] --lattice LATTICE\n"
CHOICES = (
    "'reduce', 'add', 'induce', 'volume', 'volume-scaled', 'gram', 'shortest', 'spectrum', 'angle', "
    "'injectivity', 'isometric', 'realify', 'is-unitary', 'complex-induce', 'gram-map', 'coset-eq', "
    "'in-m', 'in-sigma', 'orientation', 'double-coset'"
)


class TestParserMessages:
    @pytest.mark.parametrize("argv, code, out, err", [
        (["--help"], 0, HELP, ""),
        (["volume", "--help"], 0, VOLUME_USAGE + """
options:
  -h, --help         show this help message and exit
  --output PATH      write the result document here instead of stdout
  --lattice LATTICE
""", ""),
        ([], 2, "", USAGE + "latquot: error: the following arguments are required: command\n"),
        (["frobnicate"], 2, "", USAGE + f"latquot: error: argument command: invalid choice: "
                                        f"'frobnicate' (choose from {CHOICES})\n"),
        (["volume"], 2, "", VOLUME_USAGE + "latquot volume: error: the following arguments are required: --lattice\n"),
        (["volume", "--lattice", "x", "extra"], 2, "", USAGE + "latquot: error: unrecognized arguments: extra\n"),
    ], ids=["help", "volume-help", "no-command", "unknown-command", "missing-flag", "extra-argument"])
    def test_byte_identical(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)


# The package's public names before it became lazy, by defining module.
EXPORTS = {
    "exactnum": "MatQ MatZ Rational det hnf inverse is_positive_definite ldl lll_gram",
    "lattice_core": "Lattice change_of_basis_witness contains covolume equals from_basis scale "
                    "standard sublattice_index",
    "quotient_torus": "InducedMap TorusPoint apply_induced circle_map compose make_induced_map "
                      "parallelepiped_image_volume reduce torus_add volume_of_scaled volume_scale",
    "flat_geometry": "GramForm LatticeVector angle geodesic_spectrum gram injectivity_radius is_orthogonal "
                     "isometric_mod_rotation shortest_vectors signed_cos_squared squared_length",
    "complex_lattices": "ComplexMatrix ComplexStructure complex_map_check gaussian_lattice is_complex_linear "
                        "is_unitary realify standard_complex_structure",
    "moduli_spaces": "PosDefForm UnitCovolumeForm double_coset_equivalent gram_map in_M in_Sigma orientation "
                     "posdef_witness same_left_coset unit_covolume_form",
}


class TestLazyPackage:
    def test_public_names_are_the_module_attributes(self):
        for module, names in EXPORTS.items():
            mod = importlib.import_module(f"latquot.{module}")
            assert hasattr(latquot, module)
            for name in names.split():
                assert getattr(latquot, name) is getattr(mod, name), name
                assert name in latquot.__all__ and name in dir(latquot)
        assert latquot.errors is importlib.import_module("latquot.errors")
        with pytest.raises(AttributeError):
            latquot.no_such_name

    def test_names_follow_a_patched_module(self, monkeypatch):
        monkeypatch.setattr(lattice_core, "covolume", len)
        assert latquot.covolume is len

    def test_volume_loads_only_its_modules(self, write):
        path = write("z2.json", Z2)
        script = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from latquot.cli import run\n"
            f"code = run(['volume', '--lattice', {path!r}])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
        )
        src = str(Path(latquot.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        out, report = proc.stdout.splitlines()
        code, loaded = json.loads(report)
        assert (code, out) == (0, '{"covolume":"1"}')
        assert {m for m in loaded if m.split(".")[0] == "latquot"} == {
            "latquot", "latquot.cli", "latquot.errors", "latquot.exactnum",
            "latquot.lattice_core", "latquot.serialize",
        }
        assert "dataclasses" not in loaded and "inspect" not in loaded


class TestOutputs:
    def test_output_file(self, capsys, write, tmp_path):
        out_path = tmp_path / "result.json"
        code, out = invoke(
            capsys, ["volume", "--lattice", write("z2.json", Z2), "--output", str(out_path)]
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == '{"covolume":"1"}\n'

    @pytest.mark.parametrize("target", ["missing/result.json", "."], ids=["missing-directory", "directory"])
    def test_unwritable_output(self, capsys, write, tmp_path, target):
        out_path = str(tmp_path / target)
        code, out = invoke(capsys, ["volume", "--lattice", write("z2.json", Z2), "--output", out_path])
        assert code == 1
        error = one_document(out)["error"]
        assert error["kind"] == "OutputError" and out_path in error["message"]

    def test_determinism(self, capsys, write):
        path = write("z2.json", Z2)
        _, first = invoke(capsys, ["shortest", "--lattice", path])
        _, second = invoke(capsys, ["shortest", "--lattice", path])
        assert first == second

    def test_reduce_output_feeds_add(self, capsys, write, tmp_path):
        lattice = write("z2.json", Z2)
        vector = write("v.json", ["5/4", "1/3"])
        point_path = str(tmp_path / "p.json")
        code, _ = invoke(capsys, ["reduce", "--lattice", lattice, "--vector", vector, "--output", point_path])
        assert code == 0
        code, out = invoke(capsys, ["add", "--point", point_path, "--point", point_path])
        assert code == 0
        assert json.loads(out)["coords"] == ["1/2", "2/3"]


class TestFloatRoots:
    @pytest.mark.parametrize("entry, length", [("1" + "0" * 200, "1e+200"), ("1/1" + "0" * 160, "1e-160")])
    def test_shortest_length_in_range_of_an_unrepresentable_square(self, capsys, write, entry, length):
        code, out = invoke(capsys, ["shortest", "--lattice", write("l.json", lattice_doc([[entry]]))])
        assert code == 0
        assert json.loads(out)["length_float"] == length
