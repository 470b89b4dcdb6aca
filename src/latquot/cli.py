"""Command-line front end.

Each subcommand wraps exactly one library operation: inputs are JSON files
(rationals as strings, never floats), the output is a single JSON document
on stdout (or --output), and identical inputs produce byte-identical output.
Exit codes: 0 success, 1 domain error, unwritable --output or internal
failure, 2 parse/schema failure; errors are emitted as
{"error": {"kind", "message", "input"}}.

The subcommands are the rows of ``COMMANDS``: help line, library module,
input files, other flags and handler.  ``run`` builds the argument parser
of the named subcommand only and imports that subcommand's module, so one
call loads only the code its subcommand needs.  It then parses the input
files in flag order, each with the parser its row names, and hands the
module, the arguments and the parsed inputs to the handler, which only
calls the library and builds the result document.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path
from typing import Any

from . import serialize
from .errors import DigitLimitError, InputError, LatquotError, OutputError, SchemaError
from .exactnum import float_sqrt
from .serialize import (
    format_float,
    format_rational,
    matrix_to_json,
    matz_to_json,
    parse_rational,
    point_to_json,
)


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read input file: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal over the int-to-str digit limit
        kind = "invalid JSON" if isinstance(exc, json.JSONDecodeError) else "integer literal too long"
        raise SchemaError(f"{kind}: {exc}") from exc
    except RecursionError as exc:  # the scanner recurses once per nested array or object
        raise SchemaError("invalid JSON: nested too deeply") from exc


def _parse_file(path: str, parse):
    try:
        return parse(_load_json(path))
    except InputError as exc:
        exc.input_path = path
        raise


def _paths(args, flag: str, count: int) -> list[str]:
    """The paths given to an input flag, which must be given exactly ``count`` times."""
    paths = getattr(args, flag[2:])
    if len(paths) != count:
        noun = f"one {flag} argument" if count == 1 else f"two {flag} arguments"
        raise SchemaError(f"expected exactly {noun}, got {len(paths)}")
    return paths


def _witness_doc(key: str, witness) -> dict[str, Any]:
    return {key: witness is not None, "witness": matz_to_json(witness) if witness is not None else None}


def _induced_doc(f) -> dict[str, Any]:
    from .quotient_torus import volume_scale

    return {"volume_scale": format_rational(volume_scale(f)), "witness": matz_to_json(f.witness)}


# --- handlers of more than one expression: (library module, parsed
# arguments, parsed input files) -> the result document ---

def _induce(lib, args, matrix, source, target):
    f = lib.make_induced_map(matrix, source, target)
    if args.point is None:
        return _induced_doc(f)
    # parsed only now, so that a bad map is reported before a bad point
    return point_to_json(lib.apply_induced(f, _parse_file(*_paths(args, "--point", 1), serialize.parse_point)))


def _volume_scaled(lib, args, lattice):
    c = 2 * math.pi if args.scale == "2pi" else parse_rational(args.scale)
    return {"volume_float": format_float(lib.volume_of_scaled(lattice, c))}


def _shortest(lib, args, lattice):
    vectors = lib.shortest_vectors(lattice)
    value = lib.squared_length(vectors[0])
    return {
        "squared_length": format_rational(value),
        "length_float": format_float(float_sqrt(value)),
        "vectors": [list(v.coeffs) for v in vectors],
    }


def _spectrum(lib, args, lattice):
    spectrum = lib.geodesic_spectrum(lattice, parse_rational(args.bound))
    return {"spectrum": [[format_rational(q), mult] for q, mult in spectrum]}


def _injectivity(lib, args, lattice):
    r_sq, r = lib.injectivity_radius(lattice)
    return {"radius_squared": format_rational(r_sq), "radius_float": format_float(r)}


_LATTICE = ("--lattice", "lattice", 1)
_MATRIX = ("--matrix", "matrix", 1)
_ORIENTED = ("--oriented", {"action": "store_true"})

# name -> (help line, library module, input files, other flags, handler).
# An input file is (flag, type, count): the flag is given exactly count times
# (``_paths``), once or twice in order, and each file holds what
# serialize.parse_<type> reads.
# ``run`` parses the input files in flag order and calls handler(lib, args,
# *inputs).  An other flag is (flag, add_argument keywords).  Every
# subcommand also takes --output.  --help lists them in this order.
COMMANDS = {
    "reduce": ("canonical quotient map: reduce an ambient vector modulo a lattice", "quotient_torus",
               (_LATTICE, ("--vector", "vector", 1)), (),
               lambda lib, args, lattice, v: point_to_json(lib.reduce(lattice, v))),
    "add": ("add two torus points (pass --point twice)", "quotient_torus", (("--point", "point", 2),), (),
            lambda lib, args, p, q: point_to_json(lib.torus_add(p, q))),
    "induce": ("validate A(L1) = L2 and report the induced map (optionally apply it)", "quotient_torus",
               (_MATRIX, ("--source", "lattice", 1), ("--target", "lattice", 1)),
               (("--point", {"action": "append"}),), _induce),
    "volume": ("covolume of a lattice (volume of its quotient torus)", "lattice_core", (_LATTICE,), (),
               lambda lib, args, lattice: {"covolume": format_rational(lib.covolume(lattice))}),
    "volume-scaled": ("volume of the quotient by c*L for a real scale c", "quotient_torus", (_LATTICE,),
                      (("--scale", {"required": True, "help": 'rational "p/q" or the token "2pi"'}),),
                      _volume_scaled),
    "gram": ("Gram form of the lattice basis", "flat_geometry", (_LATTICE,), (),
             lambda lib, args, lattice: {"gram": matrix_to_json(lib.gram(lattice).matrix)}),
    "shortest": ("all shortest nonzero vector classes of a lattice", "flat_geometry", (_LATTICE,), (), _shortest),
    "spectrum": ("squared geodesic lengths up to a bound, with multiplicities", "flat_geometry", (_LATTICE,),
                 (("--bound", {"required": True, "help": 'rational bound "p/q"'}),), _spectrum),
    "angle": ("angle between two geodesic classes (pass --vector twice)", "flat_geometry",
              (("--vector", "lattice_vector", 2),), (),
              lambda lib, args, v, w: {"cos_squared_signed": format_rational(lib.signed_cos_squared(v, w)),
                                       "angle_float": format_float(lib.angle(v, w))}),
    "injectivity": ("injectivity radius of the quotient map", "flat_geometry", (_LATTICE,), (), _injectivity),
    "isometric": ("rotation-isometry test for two lattices (pass --lattice twice)", "flat_geometry",
                  (("--lattice", "lattice", 2),), (_ORIENTED,),
                  lambda lib, args, l1, l2: _witness_doc(
                      "isometric", lib.isometric_mod_rotation(l1, l2, oriented=args.oriented))),
    "realify": ("real 2n x 2n matrix of a complex matrix", "complex_lattices",
                (("--cmatrix", "complex_matrix", 1),), (),
                lambda lib, args, cm: {"matrix": matrix_to_json(lib.realify(cm))}),
    "is-unitary": ("complex-linearity plus orthogonality test", "complex_lattices", (_MATRIX,),
                   (("--cdim", {"required": True, "type": int, "help": "complex dimension n"}),),
                   lambda lib, args, m: {"unitary": lib.is_unitary(m, args.cdim)}),
    "complex-induce": ("validate that a complex matrix takes one lattice onto another", "complex_lattices",
                       (("--cmatrix", "complex_matrix", 1), ("--source", "lattice", 1), ("--target", "lattice", 1)),
                       (), lambda lib, args, cm, l1, l2: _induced_doc(lib.complex_map_check(cm, l1, l2))),
    "gram-map": ("T -> T^T T into the positive-definite forms", "moduli_spaces", (_MATRIX,), (),
                 lambda lib, args, m: {"gram": matrix_to_json(lib.gram_map(m).matrix)}),
    "coset-eq": ("orthogonal left-coset test for two matrices (pass --matrix twice)", "moduli_spaces",
                 (("--matrix", "matrix", 2),), (),
                 lambda lib, args, a, b: {"same_coset": lib.same_left_coset(a, b)}),
    "in-m": ("symmetric positive definite with determinant 1", "moduli_spaces", (_MATRIX,), (),
             lambda lib, args, m: {"in_m": lib.in_M(m)}),
    "in-sigma": ("integer entries with determinant 1", "moduli_spaces", (_MATRIX,), (),
                 lambda lib, args, m: {"in_sigma": lib.in_Sigma(m)}),
    "orientation": ("sign of the determinant", "moduli_spaces", (_MATRIX,), (),
                    lambda lib, args, m: {"orientation": lib.orientation(m)}),
    "double-coset": ("rotation equivalence of equal-covolume lattices (pass --lattice twice)", "moduli_spaces",
                     (("--lattice", "lattice", 2),), (_ORIENTED,),
                     lambda lib, args, l1, l2: _witness_doc(
                         "equivalent", lib.double_coset_equivalent(l1, l2, oriented=args.oriented))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; for a known ``command``, with only its subparser.

    The one-subcommand parser still names every subcommand in its usage
    line, so each message it prints is the full parser's.  It never sees an
    unknown or missing subcommand: ``run`` passes those to the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="latquot",
        description="Exact computations with lattices, quotient tori, and spaces of lattices.",
    )
    if command in COMMANDS:
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(COMMANDS))
    else:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, _, inputs, flags, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", metavar="PATH", help="write the result document here instead of stdout")
        for flag, *_ in inputs:
            p.add_argument(flag, required=True, action="append")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def _emit(doc: dict[str, Any], output: str | None) -> None:
    try:
        text = json.dumps(doc, separators=(",", ":")) + "\n"
    except ValueError as exc:  # an int (a witness entry) over the int-to-str digit limit
        raise DigitLimitError(str(exc)) from exc
    if output:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write output file {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _error(kind: str, message: str, input_path: str | None) -> None:
    _emit({"error": {"kind": kind, "message": message, "input": input_path}}, None)


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    _, module, inputs, _, handler = COMMANDS[args.command]
    try:
        lib = importlib.import_module(f".{module}", __package__)
        parsed = []
        for flag, kind, count in inputs:
            # looked up per call, so that a wrapper installed on serialize sees each parse
            parsed += [_parse_file(path, getattr(serialize, f"parse_{kind}")) for path in _paths(args, flag, count)]
        _emit(handler(lib, args, *parsed), args.output)
    except LatquotError as exc:
        _error(exc.kind, str(exc), getattr(exc, "input_path", None))
        return 2 if isinstance(exc, InputError) else 1
    except Exception as exc:  # the contract: one JSON document, never a traceback
        _error("InternalError", f"{type(exc).__name__}: {exc}", None)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
