"""Command-line front end.

Each subcommand wraps exactly one library operation: inputs are JSON files
(rationals as strings, never floats), the output is a single JSON document
on stdout (or --output), and identical inputs produce byte-identical output.
Exit codes: 0 success, 1 domain error, unwritable --output or internal
failure, 2 parse/schema failure; errors are emitted as
{"error": {"kind", "message", "input"}}.

The subcommands are the rows of ``COMMANDS``: help line, library module,
flags and handler.  ``run`` builds the argument parser of the named
subcommand only, imports that subcommand's module and hands it to the
handler, so one call loads only the code its subcommand needs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from pathlib import Path
from typing import Any

from .errors import DigitLimitError, InputError, LatquotError, OutputError, SchemaError
from .exactnum import float_sqrt
from .serialize import (
    format_float,
    format_rational,
    matrix_to_json,
    matz_to_json,
    parse_complex_matrix,
    parse_lattice,
    parse_lattice_vector,
    parse_matrix,
    parse_point,
    parse_rational,
    parse_vector,
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


def _parse_pair(paths, flag: str, parse) -> tuple:
    """The two inputs of a flag given twice, parsed in order."""
    if len(paths) != 2:
        raise SchemaError(f"expected exactly two {flag} arguments, got {len(paths)}")
    return _parse_file(paths[0], parse), _parse_file(paths[1], parse)


def _witness_doc(witness) -> Any:
    return matz_to_json(witness) if witness is not None else None


def _induced_doc(f) -> dict[str, Any]:
    from .quotient_torus import volume_scale

    return {"volume_scale": format_rational(volume_scale(f)), "witness": matz_to_json(f.witness)}


# --- handlers: (library module, parsed arguments) -> the result document ---

def _reduce(lib, args):
    lattice = _parse_file(args.lattice, parse_lattice)
    return point_to_json(lib.reduce(lattice, _parse_file(args.vector, parse_vector)))


def _add(lib, args):
    return point_to_json(lib.torus_add(*_parse_pair(args.point, "--point", parse_point)))


def _induce(lib, args):
    matrix = _parse_file(args.matrix, parse_matrix)
    source = _parse_file(args.source, parse_lattice)
    target = _parse_file(args.target, parse_lattice)
    f = lib.make_induced_map(matrix, source, target)
    if args.point is None:
        return _induced_doc(f)
    return point_to_json(lib.apply_induced(f, _parse_file(args.point, parse_point)))


def _volume(lib, args):
    return {"covolume": format_rational(lib.covolume(_parse_file(args.lattice, parse_lattice)))}


def _volume_scaled(lib, args):
    lattice = _parse_file(args.lattice, parse_lattice)
    c = 2 * math.pi if args.scale == "2pi" else parse_rational(args.scale)
    return {"volume_float": format_float(lib.volume_of_scaled(lattice, c))}


def _gram(lib, args):
    return {"gram": matrix_to_json(lib.gram(_parse_file(args.lattice, parse_lattice)).matrix)}


def _shortest(lib, args):
    vectors = lib.shortest_vectors(_parse_file(args.lattice, parse_lattice))
    value = lib.squared_length(vectors[0])
    return {
        "squared_length": format_rational(value),
        "length_float": format_float(float_sqrt(value)),
        "vectors": [list(v.coeffs) for v in vectors],
    }


def _spectrum(lib, args):
    lattice = _parse_file(args.lattice, parse_lattice)
    spectrum = lib.geodesic_spectrum(lattice, parse_rational(args.bound))
    return {"spectrum": [[format_rational(q), mult] for q, mult in spectrum]}


def _angle(lib, args):
    v, w = _parse_pair(args.vector, "--vector", parse_lattice_vector)
    return {
        "cos_squared_signed": format_rational(lib.signed_cos_squared(v, w)),
        "angle_float": format_float(lib.angle(v, w)),
    }


def _injectivity(lib, args):
    r_sq, r = lib.injectivity_radius(_parse_file(args.lattice, parse_lattice))
    return {"radius_squared": format_rational(r_sq), "radius_float": format_float(r)}


def _isometric(lib, args):
    l1, l2 = _parse_pair(args.lattice, "--lattice", parse_lattice)
    witness = lib.isometric_mod_rotation(l1, l2, oriented=args.oriented)
    return {"isometric": witness is not None, "witness": _witness_doc(witness)}


def _realify(lib, args):
    return {"matrix": matrix_to_json(lib.realify(_parse_file(args.cmatrix, parse_complex_matrix)))}


def _is_unitary(lib, args):
    return {"unitary": lib.is_unitary(_parse_file(args.matrix, parse_matrix), args.cdim)}


def _complex_induce(lib, args):
    cm = _parse_file(args.cmatrix, parse_complex_matrix)
    source = _parse_file(args.source, parse_lattice)
    target = _parse_file(args.target, parse_lattice)
    return _induced_doc(lib.complex_map_check(cm, source, target))


def _gram_map(lib, args):
    return {"gram": matrix_to_json(lib.gram_map(_parse_file(args.matrix, parse_matrix)).matrix)}


def _coset_eq(lib, args):
    return {"same_coset": lib.same_left_coset(*_parse_pair(args.matrix, "--matrix", parse_matrix))}


def _in_m(lib, args):
    return {"in_m": lib.in_M(_parse_file(args.matrix, parse_matrix))}


def _in_sigma(lib, args):
    return {"in_sigma": lib.in_Sigma(_parse_file(args.matrix, parse_matrix))}


def _orientation(lib, args):
    return {"orientation": lib.orientation(_parse_file(args.matrix, parse_matrix))}


def _double_coset(lib, args):
    l1, l2 = _parse_pair(args.lattice, "--lattice", parse_lattice)
    witness = lib.double_coset_equivalent(l1, l2, oriented=args.oriented)
    return {"equivalent": witness is not None, "witness": _witness_doc(witness)}


_ONE = {"required": True}
_TWO = {"action": "append", "required": True}  # the flag is given twice, in order
_ORIENTED = ("--oriented", {"action": "store_true"})

# name -> (help line, library module, (flag, add_argument keywords) pairs,
# handler); every subcommand also takes --output.  --help lists them in this
# order.
COMMANDS = {
    "reduce": ("canonical quotient map: reduce an ambient vector modulo a lattice", "quotient_torus",
               (("--lattice", _ONE), ("--vector", _ONE)), _reduce),
    "add": ("add two torus points (pass --point twice)", "quotient_torus", (("--point", _TWO),), _add),
    "induce": ("validate A(L1) = L2 and report the induced map (optionally apply it)", "quotient_torus",
               (("--matrix", _ONE), ("--source", _ONE), ("--target", _ONE), ("--point", {})), _induce),
    "volume": ("covolume of a lattice (volume of its quotient torus)", "lattice_core",
               (("--lattice", _ONE),), _volume),
    "volume-scaled": ("volume of the quotient by c*L for a real scale c", "quotient_torus",
                      (("--lattice", _ONE),
                       ("--scale", {"required": True, "help": 'rational "p/q" or the token "2pi"'})),
                      _volume_scaled),
    "gram": ("Gram form of the lattice basis", "flat_geometry", (("--lattice", _ONE),), _gram),
    "shortest": ("all shortest nonzero vector classes of a lattice", "flat_geometry",
                 (("--lattice", _ONE),), _shortest),
    "spectrum": ("squared geodesic lengths up to a bound, with multiplicities", "flat_geometry",
                 (("--lattice", _ONE), ("--bound", {"required": True, "help": 'rational bound "p/q"'})),
                 _spectrum),
    "angle": ("angle between two geodesic classes (pass --vector twice)", "flat_geometry",
              (("--vector", _TWO),), _angle),
    "injectivity": ("injectivity radius of the quotient map", "flat_geometry",
                    (("--lattice", _ONE),), _injectivity),
    "isometric": ("rotation-isometry test for two lattices (pass --lattice twice)", "flat_geometry",
                  (("--lattice", _TWO), _ORIENTED), _isometric),
    "realify": ("real 2n x 2n matrix of a complex matrix", "complex_lattices",
                (("--cmatrix", _ONE),), _realify),
    "is-unitary": ("complex-linearity plus orthogonality test", "complex_lattices",
                   (("--matrix", _ONE),
                    ("--cdim", {"required": True, "type": int, "help": "complex dimension n"})),
                   _is_unitary),
    "complex-induce": ("validate that a complex matrix takes one lattice onto another", "complex_lattices",
                       (("--cmatrix", _ONE), ("--source", _ONE), ("--target", _ONE)), _complex_induce),
    "gram-map": ("T -> T^T T into the positive-definite forms", "moduli_spaces",
                 (("--matrix", _ONE),), _gram_map),
    "coset-eq": ("orthogonal left-coset test for two matrices (pass --matrix twice)", "moduli_spaces",
                 (("--matrix", _TWO),), _coset_eq),
    "in-m": ("symmetric positive definite with determinant 1", "moduli_spaces",
             (("--matrix", _ONE),), _in_m),
    "in-sigma": ("integer entries with determinant 1", "moduli_spaces", (("--matrix", _ONE),), _in_sigma),
    "orientation": ("sign of the determinant", "moduli_spaces", (("--matrix", _ONE),), _orientation),
    "double-coset": ("rotation equivalence of equal-covolume lattices (pass --lattice twice)", "moduli_spaces",
                     (("--lattice", _TWO), _ORIENTED), _double_coset),
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
        help_text, _, flags, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", metavar="PATH", help="write the result document here instead of stdout")
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
    _, module, _, handler = COMMANDS[args.command]
    try:
        lib = importlib.import_module(f".{module}", __package__)
        _emit(handler(lib, args), args.output)
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
