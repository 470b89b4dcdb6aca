"""Exact arithmetic for lattices, their quotient tori, and spaces of lattices.

Importing the package loads none of its modules.  Each public name below,
and each submodule, is looked up on first access (PEP 562), so a program
that uses only part of the library compiles and loads only that part.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exactnum": (
        "MatQ", "MatZ", "PosDefForm", "Rational", "det", "hnf", "inverse",
        "is_positive_definite", "ldl", "lll_gram",
    ),
    "lattice_core": (
        "Lattice", "change_of_basis_witness", "contains", "covolume", "equals",
        "from_basis", "scale", "standard", "sublattice_index",
    ),
    "quotient_torus": (
        "InducedMap", "TorusPoint", "apply_induced", "circle_map", "compose",
        "make_induced_map", "parallelepiped_image_volume", "reduce", "torus_add",
        "volume_of_scaled", "volume_scale",
    ),
    "flat_geometry": (
        "GramForm", "LatticeVector", "angle", "geodesic_spectrum", "gram",
        "injectivity_radius", "is_orthogonal", "isometric_mod_rotation",
        "shortest_vectors", "signed_cos_squared", "squared_length",
    ),
    "complex_lattices": (
        "ComplexMatrix", "ComplexStructure", "complex_map_check", "gaussian_lattice",
        "is_complex_linear", "is_unitary", "realify", "standard_complex_structure",
    ),
    "moduli_spaces": (
        "UnitCovolumeForm", "double_coset_equivalent", "gram_map", "in_M", "in_Sigma",
        "orientation", "posdef_witness", "same_left_coset", "unit_covolume_form",
    ),
}
_SUBMODULES = (
    "errors", "exactnum", "lattice_core", "quotient_torus", "flat_geometry",
    "complex_lattices", "moduli_spaces", "serialize", "cli",
)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "errors"]


def __getattr__(name: str):
    # A re-exported name is read from its module on every access and never
    # stored here, so it always agrees with the module's current attribute.
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
