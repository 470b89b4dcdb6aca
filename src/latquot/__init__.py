"""Exact arithmetic for lattices, their quotient tori, and spaces of lattices."""

from .exactnum import MatQ, MatZ, Rational, det, hnf, inverse, is_positive_definite, ldl, lll_gram
from .lattice_core import (
    Lattice,
    change_of_basis_witness,
    contains,
    covolume,
    equals,
    from_basis,
    scale,
    standard,
    sublattice_index,
)
from .quotient_torus import (
    InducedMap,
    TorusPoint,
    apply_induced,
    circle_map,
    compose,
    make_induced_map,
    parallelepiped_image_volume,
    reduce,
    torus_add,
    volume_of_scaled,
    volume_scale,
)
from .flat_geometry import (
    GramForm,
    LatticeVector,
    angle,
    geodesic_spectrum,
    gram,
    injectivity_radius,
    is_orthogonal,
    isometric_mod_rotation,
    shortest_vectors,
    signed_cos_squared,
    squared_length,
)
from .complex_lattices import (
    ComplexMatrix,
    ComplexStructure,
    complex_map_check,
    gaussian_lattice,
    is_complex_linear,
    is_unitary,
    realify,
    standard_complex_structure,
)
from .moduli_spaces import (
    PosDefForm,
    UnitCovolumeForm,
    double_coset_equivalent,
    gram_map,
    in_M,
    in_Sigma,
    orientation,
    posdef_witness,
    same_left_coset,
    unit_covolume_form,
)
from . import errors

__version__ = "0.1.0"
