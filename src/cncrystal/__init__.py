"""Exact combinatorics of type-C crystal bases in the Nakajima monomial realization.

The package computes crystal graphs of fundamental crystals, entrywise
products of their monomial models, and the decomposition of those products
into irreducibles, all in exact integer arithmetic; a Kashiwara-Nakashima
column model provides an independent oracle for tensor-product
decompositions.
"""

from .graphs import (
    Component,
    CrystalGraph,
    CrystalInvariantError,
    decompose_set,
    generate_closure,
    is_closed,
)
from .monomials import (
    Monomial,
    StringStats,
    XLetter,
    m_k_set,
    unpack,
    x_monomial,
)
from .products import (
    ProductSpec,
    decompose_product_bruteforce,
    decomposition_pairs,
    fundamental_crystal,
    predicted_components,
    product_decomposition_closed_form,
    product_set,
    tensor_decomposition_closed_form,
    verify_range,
    weight_of_pair,
    weight_to_pair,
)
from .rootdata import (
    VertexBudgetExceeded,
    Weight,
    weyl_dimension,
)
from .tableaux import (
    Column,
    column_crystal,
    column_is_admissible,
    tensor_highest_weights,
)

__all__ = [
    "Column",
    "Component",
    "CrystalGraph",
    "CrystalInvariantError",
    "Monomial",
    "ProductSpec",
    "StringStats",
    "VertexBudgetExceeded",
    "Weight",
    "XLetter",
    "column_crystal",
    "column_is_admissible",
    "decompose_product_bruteforce",
    "decompose_set",
    "decomposition_pairs",
    "fundamental_crystal",
    "generate_closure",
    "is_closed",
    "m_k_set",
    "predicted_components",
    "product_decomposition_closed_form",
    "product_set",
    "tensor_decomposition_closed_form",
    "tensor_highest_weights",
    "unpack",
    "verify_range",
    "weight_of_pair",
    "weight_to_pair",
    "weyl_dimension",
    "x_monomial",
]

__version__ = "0.1.0"
