"""Entrywise products of fundamental crystals versus their tensor product.

The product multiplies monomials entrywise (exponents add), so distinct
tensor pairs can collapse to one monomial and the product can be strictly
smaller than the tensor product.  It is still closed under the crystal
operators, and which irreducibles survive is governed by integer thresholds
in the shift gap m.

Run:  python3 demos/product_vs_tensor.py
"""

from cncrystal import (
    ProductSpec,
    decompose_product_bruteforce,
    decomposition_pairs,
    fundamental_crystal,
    m_k_set,
    predicted_components,
    product_decomposition_closed_form,
    product_set,
    tensor_decomposition_closed_form,
    weight_of_pair,
)

print("== rank 2: product of two copies of the vector crystal ==")
for m in (1, 2, 3):
    spec = ProductSpec(2, 1, 1, m)
    size = len(product_set(spec))
    tensor_size = len(m_k_set(2, 1, m)) * len(fundamental_crystal(2, 1))
    decomposition = decompose_product_bruteforce(spec)
    summands = " + ".join(f"B({c.weight})[{c.size}]" for c in decomposition)
    print(f"  m={m}: |product| = {size:2d} (tensor has {tensor_size}),  {summands}")
print()

print("== rank 5, p = q = 3: thresholds gate the components ==")
tensor = tensor_decomposition_closed_form(5, 3, 3)
print("  tensor constituents:", ", ".join(str(weight_of_pair(5, a, c)) for a, c in tensor))
for a, c in tensor:
    threshold = predicted_components(5, 3, 3)[a, c]
    print(f"  {str(weight_of_pair(5, a, c)):10s} appears once m >= {threshold}")
print()

print("== the closed form matches brute force stage by stage ==")
for m in range(1, 7):
    spec = ProductSpec(5, 3, 3, m)
    predicted = product_decomposition_closed_form(spec)
    brute = decomposition_pairs(decompose_product_bruteforce(spec))
    flag = "ok" if predicted == brute else "MISMATCH"
    print(f"  m={m}: {len(brute)} components {flag}")
