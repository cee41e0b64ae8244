"""Tour of the monomial model of the fundamental crystals.

Run:  python3 demos/fundamental_crystals.py
"""

from cncrystal import Monomial, XLetter, cli, generate_closure, m_k_set, x_monomial

# The smallest interesting crystal: rank 2, highest weight L1.  Starting from
# the single variable Y1(1), the lowering operators trace out a 4-vertex path.
print("== rank 2, the vector representation ==")
graph = generate_closure([Monomial.generator(2, 1, 1)])
for k, vertex in enumerate(graph.vertices):
    print(f"  vertex {k}: {vertex}   weight {vertex.weight()}")
print("  lowering edges:", ", ".join(f"{s}-[{i}]->{t}" for s, i, t in graph.edges))
print()

# Every element is a product of one-letter building blocks ("X-variables"),
# one per letter of the alphabet 1 < 2 < ... < n < nbar < ... < 1bar.
print("== the same four elements as one-letter X-words ==")
for value in (1, 2, -2, -1):
    letter = XLetter(value, 1)
    print(f"  {letter}  =  {x_monomial(2, letter)}")
print()

# Longer words: strictly increasing k-letter words with staircase shifts.
# Distinct words can collide after cancellation; identity is the exponent
# function, so the sets below are deduplicated.
print("== sizes of the fundamental sets at rank 5 ==")
for k in range(1, 11):
    elements = m_k_set(5, k, 1)
    hw = [m for m in elements if m.is_highest_weight()]
    print(f"  length {k:2d}: {len(elements):4d} elements, highest weight {hw[0]}")
print()

print("== DOT export of the rank-2 length-2 crystal ==")
cli.main(["graph", "--rank", "2", "--k", "2", "--format", "dot"])
print()
