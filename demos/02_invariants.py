"""Invariants: linking weights, the u-polynomial and based matrices.

Every quantity here is unchanged by the homotopy moves, so differing values
prove two words inequivalent.  The based matrix refines the u-polynomial: its
primitive reduct (and the count rho of its non-special elements) can separate
words the u-polynomial cannot.
"""

from vstring import (
    based_matrix,
    bm_isomorphic,
    compose,
    distinguish,
    head_tail_matrices,
    n_values,
    parse,
    primitive_based_matrix,
    r_dot,
    reduce_to_primitive,
    rho,
    u_polynomial,
)

w = parse("ABCACB|aaa")
print("word:", w)
print("weights n(X):", dict(n_values(w)))
print("u-polynomial:", u_polynomial(w))

# Tail and head matrices record which arrow ends fall inside each letter's
# span; their difference is the linking-number matrix.
th = head_tail_matrices(w)
print("tail:\n", th.tail, "\nhead:\n", th.head)

# The based matrix carries the weights on its border; reducing it strips
# removable elements until the primitive core remains.
m = based_matrix(w)
print("based matrix:\n", m.pairing)
p, steps = reduce_to_primitive(m)
print("reduction steps:", [(s.kind, s.removed) for s in steps], " rho:", p.size - 1)

# A famous pair: the square of the doubled pair has u = 0 but rho = 4, so it
# is not trivial even though the doubled pair itself is.
delta = parse("ABAB|aa")
square = compose(delta, delta)
print()
print(square, "has u =", u_polynomial(square), "but rho =", rho(square))
print(distinguish(parse("0"), square))

# Nested duplication is not homotopy invariant: these two words are related
# by a single move, yet their duplicates have non-isomorphic primitive
# based matrices (with equal rho!).
a, b = parse("ABCBDCAD|aabb"), parse("BACDBCDA|aabb")
pa = primitive_based_matrix(r_dot(a, 2))
pb = primitive_based_matrix(r_dot(b, 2))
print()
print("rho of the two duplicates:", pa.size - 1, pb.size - 1)
print("isomorphic primitive matrices?", bm_isomorphic(pa, pb))
