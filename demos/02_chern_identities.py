"""Walkthrough: the difference-class identities and the projective integral.

The total Chern class of a virtual difference TX - N is
c(TX) * c(N)^{-1}.  Its graded pieces d_0..d_T can be unrolled three ways,
each returning the whole sequence at once:

  1. a triangular recursion  d_j = c_j(TX) - c_j(N) - sum c_{j-i}(N) d_i,
  2. the closed multi-index expansion, each sum over the multi-indices
     of j taken over the partitions of j with signed counts, and
  3. truncated power-series inversion of the total class of N.

These agree symbolically -- demonstrated below with abstract generators,
then specialized to P^m where everything collapses to integers and yields
total GSV indices of split complete intersections.

Run:  python demos/02_chern_identities.py
"""

from gsvkit import (
    ChernVector,
    GradedRing,
    chern_difference_expansion,
    chern_difference_inversion,
    chern_difference_recursion,
    closed_form_gsv,
    inverse_total_class,
    total_gsv_integral_projective,
)

print("=== abstract difference classes, truncation degree 4 ===")
names = {f"a{t}": t for t in range(1, 5)}
names.update({f"b{t}": t for t in range(1, 5)})
ring = GradedRing(names, 4)
c_tx = ChernVector(ring, [ring.gen(f"a{t}") for t in range(1, 5)])
c_n = ChernVector(ring, [ring.gen(f"b{t}") for t in range(1, 5)])

recs = chern_difference_recursion(c_tx, c_n)
exps = chern_difference_expansion(c_tx, c_n)
invs = chern_difference_inversion(c_tx, c_n)
for t in range(1, 5):
    marker = "OK " if recs[t] == exps[t] == invs[t] else "BUG"
    print(f"[{marker}] degree {t}: {recs[t]}")

print()
print("=== inverse total class is a truncated geometric series ===")
one_bundle = GradedRing({"c1": 1}, 5)
line = ChernVector(one_bundle, [one_bundle.gen("c1")])
print("(1 + c1)^(-1) mod degree 6 :", inverse_total_class(line))

print()
print("=== specialization to P^m ===")
print("degree-1 foliation on P^3, invariant (3,2) curve :",
      total_gsv_integral_projective(3, (3, 2), 1))
print("same number from the combinatorial closed form   :",
      closed_form_gsv(3, (3, 2), 1))
print()
print("a small grid, integral vs closed form:")
for m, ks, d in [(2, (2,), 1), (3, (2, 2), 2), (4, (2, 1, 1), 3),
                 (5, (1, 1, 1, 2), 0)]:
    a = total_gsv_integral_projective(m, ks, d)
    b = closed_form_gsv(m, ks, d)
    marker = "OK " if a == b else "BUG"
    print(f"[{marker}] m={m} k={ks} d={d}: {a} == {b}")
