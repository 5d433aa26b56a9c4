"""A genus-4 curve in P^3: the intersection of a quadric and a cubic,
handled by the general complete-intersection path."""

from eotypes import CurveCI, GradedPoly, classify, field_new, genus, hw_triple

F5 = field_new(5)
quadric = GradedPoly.from_terms(
    F5, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1})
cubic = GradedPoly.from_terms(
    F5, 4, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
curve = CurveCI(F5, [quadric, cubic])

print("curve:", curve)
print("genus:", genus(curve))
print("dim of the dual-class space:", curve.q_basis.dim)
u = curve.u
print("relation-space generator has", len(u), "components, degrees",
      [c.degree for c in u])

triple = hw_triple(curve)
print("\nHasse-Witt matrix:")
print(triple.A_phi)
print("tag:", triple.fast_tag)
print("\nclassification:", classify(triple))
