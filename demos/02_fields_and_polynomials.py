"""The arithmetic substrate: finite fields with Frobenius twists, dense
homogeneous polynomials, and classes in the negatively graded dual module."""

import numpy as np

from eotypes import (GradedPoly, TClass, field_new, poly_pow,
                     partial_derivative, t_multiply)

# prime and extension fields; elements are integer codes
F4 = field_new(2, 2)
print("GF(4) with modulus", F4.modulus)
t = F4.element_from_code(2)
print("generator t, t^2 =", (t * t).coeffs, " frobenius(t) =", t.frobenius().coeffs)

F9 = field_new(3, 2)
rng = np.random.default_rng(0)
a = F9.random_elements(rng, (4,))
print("\nGF(9) codes:", a, "-> squares:", F9.mul(a, a))
print("sigma is additive:", np.array_equal(
    F9.frob(F9.add(a, a)), F9.add(F9.frob(a), F9.frob(a))))

# dense homogeneous polynomials; powers stay exact
F5 = field_new(5)
f = GradedPoly.from_terms(F5, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
print("\nf =", f)
print("f^4 has", int(np.count_nonzero(poly_pow(f, 4).coeffs)), "terms")
print("df/dX0 =", partial_derivative(f, 0))

# classes in the dual module: products drop anything with an exponent >= 0
cls = TClass.from_laurent_terms(F5, 3, {(-2, -1, -1): 1})
x0 = GradedPoly.monomial(F5, 3, (1, 0, 0))
x1 = GradedPoly.monomial(F5, 3, (0, 1, 0))
print("\nclass:", cls)
print("X0 * class =", t_multiply(x0, cls))
print("X1 * class =", t_multiply(x1, cls), "(the X1 exponent hit zero)")
