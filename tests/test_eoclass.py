import dataclasses
import sys
from collections import deque

import numpy as np
import pytest
from conftest import fermat_final_type, fermat_form, substituted_form

from eotypes import (ConstraintError, CurveCI, EOResult, FinalType, GradedPoly, HWTriple,
                     InternalInvariantError, PolarizedDM, SingularCurveError, WeylCoset,
                     assemble_dm, classify, enumerate_polarized_dms, field_new, final_type_from_AF,
                     final_type_from_FV, full_fv_matrices,
                     hw_triple, invariants_from_weyl, monomial_basis, ordinary_result,
                     plane_curve, random_hw_triple, rank, stable_rank, standard_module,
                     superspecial_result, weyl_from_final_type, weyl_word)
from eotypes import dieudonne, semilinear
from eotypes.dieudonne import _block_diag
from eotypes.eoclass import final_type_from_weyl
from eotypes.golden import (GOLDEN_FINAL_TYPE, GOLDEN_INVARIANTS, GOLDEN_WEYL,
                            GOLDEN_WEYL_WORD)
from eotypes.hwtriple import fast_path_tag


def coset_from_module(mod, field):
    return weyl_from_final_type(final_type_from_FV(mod["F"], mod["V"], field))


def test_final_type_golden(F5, golden_triple):
    dm = assemble_dm(golden_triple)
    ft = final_type_from_AF(dm)
    assert ft.values == GOLDEN_FINAL_TYPE
    full_F, full_V = full_fv_matrices(dm)
    assert final_type_from_FV(full_F, full_V, F5) == ft


def test_final_type_extremes(F5):
    A_phi = np.array([[1, 2], [0, 3]])
    to = HWTriple(F5, 2, A_phi, np.zeros((0, 2), int), np.zeros((2, 0), int))
    dmo = assemble_dm(to)
    assert final_type_from_AF(dmo).values == (0, 1, 2, 2, 2)
    ts = HWTriple(F5, 2, np.zeros((2, 2), int), np.eye(2, dtype=int),
                  np.array([[1, 0], [0, 1]]))
    dms = assemble_dm(ts)
    assert final_type_from_AF(dms).values == (0, 0, 0, 1, 2)


def test_final_type_g1_standard_modules(F5):
    ss = standard_module(("F", "V"), F5)
    assert final_type_from_FV(ss[0], ss[1], F5).values == (0, 0, 1)
    Ford = _block_diag([standard_module(("F",), F5)[0], standard_module(("V",), F5)[0]])
    Vord = _block_diag([standard_module(("F",), F5)[1], standard_module(("V",), F5)[1]])
    assert final_type_from_FV(Ford, Vord, F5).values == (0, 1, 1)


def test_final_type_validation():
    with pytest.raises(InternalInvariantError):
        FinalType((0, 1, 0))  # not monotone
    with pytest.raises(InternalInvariantError):
        FinalType((0, 0, 2, 2, 2))  # step of two
    with pytest.raises(InternalInvariantError):
        FinalType((0, 1, 1, 1, 2))  # duality violated
    with pytest.raises(InternalInvariantError, match="steps of 0 or 1"):
        FinalType((0, 2, 1))  # step of two, with its endpoints and duality intact
    with pytest.raises(InternalInvariantError, match="endpoints must be 0 and g"):
        FinalType((1, 1, 2))  # its steps and duality intact


def test_final_type_from_AF_rejects_dependent_columns(F5):
    # the module type carries the rank check final_type_from_AF relies on
    with pytest.raises(ConstraintError):
        final_type_from_AF(PolarizedDM(F5, np.zeros((4, 2), int)))


def test_classify_rechecks_nothing_its_module_checked(golden_triple, monkeypatch):
    """classify ranks A_F once, when the module is built, and reduces no
    2g x 2g matrix: nothing ranks the standard form. Every module's own
    binding of rref is spied on, so direct calls are seen too."""
    real = semilinear.rref
    reduced = []

    def spy(field, M, *args, **kwargs):
        reduced.append((np.array(M), kwargs.get("_reduced", True)))
        return real(field, M, *args, **kwargs)

    bindings = [m for name, m in sys.modules.items()
                if name.startswith("eotypes") and getattr(m, "rref", None) is real]
    assert {semilinear, dieudonne} <= set(bindings)
    for module in bindings:
        monkeypatch.setattr(module, "rref", spy)
    A_F = assemble_dm(golden_triple).A_F
    reduced.clear()
    assert classify(golden_triple).weyl.one_line == GOLDEN_WEYL
    ranks_of_A_F = [full for M, full in reduced if np.array_equal(M, A_F)]
    assert ranks_of_A_F == [False]
    assert all(M.shape != (6, 6) for M, _ in reduced)


# (F, V) pairs over GF(2) that are not modules, each refused by the F/V
# route at a different check. The last two were found among seed-0 random
# 4 x 4 pairs, of which 135 in 300 end at the first check and 133 at the
# second.
@pytest.mark.parametrize("F,V,message", [
    ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]], np.zeros((4, 4), int),
     "dichotomy violated"),
    ([[1, 0, 0], [0, 0, 0], [0, 1, 0]], np.zeros((3, 3), int), "odd length"),
    ([[1, 1, 1, 0], [0, 0, 0, 0], [0, 1, 1, 1], [1, 1, 1, 1]],
     [[1, 1, 1, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 1, 1, 0]], "did not stabilize"),
    ([[0, 1, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 1]],
     [[0, 1, 1, 0], [0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 0]], "not a chain"),
], ids=["dichotomy", "odd-length", "stabilize", "chain"])
def test_final_type_from_FV_refuses_non_modules(F, V, message):
    with pytest.raises(InternalInvariantError, match=message):
        final_type_from_FV(np.array(F), np.array(V), field_new(2))


def test_weyl_fixtures():
    assert weyl_from_final_type(FinalType(GOLDEN_FINAL_TYPE)).one_line == GOLDEN_WEYL
    assert weyl_from_final_type(FinalType((0, 0, 0, 0, 1, 2, 3))).one_line == (1, 2, 3, 4, 5, 6)
    assert weyl_from_final_type(FinalType((0, 0, 0, 1, 1, 2, 3))).one_line == (1, 2, 4, 3, 5, 6)


def test_weyl_membership_validation():
    with pytest.raises(InternalInvariantError):
        WeylCoset((2, 1, 3, 4))  # violates w(i) + w(2g+1-i) = 2g+1
    with pytest.raises(InternalInvariantError):
        WeylCoset((2, 4, 1, 3))  # in W but not a minimal representative
    with pytest.raises(InternalInvariantError, match="not a permutation"):
        WeylCoset((1, 1))
    with pytest.raises(InternalInvariantError, match="not in the Weyl group"):
        WeylCoset((1, 3, 4, 2))  # 1..g and g+1..2g each in order


def test_weyl_words():
    assert weyl_word(WeylCoset(GOLDEN_WEYL)) == GOLDEN_WEYL_WORD
    assert weyl_word(WeylCoset((1, 2, 4, 3, 5, 6))) == "s3"
    assert weyl_word(WeylCoset((1, 2, 3, 4, 5, 6))) == "id"
    assert weyl_word(WeylCoset((2, 1))) == "s1"


def test_invariants_fixtures():
    assert invariants_from_weyl(WeylCoset(GOLDEN_WEYL)) == GOLDEN_INVARIANTS
    assert invariants_from_weyl(WeylCoset((1, 2, 3, 4, 5, 6))) == (0, 3, 0)
    assert invariants_from_weyl(WeylCoset((4, 5, 6, 1, 2, 3))) == (3, 0, 6)
    assert invariants_from_weyl(WeylCoset((1, 2, 4, 3, 5, 6))) == (0, 2, 1)


def test_ordinary_superspecial_results():
    o = ordinary_result(3)
    assert o.final_type.values == (0, 1, 2, 3, 3, 3, 3)
    assert o.weyl.one_line == (4, 5, 6, 1, 2, 3)
    assert (o.p_rank, o.a_number, o.stratum_dim) == (3, 0, 6)
    s = superspecial_result(3)
    assert s.final_type.values == (0, 0, 0, 0, 1, 2, 3)
    assert s.weyl.one_line == (1, 2, 3, 4, 5, 6)
    assert (s.p_rank, s.a_number, s.stratum_dim) == (0, 3, 0)


def test_classify_golden_end_to_end(golden_curve):
    res = classify(golden_curve)
    assert res.weyl.one_line == GOLDEN_WEYL
    assert res.final_type.values == GOLDEN_FINAL_TYPE
    assert (res.p_rank, res.a_number, res.stratum_dim) == GOLDEN_INVARIANTS
    assert res.fast_tag == "interesting"


def test_classify_rejects_unknown_type():
    with pytest.raises(ConstraintError):
        classify(42)


def test_scaling_invariance(F5):
    rng = np.random.default_rng(99)
    count = 0
    while count < 100:
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        c = int(rng.integers(1, 5))
        d = int(rng.integers(1, 5))
        scaled = HWTriple(F5, g, F5.scale_int(c, t.A_phi), t.kappa,
                          F5.scale_int(d, t.A_psi))
        assert classify(scaled).weyl == classify(t).weyl
        count += 1


def test_path_agreement_random():
    # the table route against the F/V saturation, over prime fields and
    # extensions where sigma^(-1) != sigma; one test, the fields in a loop
    for p, m in [(2, 1), (5, 1), (2, 3), (3, 2), (7, 3)]:
        field = field_new(p, m)
        rng = np.random.default_rng(42 + 10 * p + m)
        for _ in range(100):
            g = int(rng.integers(1, 7))
            dm = assemble_dm(random_hw_triple(field, g, rng))
            full_F, full_V = full_fv_matrices(dm)
            assert final_type_from_AF(dm) == \
                final_type_from_FV(full_F, full_V, field)


def test_path_agreement_enumeration():
    # the FV path on every enumerated module matches the AF path on a
    # polarized realization when one exists (dual pairs carry the standard
    # form after reordering; here we settle for FV self-consistency and the
    # classification count)
    for g in (1, 2, 3, 4):
        field = field_new(2)
        outs = {coset_from_module(m, field).one_line
                for m in enumerate_polarized_dms(g)}
        assert len(outs) == 2 ** g


def _simple_reflections(g):
    refs = []
    n = 2 * g
    for i in range(1, g + 1):
        perm = list(range(n))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        if i < g:
            perm[n - i - 1], perm[n - i] = perm[n - i], perm[n - i - 1]
        refs.append(perm)
    return refs


def _coxeter_lengths(g):
    """BFS over the Weyl group from the identity; exact length oracle."""
    refs = _simple_reflections(g)
    n = 2 * g
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for perm in refs:
            nxt = tuple(w[perm[k]] for k in range(n))
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_stratum_dim_equals_coxeter_length(g):
    """The flat-sum formula agrees with the Coxeter length of the minimal
    representative on every enumerated coset."""
    lengths = _coxeter_lengths(g)
    field = field_new(2)
    seen = set()
    for mod in enumerate_polarized_dms(g):
        w = coset_from_module(mod, field)
        if w.one_line in seen:
            continue
        seen.add(w.one_line)
        _, _, dim = invariants_from_weyl(w)
        assert dim == lengths[w.one_line]
        # the peeled word is reduced: its letter count equals the length
        word = weyl_word(w)
        nletters = 0 if word == "id" else word.count("s")
        assert nletters == lengths[w.one_line]
    assert len(seen) == 2 ** g


def test_consistency_formulas_random_triples(F5):
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = int(rng.integers(1, 5))
        t = random_hw_triple(F5, g, rng)
        res = classify(t)
        assert res.a_number == t.h == g - res.final_type[g]
        assert res.p_rank == stable_rank(F5, t.A_phi)
        one = res.weyl.one_line
        assert res.p_rank == sum(1 for i in range(1, g + 1) if one[i - 1] == i + g)


def test_classify_extension_field_triple():
    F9 = field_new(3, 2)
    rng = np.random.default_rng(31)
    for _ in range(20):
        t = random_hw_triple(F9, 3, rng)
        res = classify(t)
        dm = assemble_dm(t)
        full_F, full_V = full_fv_matrices(dm)
        assert final_type_from_FV(full_F, full_V, F9) == res.final_type


@pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4)])
def test_fv_route_matches_classify_where_the_twist_matters(p, m):
    """Over GF(p^m) with m >= 3, sigma^(-1) differs from sigma, so the twist
    of V in full_fv_matrices decides the F/V route's final type. Seeded
    interesting triples, the ones classify reads off the module rather than
    a fast tag, agree with classify."""
    field = field_new(p, m)
    rng = np.random.default_rng(p * 10 + m)
    compared = 0
    while compared < 4:
        t = random_hw_triple(field, int(rng.integers(2, 5)), rng)
        if t.fast_tag == "interesting":
            full_F, full_V = full_fv_matrices(assemble_dm(t))
            assert final_type_from_FV(full_F, full_V, field) == classify(t).final_type
            compared += 1


def test_final_type_from_weyl_inverse():
    f = FinalType(GOLDEN_FINAL_TYPE)
    assert final_type_from_weyl(weyl_from_final_type(f)) == f


def test_fast_tag_property_matches_triple():
    assert "fast_tag" not in {f.name for f in dataclasses.fields(EOResult)}
    rng = np.random.default_rng(17)
    seen = set()
    for field in (field_new(2), field_new(5), field_new(3, 2)):
        for _ in range(40):
            t = random_hw_triple(field, int(rng.integers(1, 5)), rng)
            assert classify(t).fast_tag == t.fast_tag
            assert classify(assemble_dm(t)).fast_tag == t.fast_tag
            seen.add(t.fast_tag)
    assert seen == {"ordinary", "superspecial", "interesting"}


def test_fast_path_tag_matches_p_rank_on_every_census_coset():
    """On every census coset with g <= 4 the one tag rule of (a, g) agrees
    with the p-rank definition: superspecial iff a = g, ordinary iff
    p-rank = g, as a minimal representative has p-rank g iff a = 0."""
    field = field_new(2)
    for g in (1, 2, 3, 4):
        cosets = {coset_from_module(m, field) for m in enumerate_polarized_dms(g)}
        assert len(cosets) == 2 ** g
        tags = set()
        for w in cosets:
            p_rank, a, _ = invariants_from_weyl(w)
            by_p_rank = ("superspecial" if a == g else
                         "ordinary" if p_rank == g else "interesting")
            assert fast_path_tag(a, g) == by_p_rank
            tags.add(by_p_rank)
        assert len(tags) == min(g + 1, 3)


def test_fermat_final_types_match_the_closed_form():
    """classify(hw_triple(...)) agrees with conftest's fermat_final_type,
    read off the eigenbasis index sets with no field arithmetic. The curves
    are X^d + Y^d + Z^d over GF(p), p <= 13, for d = 3..10 (d <= 8 at
    p = 11, 13), up to genus 36; and f(M * x) for seeded invertible M over
    GF(p^2), GF(p^3) and GF(p), d = 3..8, as the EO type is geometric. Over
    GF(p^m) those matrices leave GF(p), so a wrong Frobenius twist in psi
    or in the canonical flag fails here."""
    tags = {}

    def check(field, d, M=None):
        triple = hw_triple(plane_curve(field, fermat_form(field, d, M)))
        assert list(classify(triple).final_type) == fermat_final_type(field.p, d), (field, d)
        key = (field.m > 1, triple.fast_tag)
        tags[key] = tags.get(key, 0) + 1
        return triple.g

    assert max(check(field_new(p), d) for p in (2, 3, 5, 7, 11, 13)
               for d in range(3, 11 if p < 11 else 9) if d % p) == 36
    rng = np.random.default_rng(33)
    for p, m in ((2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 1), (7, 1)):
        field = field_new(p, m)
        for d in range(3, 9):
            if d % p:
                M = field.random_elements(rng, (3, 3))
                while rank(field, M) < 3:
                    M = field.random_elements(rng, (3, 3))
                check(field, d, M)
    assert tags == {(False, "interesting"): 20, (False, "ordinary"): 10,
                    (False, "superspecial"): 14, (True, "interesting"): 13,
                    (True, "ordinary"): 3, (True, "superspecial"): 8}


# (p, m, degrees, draws): curves drawn over GF(p), moved by M over GF(p^m)
EXTENSION_MOVES = [(3, 3, (4,), 60), (5, 2, (4,), 60), (7, 2, (4,), 50), (7, 2, (5,), 24),
                   (5, 2, (2, 3), 24)]


def test_weyl_coset_survives_a_change_of_coordinates_over_an_extension():
    """A seeded smooth curve over GF(p) and its forms at M * x, for a random
    invertible M over GF(p^2) or GF(3^3), give the same Weyl coset:
    quartics over GF(3), GF(5) and GF(7), quintics over GF(7) and (2,3)
    curves over GF(5), 156 smooth curves of 218 draws, 38 of them
    interesting. The moved forms have coefficients off the prime field, so
    the second operator of each interesting curve reads factor powers over
    digit views."""
    rng = np.random.default_rng(23)
    tags = {}
    for p, m, degrees, draws in EXTENSION_MOVES:
        base, ext = field_new(p), field_new(p, m)
        nvars = len(degrees) + 2
        for _ in range(draws):
            forms = [GradedPoly(base, nvars, d, base.random_elements(
                rng, (len(monomial_basis(nvars, d)),))) for d in degrees]
            try:
                triple = hw_triple(CurveCI(base, forms))
            except SingularCurveError:
                continue
            M = ext.random_elements(rng, (nvars, nvars))
            while rank(ext, M) < nvars:
                M = ext.random_elements(rng, (nvars, nvars))
            moved = [substituted_form(ext, f, M) for f in forms]
            assert max(int(c) for f in moved for c in f.coeffs) >= p
            moved_triple = hw_triple(CurveCI(ext, moved))
            assert moved_triple.fast_tag == triple.fast_tag
            assert classify(moved_triple).weyl == classify(triple).weyl, (p, m, degrees)
            tags[triple.fast_tag] = tags.get(triple.fast_tag, 0) + 1
    assert tags == {"ordinary": 118, "interesting": 38}
