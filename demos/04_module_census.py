"""The independent oracle: enumerate every polarized module built from
cyclic words, classify each, and watch the 2^g coset classes appear."""

from collections import Counter

from eotypes import (enumerate_polarized_dms, field_new, final_type_from_FV,
                     invariants_from_weyl, weyl_from_final_type, weyl_word)

field = field_new(2)
for g in (1, 2, 3):
    print(f"genus {g}:")
    by_class = Counter()
    for mod in enumerate_polarized_dms(g):
        f = final_type_from_FV(mod["F"], mod["V"], field)
        w = weyl_from_final_type(f)
        by_class[w.one_line] += 1
        p_rank, a_number, dim = invariants_from_weyl(w)
        print(f"  {mod['label']:<42} -> w={list(w.one_line)} "
              f"({weyl_word(w)}), p-rank {p_rank}, a {a_number}, dim {dim}")
    print(f"  distinct classes: {len(by_class)} (expected {2 ** g})\n")
