"""The worked fixture: a smooth plane quartic over GF(5) whose Hasse-Witt
triple, Dieudonne module and Ekedahl-Oort type are known. ``eotypes
selftest`` and the test suite both check against these values."""

import numpy as np

GOLDEN_TEXT = "X0^4+X1^4+X2^4+X0^3*X1+X0*X1^2*X2-X1^2*X2^2+3*X1*X2^3"
GOLDEN_HW = [[0, 4, 1], [0, 2, 3], [0, 2, 3]]
GOLDEN_KAPPA = [[1, 0, 0], [0, 1, 1]]
GOLDEN_PSI_COLS = [[3, 1, 3], [3, 3, 1]]
GOLDEN_AF = (np.array([[0, -1, 1], [0, -3, 3], [0, -3, 3],
                       [3, 1, 0], [1, 3, 0], [3, 3, 0]]) % 5).tolist()
GOLDEN_V = (np.array([[0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 3, 3, 1],
                      [-3, -3, -1, -3, -3, -1],
                      [-3, -1, -3, 0, 0, 0]]) % 5).tolist()
GOLDEN_FINAL_TYPE = (0, 0, 1, 1, 2, 2, 3)
GOLDEN_WEYL = (1, 4, 2, 5, 3, 6)
GOLDEN_WEYL_WORD = "s3*s2"
# p-rank, a-number, stratum dimension
GOLDEN_INVARIANTS = (0, 2, 2)
