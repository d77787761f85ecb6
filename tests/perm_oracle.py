"""Dense permutation operators on (C^d)^{x k}, and sum_l c_l C^l built from them.

The library applies a cyclic element without building it
(`cyclic.apply_element`); these matrices are the independent reference the
tests hold that action, the circuits and the symmetric projector to. A
permutation is a tuple ``perm`` of length k with ``perm[s]`` the slot that
receives the contents of slot ``s``.
"""

import numpy as np


def permutation_operator(perm, d: int) -> np.ndarray:
    """0/1 matrix sending |i_0 ... i_{k-1}> to the permuted basis ket."""
    k = len(perm)
    dim = d**k
    # column x maps to row y with y[perm[s]] = x[s]
    idx = np.arange(dim)
    rows = np.zeros(dim, dtype=np.int64)
    for s in range(k):
        rows += (idx // d ** (k - 1 - s)) % d * d ** (k - 1 - perm[s])
    entries = np.zeros((dim, dim), dtype=complex)
    entries[rows, idx] = 1.0
    return entries


def dense_element(e, d: int) -> np.ndarray:
    """sum_l c_l C^l, with C^l the permutation moving slot s to slot s + l mod n + 1."""
    k = e.n + 1
    acc = np.zeros((d**k, d**k), dtype=complex)
    for l, c in enumerate(e.coeffs):
        if c == 0:
            continue
        acc += c * permutation_operator(tuple((s + l) % k for s in range(k)), d)
    return acc
