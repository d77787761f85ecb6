"""SU(2) Clebsch-Gordan references for the d = 2 conjecture system.

The library builds the system's entries |sum_m <j m; j -m | J 0>|^2 / (2j+1)
from a closed-form product (`repthy.conjecture_system_d2`). Two references
hold it: the exact rational value of each entry from the Racah sum
(`m0_weight_exact`), and the eigenvectors of J^2 on the M = 0 sector in
floats (`m0_weights_eigh`), which reach spins where rationals are slow.
`cg_su2` gives single coefficients. Spin arguments are doubled
half-integers (two_j, two_m).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def _f(x: int) -> Fraction:
    return Fraction(factorial(x))


def _coupling_factor(tj1, tj2, tJ, tM) -> Fraction:
    """The factors under the root of <j1 m1 j2 m2 | J M> that do not depend on m1, m2."""
    pref = Fraction(tJ + 1) * _f((tj1 + tj2 - tJ) // 2) * _f((tj1 - tj2 + tJ) // 2) * _f((-tj1 + tj2 + tJ) // 2)
    pref /= _f((tj1 + tj2 + tJ) // 2 + 1)
    return pref * _f((tJ + tM) // 2) * _f((tJ - tM) // 2)


def _racah_sum(tj1, tm1, tj2, tm2, tJ) -> Fraction:
    j1pj2mJ = (tj1 + tj2 - tJ) // 2
    total = Fraction(0)
    kmin = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    kmax = min(j1pj2mJ, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(kmin, kmax + 1):
        den = (
            _f(k)
            * _f(j1pj2mJ - k)
            * _f((tj1 - tm1) // 2 - k)
            * _f((tj2 + tm2) // 2 - k)
            * _f((tJ - tj2 + tm1) // 2 + k)
            * _f((tJ - tj1 - tm2) // 2 + k)
        )
        total += Fraction((-1) ** k) / den
    return total


@lru_cache(maxsize=None)
def _cg_su2_cached(tj1, tm1, tj2, tm2, tJ, tM):
    pref = _coupling_factor(tj1, tj2, tJ, tM) * (
        _f((tj1 - tm1) // 2) * _f((tj1 + tm1) // 2) * _f((tj2 - tm2) // 2) * _f((tj2 + tm2) // 2)
    )
    total = _racah_sum(tj1, tm1, tj2, tm2, tJ)
    square = pref * total * total
    sign = 1.0 if total >= 0 else -1.0
    return sign * float(square) ** 0.5


def cg_su2(two_j1: int, two_m1: int, two_j2: int, two_m2: int, two_J: int, two_M: int) -> float:
    """Condon-Shortley <j1 m1 j2 m2 | J M>, exact rationals under the root."""
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_J, two_M)):
        if (tj - tm) % 2 or tj < 0:
            raise ValueError("spin labels must be doubled half-integers of equal parity")
    if two_M != two_m1 + two_m2:
        return 0.0
    if not abs(two_j1 - two_j2) <= two_J <= two_j1 + two_j2:
        return 0.0
    if (two_j1 + two_j2 + two_J) % 2:
        return 0.0
    if abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_M) > two_J:
        return 0.0
    return _cg_su2_cached(two_j1, two_m1, two_j2, two_m2, two_J, two_M)


@lru_cache(maxsize=None)
def m0_weight_exact(two_j: int, J: int) -> Fraction:
    """|sum_m <j m; j -m | J 0>|^2 / (2j+1) as an exact rational, for 0 <= J.

    Term m is sqrt(P (j-m)!^2 (j+m)!^2) S_m, with P the m-independent
    factor under the root and S_m the Racah sum, so the m-sum is
    sqrt(P) sum_m (j-m)! (j+m)! S_m and its square is rational. Past the
    triangle rule (J > 2j) the value is 0.
    """
    if J > two_j:
        return Fraction(0)
    tJ = 2 * J
    inner = sum(
        _f((two_j - tm) // 2) * _f((two_j + tm) // 2) * _racah_sum(two_j, tm, two_j, -tm, tJ)
        for tm in range(-two_j, two_j + 1, 2)
    )
    return _coupling_factor(two_j, two_j, tJ, 0) * inner * inner / (two_j + 1)


def m0_weights_eigh(two_j: int) -> np.ndarray:
    """|sum_m <j m; j -m | J 0>|^2 / (2j+1) for J = 0..2j, in floats.

    Column J of the eigenvectors of J^2 on the M = 0 sector of spin j x
    spin j (basis |m, -m>, a symmetric tridiagonal matrix with diagonal
    2j(j+1) - 2m^2 and off-diagonal j(j+1) - m(m+1)) is |J 0>, because eigh
    returns the eigenvalues J(J+1) in ascending order. Only the square of
    the component sum enters, so the phase of each column is irrelevant.
    """
    j = two_j / 2
    m = np.arange(-two_j, two_j + 1, 2) / 2
    casimir = np.diag(2 * j * (j + 1) - 2 * m * m)
    off = j * (j + 1) - m[:-1] * (m[:-1] + 1)
    casimir += np.diag(off, 1) + np.diag(off, -1)
    _, vecs = np.linalg.eigh(casimir)
    return vecs.sum(axis=0) ** 2 / (two_j + 1)
