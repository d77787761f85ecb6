"""SU(2) Clebsch-Gordan coefficients from the Racah sum in exact rationals.

The library reads its M = 0 Clebsch-Gordan sums off an eigendecomposition
(`repthy._m0_cg_weights`); these exact values are the reference the tests
hold them to. Spin arguments are doubled half-integers (two_j, two_m).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial


def _f(x: int) -> Fraction:
    return Fraction(factorial(x))


@lru_cache(maxsize=None)
def _cg_su2_cached(tj1, tm1, tj2, tm2, tJ, tM):
    j1pj2mJ = (tj1 + tj2 - tJ) // 2
    pref = Fraction(tJ + 1) * _f(j1pj2mJ) * _f((tj1 - tj2 + tJ) // 2) * _f((-tj1 + tj2 + tJ) // 2)
    pref /= _f((tj1 + tj2 + tJ) // 2 + 1)
    pref *= (
        _f((tJ + tM) // 2)
        * _f((tJ - tM) // 2)
        * _f((tj1 - tm1) // 2)
        * _f((tj1 + tm1) // 2)
        * _f((tj2 - tm2) // 2)
        * _f((tj2 + tm2) // 2)
    )
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
