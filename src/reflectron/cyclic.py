"""Elements sum_l c_l C^l of the cyclic subalgebra of C[S_{n+1}].

The forward transform is unnormalized, ct_k = sum_l exp(2 pi i l k/(n+1)) c_l,
so ct_0 is literally the coefficient sum; the inverse carries the 1/(n+1).
"""

import cmath
from dataclasses import dataclass, field
from math import acos, exp, expm1, sin

import numpy as np

from .config import NonChannelElementError, _check_n, ensure_vector_budget
from .tensor_core import UNITARY_TOL, _Fresh, _read_only


def _coefficients(n: int) -> np.ndarray:
    """The n + 1 zero coefficients of a new element, checked against the
    budget before they are allocated."""
    ensure_vector_budget(n + 1, "cyclic element coefficients")
    return np.zeros(n + 1, dtype=complex)


@dataclass(frozen=True, eq=False)
class CyclicElement:
    """An element of C[S_{n+1}] given by its n + 1 coefficients c_0 .. c_n:
    read-only, a copy of the caller's array, n derived from their count.
    `invariants` = (c_0, ct_0 = sum_l c_l, A = sum_{l>=1} |c_l|^2), all the
    covariant layer reads: a library family hands it over in closed form; any
    other array has it summed here once. `==` and hashing go by identity."""

    coeffs: np.ndarray
    n: int = field(init=False)
    invariants: tuple = field(init=False, repr=False)

    def __post_init__(self):
        invariants = self.coeffs.invariants if isinstance(self.coeffs, _Fresh) else None
        c = _read_only(self.coeffs)
        if c.size == 0:
            raise ValueError("need at least one coefficient")
        if invariants is None:
            tail = c[1:]
            invariants = (complex(c[0]), complex(c.sum()), float(np.vdot(tail, tail).real))
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n", c.size - 1)
        object.__setattr__(self, "invariants", invariants)


def fourier(e: CyclicElement) -> np.ndarray:
    """ct_k = sum_l exp(+2 pi i l k / (n+1)) c_l."""
    return (e.n + 1) * np.fft.ifft(e.coeffs)


def inverse_fourier(ct: np.ndarray) -> CyclicElement:
    ct = np.asarray(ct, dtype=complex).reshape(-1)
    return CyclicElement(_Fresh(np.fft.fft(ct) / ct.size))


def is_unitary_element(e: CyclicElement) -> bool:
    """True iff every DFT coefficient has unit modulus."""
    return bool(np.max(np.abs(np.abs(fourier(e)) - 1.0)) <= UNITARY_TOL)


def is_channel_element(e: CyclicElement) -> bool:
    """True iff the element defines a trace-preserving reflection channel.

    Needs |ct_0| = 1 and sum_l |c_l|^2 = |c_0|^2 + A = 1, read from its
    invariants: true of every unitary element and of the sequential families.
    """
    c0, ct0, A = e.invariants
    return abs(abs(ct0) - 1.0) <= UNITARY_TOL and abs(abs(c0) ** 2 + A - 1.0) <= UNITARY_TOL


def _require_channel_element(e: CyclicElement) -> None:
    """Raise NonChannelElementError unless the element defines a channel:
    the one raise site of the condition."""
    if not is_channel_element(e):
        raise NonChannelElementError("cyclic element is not trace-preserving (needs |ct_0| = 1 and sum |c_l|^2 = 1)")


def f_opt(n: int) -> float:
    """Cosine of the optimal rotation angle for reflections."""
    return -(n**3 + 6 * n**2 + 6 * n) / (n + 2) ** 3


def optimal_angle(n: int) -> float:
    return acos(f_opt(n))


def _r_theta_invariants(n: int, theta: float) -> tuple:
    """(c_0, ct_0, A) of r_theta: (n + e^{i theta})/(n + 1), e^{i theta}, 4n sin^2(theta/2)/(n + 1)^2."""
    phase = cmath.exp(1j * theta)
    return (n + phase) / (n + 1), phase, 4 * n * sin(0.5 * theta) ** 2 / (n + 1) ** 2


def r_theta_coeffs(n: int, theta: float) -> CyclicElement:
    """Coefficients of I + (e^{i theta} - 1)/(n+1) sum_l C^l."""
    _check_n(n)
    c = _coefficients(n)
    c0, phase, A = _r_theta_invariants(n, theta)
    c[:] = (phase - 1.0) / (n + 1)
    c[0] = c0
    return CyclicElement(_Fresh(c, (c0, phase, A)))


def optimal_reflection_coeffs(n: int) -> CyclicElement:
    return r_theta_coeffs(n, optimal_angle(n))


def lmr_coeffs(thetas) -> CyclicElement:
    """Coefficients of the sequential swap-rotation algorithm, in O(n).

    For angles theta_0 .. theta_{n-1}:

        c_0 = prod_j cos theta_j
        c_l = i e^{i sum_{j>=l} theta_j} sin theta_{l-1} prod_{j<l-1} cos theta_j

    for l = 1..n: the products from prefix sums of log|cos theta_j| = log1p(-2 m_j),
    m_j = min(sin^2, cos^2)(theta_j/2), exact where cos theta_j would round to the
    ulp of 1, signs apart; the phases from tail sums of the angles. The invariants,
    with L = sum_j log|cos theta_j|: c_0 = +-e^L, A = -expm1(2L), ct_0 = e^{i sum_j theta_j}.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    n = thetas.size
    if n < 1:
        raise ValueError("need at least one angle")
    c = _coefficients(n)
    sin2, cos2 = np.sin(0.5 * thetas) ** 2, np.cos(0.5 * thetas) ** 2
    logs, negative = np.log1p(-2.0 * np.minimum(sin2, cos2)), sin2 > cos2
    del sin2, cos2  # n floats each, not held through the passes below
    total = float(np.add.reduce(logs))
    # amp[l-1] = sin theta_{l-1} prod_{j<l-1} cos theta_j, tails[l-1] = sum_{j>=l} theta_j: exclusive running sums
    amp = np.exp(np.add.accumulate(logs) - logs)
    np.negative(amp, out=amp, where=np.logical_xor.accumulate(negative) ^ negative)
    amp *= np.sin(thetas)
    tails = np.add.accumulate(thetas[::-1])[::-1] - thetas
    c.real[1:] = -amp * np.sin(tails)  # c_l = i amp e^{i tails}
    c.imag[1:] = amp * np.cos(tails)
    c[0] = c0 = -exp(total) if np.logical_xor.reduce(negative) else exp(total)
    return CyclicElement(_Fresh(c, (complex(c0), cmath.exp(1j * float(np.add.reduce(thetas))), -expm1(2.0 * total))))


def apply_element(e: CyclicElement, d: int, vecs) -> np.ndarray:
    """sum_l c_l C^l applied to a vector on (C^d)^{x(n+1)}, or to each row of
    an m x d^{n+1} stack, as a swap of two slot groups per power; the
    operator is never built."""
    vecs = np.asarray(vecs, dtype=complex)
    ensure_vector_budget(vecs.size, "cyclic element action")
    k = e.n + 1
    if vecs.shape[-1] != d**k:
        raise ValueError(f"expected rows of {d}^{k} = {d**k} amplitudes, got {vecs.shape[-1]}")
    rows = vecs.reshape(-1, d**k)
    m = rows.shape[0]
    out = np.zeros(rows.shape, dtype=complex)
    for l, c in enumerate(e.coeffs):
        if c == 0:
            continue
        # output slot t carries input slot (t - l) mod k: the last l input
        # slots become the first l output slots, the first k - l the rest
        block = out.reshape(m, d**l, d ** (k - l))
        block += c * rows.reshape(m, d ** (k - l), d**l).transpose(0, 2, 1)
    return out.reshape(vecs.shape)
