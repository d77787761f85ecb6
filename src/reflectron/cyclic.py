"""Elements sum_l c_l C^l of the cyclic subalgebra of C[S_{n+1}].

The forward transform is unnormalized, ct_k = sum_l exp(2 pi i l k/(n+1)) c_l,
so ct_0 is literally the coefficient sum; the inverse carries the 1/(n+1).
"""

from dataclasses import dataclass, field
from math import acos

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
    read-only, a copy of the caller's array. n is derived from their count,
    and the two sums the channel condition tests, (ct_0, sum_l |c_l|^2), are
    read once here. `==` and hashing go by identity."""

    coeffs: np.ndarray
    n: int = field(init=False)
    sums: tuple = field(init=False, repr=False)

    def __post_init__(self):
        c = _read_only(self.coeffs)
        if c.size == 0:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "n", c.size - 1)
        object.__setattr__(self, "sums", (complex(c.sum()), float(np.vdot(c, c).real)))


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

    Needs |ct_0| = 1 and sum_l |c_l|^2 = 1, read from the element's stored
    sums. Unitary elements always qualify; the sequential-interaction
    coefficient families qualify without being unitary elements of the
    algebra.
    """
    ct0, total = e.sums
    return abs(abs(ct0) - 1.0) <= UNITARY_TOL and abs(total - 1.0) <= UNITARY_TOL


def _require_channel_element(e: CyclicElement) -> None:
    """Raise NonChannelElementError unless the element defines a channel:
    the one raise site of the condition."""
    if not is_channel_element(e):
        raise NonChannelElementError(
            "cyclic element is not trace-preserving (needs |ct_0| = 1 and "
            "sum |c_l|^2 = 1)"
        )


def f_opt(n: int) -> float:
    """Cosine of the optimal rotation angle for reflections."""
    return -(n**3 + 6 * n**2 + 6 * n) / (n + 2) ** 3


def optimal_angle(n: int) -> float:
    return acos(f_opt(n))


def r_theta_coeffs(n: int, theta: float) -> CyclicElement:
    """Coefficients of I + (e^{i theta} - 1)/(n+1) sum_l C^l."""
    _check_n(n)
    c = _coefficients(n)
    phase = np.exp(1j * theta)
    c[:] = (phase - 1.0) / (n + 1)
    c[0] = (n + phase) / (n + 1)
    return CyclicElement(_Fresh(c))


def optimal_reflection_coeffs(n: int) -> CyclicElement:
    return r_theta_coeffs(n, optimal_angle(n))


def lmr_coeffs(thetas) -> CyclicElement:
    """Coefficients of the sequential swap-rotation algorithm, in O(n).

    For angles theta_0 .. theta_{n-1}:

        c_0 = prod_j cos theta_j
        c_l = i e^{i sum_{j>=l} theta_j} sin theta_{l-1} prod_{j<l-1} cos theta_j

    for l = 1..n. The products are prefix products of the cosines and the
    phases are tail sums of the angles, one cumulative pass each.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    n = thetas.size
    if n < 1:
        raise ValueError("need at least one angle")
    c = _coefficients(n)
    # prefix[l] = prod_{j<l} cos theta_j, tails[l-1] = sum_{j>=l} theta_j
    prefix = np.cumprod(np.concatenate(([1.0], np.cos(thetas))))
    tails = np.append(np.cumsum(thetas[::-1])[-2::-1], 0.0)
    c[0] = prefix[n]
    c[1:] = np.exp(1j * tails) * 1j * np.sin(thetas) * prefix[:n]
    return CyclicElement(_Fresh(c))


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
