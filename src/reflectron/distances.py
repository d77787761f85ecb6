"""Trace-norm and diamond-distance computation.

Covariance reduces the diamond maximization to the one-parameter family
phi_p, whose argmax is a proven closed form; every closed form of the cyclic
channels is cross-checked against a dense evaluation on C^{d^2}.
"""

import cmath
from functools import lru_cache
from math import isqrt, sqrt

import numpy as np

from .config import ConsistencyError, _check_d, _check_n, budget_entries, ensure_operator_budget, ensure_vector_budget
from .channels import effective_channel, make_rotation_channel, unit_images
from .cyclic import CyclicElement, _require_channel_element
from .tensor_core import PureState, as_state, haar_random_state

CLOSED_FORM_TOL = 1e-9

_DEFAULT_PSI_SEED = 2024
# most probes per reference-extended contraction; the budget lowers it at large d
_PROBE_CHUNK = 256


def trace_norm(X) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(X, dtype=complex), compute_uv=False)))


def _choi_difference(channel_a, channel_b, d: int) -> np.ndarray:
    """K[(a, b), (c, e)] = (A - B)(|a><b|)[c, e], from one stacked call of each.

    This is the Choi matrix with its two middle indices swapped, so that
    applying the map to a stack of operators is one matrix product.
    """
    return (unit_images(channel_a, d) - unit_images(channel_b, d)).reshape(d * d, d * d)


def _reference_extended(K: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(I_R x E)(rho) for a stack of d^2 x d^2 matrices, E given by K.

    out[i c, j e] = sum_{a, b} rho[i a, j b] K[(a, b), (c, e)].
    """
    d = isqrt(K.shape[0])
    lead = rho.shape[:-2]
    pairs = rho.reshape(lead + (d,) * 4).swapaxes(-3, -2).reshape(-1, d * d)
    out = (pairs @ K).reshape(lead + (d,) * 4).swapaxes(-3, -2)
    return out.reshape(rho.shape)


def _probe_distances(K: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Trace norms of (I_R x E)(|v><v|) for each row v, in chunks whose
    d^2 x d^2 density stack fits the budget."""
    chunk = max(1, min(_PROBE_CHUNK, budget_entries() // K.size))
    out = np.empty(len(probes))
    for start in range(0, len(probes), chunk):
        v = probes[start : start + chunk]
        rho = v[:, :, None] * v[:, None, :].conj()
        eig = np.linalg.eigvalsh(_reference_extended(K, rho))
        out[start : start + len(v)] = np.sum(np.abs(eig), axis=1)
    return out


def _invariants(c0: complex, ct0: complex, alpha: float) -> tuple:
    """(A, gap) = (1 - |c_0|^2, |ct_0 conj(c_0) - e^{i alpha}|): all that a
    distance of the covariant pair reads of a channel element, and the one
    place A is formed."""
    return 1.0 - abs(c0) ** 2, abs(ct0 * c0.conjugate() - cmath.exp(1j * alpha))


def _element_invariants(e: CyclicElement, alpha: float) -> tuple:
    _check_angle(alpha)
    _require_channel_element(e)
    return _invariants(complex(e.coeffs[0]), e.sums[0], alpha)


def _dense_distance_at_p(e: CyclicElement, alpha: float, p: float, psi: PureState) -> float:
    """The phi_p trace distance on C^{d^2}, with no Choi matrix and no frame.

    Up to a unitary on the reference, which leaves the trace distance alone,
    phi_p = sqrt(p)|conj(psi) psi> + c(|Omega> - |conj(psi) psi>), with
    c = sqrt((1-p)/(d-1)) and |Omega> = sum_i |ii>. Its d x d probe matrix
    (row i the system vector next to reference ket |i>) is therefore
    M = c I + (sqrt(p) - c) conj(psi) psi^T, the transpose of psi's cached
    projector scaled and shifted, and (I x E)(|phi_p><phi_p|) has
    block (i, j) equal to E(|m_i><m_j|); each channel acts once on that
    (d, d, d, d) block stack.
    """
    d = psi.dim
    ensure_operator_budget(d * d, "phi_p block stack")
    c = sqrt((1.0 - p) / (d - 1))
    M = (sqrt(p) - c) * psi.projector.T
    M.flat[:: d + 1] += c
    blocks = M[:, None, :, None] * M.conj()[None, :, None, :]
    diff = make_rotation_channel(psi, alpha)(blocks) - effective_channel(e, psi)(blocks)
    eig = np.linalg.eigvalsh(diff.transpose(0, 2, 1, 3).reshape(d * d, d * d))
    return float(np.abs(eig).sum())


@lru_cache(maxsize=None)
def _default_psi(d: int) -> PureState:
    """The seeded default probe state, built once per d and shared."""
    return haar_random_state(d, _DEFAULT_PSI_SEED)


def diamond_covariant(e: CyclicElement, alpha: float, psi=None) -> tuple:
    """Diamond distance of the covariant channel pair, with its argmax p.

    Covariance makes the phi_p family worst, so the distance is the maximum
    over p in [0, 1] of its trace distance f(p) = (1-p)A + sqrt(Q),
    A = 1 - |c_0|^2, g the gap, Q = q2 p^2 + q1 p + q0 with q2 = A^2 - 4g^2,
    q1 = 4g^2 - 2A^2 and q0 = A^2. sqrt(Q)'' has the sign of 4 q2 q0 - q1^2 =
    -16 g^4 <= 0, so f is concave on [0, 1]. f'(0) = 2(g^2 - A^2)/A, so for
    g <= A the argmax is p = 0, where f = 2A (at A = 0 = g, f is 0). For g > A,
    p* = (g - A)/(2g - A) lies in (0, 1), Q(p*) = g^2 and Q'(p*) = 2Ag, so
    f'(p*) = -A + 2Ag/(2g) = 0 and f(p*) = 2g^2/(2g - A). The tests check each
    identity in exact rationals. The value is that two-case closed form,
    _rotation_distance, equal to closed_form_rotation_distance; the dense phi_p
    distance at p*, on psi or the seeded default qubit probe, must agree with it
    within CLOSED_FORM_TOL, or ConsistencyError is raised. alpha must lie in
    [0, pi] and psi must have dimension d >= 2, or ValueError is raised.
    """
    A, gap = _element_invariants(e, alpha)
    state = _default_psi(2) if psi is None else as_state(psi)
    if state.dim < 2:  # phi_p needs a nonzero psi-perp
        raise ValueError("need a probe state of dimension d >= 2")
    p_star = (gap - A) / (2.0 * gap - A) if gap > A else 0.0
    value = _rotation_distance(A, gap)
    dense = _dense_distance_at_p(e, alpha, p_star, state)
    if not abs(dense - value) <= CLOSED_FORM_TOL:  # a NaN fails too
        raise ConsistencyError(
            f"phi_p distance mismatch: closed {value} vs dense {dense}"
        )
    return value, p_star


def _check_angle(alpha: float) -> None:
    if not 0.0 <= alpha <= np.pi + 1e-12:  # NaN and inf fail too
        raise ValueError("alpha must lie in [0, pi]")


def _rotation_distance(A: float, gap: float) -> float:
    """The two-case rotation distance from the invariants (A, gap)."""
    if gap <= A:
        return 2.0 * A
    # 2 gap - A >= gap > 0 keeps its digits at a small gap, where
    # 2 gap + |c_0|^2 - 1 would round the sum to the ulp of 1 first
    return float(2.0 * gap * gap / (2.0 * gap - A))


def closed_form_rotation_distance(e: CyclicElement, alpha: float) -> float:
    """Two-case diamond distance formula for the rotation target."""
    return _rotation_distance(*_element_invariants(e, alpha))


def _mr_terms(n, d) -> tuple:
    """The terms of _mr_distance_at_p from t1 = T(n)/T(n+1), t2 = T(n)/T(n+2),
    T(m) = C(m+d-1, d-1): integer quotients, exact for Fraction n and d, with
    t1 - t2 and 1 - off_perp as single quotients (differences of numbers
    near 1 would lose digits like 1e-17 n)."""
    nd = (n + d) * (n + d + 1)
    t2 = (n + 1) * (n + 2) / nd
    spread = 4 * t2 / (n + 2)
    spread_perp = 4 * t2 / ((n + 1) * (n + 2))
    t1_minus_t2 = (n + 1) * (d - 1) / nd
    one_minus_off_perp = 4 / (n + d + 1)
    z = 2 * ((d - 2) * (n + d + 1) + 2 * (n + 1)) / nd
    return t1_minus_t2, one_minus_off_perp, z, spread, spread_perp


def _mr_distance_at_p(n: int, d: int, p: float) -> float:
    """The phi_p trace distance of measure-and-reflect from the exact reflection.

    Both channels are covariant under the unitaries fixing psi, so on phi_p
    their difference is block diagonal in the psi-adapted basis: the 2 x 2
    block [[x, w], [w, y]], w = sqrt(p(1-p)) z, on {|0 psi>, sum_i |i psi_i>},
    and scalars on |0 psi_i>, on |i psi> and on the traceless rest of
    span{|i psi_j>}. Nothing of size d is built.
    """
    t1_minus_t2, one_minus_off_perp, z, spread, spread_perp = _mr_terms(n, d)
    s = (1.0 - p) / (d - 1)
    x = 4.0 * p * t1_minus_t2
    y = s * ((d - 1) * one_minus_off_perp - spread_perp)
    block = max(abs(x + y), sqrt((x - y) ** 2 + 4.0 * p * (1.0 - p) * z * z))
    # ((d-1)^2 - 1) s = d(d-2)/(d-1) (1-p): the integer quotient rounds once, finite for any float d
    return block + (d - 1) * spread * (p + s) + d * (d - 2) / (d - 1) * (1.0 - p) * spread_perp


def mr_diamond_distance(n: int, d: int) -> tuple:
    """Diamond distance of measure-and-reflect from the exact reflection on
    C^d, with its argmax p; the same for every axis state.

    The argmax is a critical point. In _mr_distance_at_p, f = l + max(|x + y|,
    sqrt(Q)) with l, x, y linear in p and Q = (x - y)^2 + 4p(1 - p)z^2 =
    q2 p^2 + q1 p + q0. l + |x + y| is convex, so it peaks at p = 0 or 1,
    where x or y is 0 and sqrt(Q) = |x + y|: max f = max f2, f2 = l + sqrt(Q).
    f2 is concave, as sqrt(Q)'' has the sign of 4 q2 q0 - q1^2 =
    -256 d^2 (d-2)^2 (d+n-1)^2 / ((d+n)^4 (d+n+1)^2). At p = 1,
    f2' = -2 (d-2)(d-n-1)(d^2 + 3dn + d - 2n - 2) / ((d-1)(n+1)(d+n)(d+n+1)),
    so p = 1 for d <= n + 1 (f2'(1) = 0 at d = n + 1). For d >= n + 2,
    f2'(0) > 0 > f2'(1), and p is the root in (0, 1) of (2 q2 p + q1)^2 =
    4 l'^2 Q with 2 q2 p + q1 < 0 < l': p* = ((d-1)(d+n-1) - 2)/(2d(d-2)).
    The tests check each step in exact rationals on _mr_terms.
    """
    _check_n(n)
    _check_d(d)
    p = 1.0 if d <= n + 1 else ((d - 1) * (d + n - 1) - 2) / (2 * d * (d - 2))
    return _mr_distance_at_p(n, d, p), p


def sampled_diamond_lower_bound(channel_a, channel_b, d: int, trials: int, seed=0) -> float:
    """Max trace distance over Haar-random pure probes on C^{d^2}.

    A lower bound on the diamond distance, nondecreasing in ``trials``.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got trials = {trials}")
    ensure_vector_budget(trials * d * d, "diamond probes")
    # one draw in the order of a real then an imaginary part per probe
    draws = np.random.default_rng(seed).normal(size=(trials, 2, d * d))
    probes = draws[:, 0] + 1j * draws[:, 1]
    for v in probes:
        v /= np.linalg.norm(v)  # per row: a norm along the axis changes bits
    K = _choi_difference(channel_a, channel_b, d)
    return float(np.max(_probe_distances(K, probes), initial=0.0))
