"""Channel constructions: rotations, approximate reflections and sequential
swap-interaction channels.

Every channel here acts on d x d operators, and on a (..., d, d) stack of
them slice by slice, and is covariant with respect to the unitaries fixing
its axis state, which is what the distance module's one-parameter reduction
relies on.
"""

import numpy as np

from .config import ensure_operator_budget, ensure_vector_budget
from .cyclic import CyclicElement, _require_channel_element, apply_element
from .tensor_core import _kron_fold, as_state, as_vector


def rotation_unitary(psi, alpha: float) -> np.ndarray:
    """e^{i alpha |psi><psi|} = I + (e^{i alpha} - 1) |psi><psi|."""
    state = as_state(psi)
    U = (np.exp(1j * alpha) - 1.0) * state.projector
    U.flat[:: state.dim + 1] += 1.0
    return U


def unitary_channel(U):
    """The channel X -> U X U^dag as a callable."""
    U = np.asarray(U, dtype=complex)
    Ud = U.conj().T
    return lambda X: U @ X @ Ud


def make_rotation_channel(psi, alpha: float):
    """Callable form, X -> R X R^dag."""
    return unitary_channel(rotation_unitary(psi, alpha))


# Largest d at which the effective channel is applied as one d^2 x d^2 product:
# on a (d, d, d, d) stack the Kraus form is faster from d = 7 on (one BLAS thread).
_ONE_PRODUCT_MAX_DIM = 6


def effective_channel(e: CyclicElement, psi):
    """Closed-form action of the approximate reflection channel on C^d.

    With s = sum_{l>=1} c_l = ct_0 - c_0, q = sum_{l>=1} |c_l|^2 = A,
    P = |psi><psi| and K = c_0 I + s P, the channel has the Kraus form

        E(X) = K X K^dag + q tr((I - P) X) P.

    Expanding K X K^dag with P X P = tr(P X) P gives |c_0|^2 X + conj(c_0) s P X
    + c_0 conj(s) X P + |s|^2 tr(P X) P; adding q tr((I - P) X) P turns the
    last term into q tr(X) P + (|s|^2 - q) tr(P X) P. These five terms are the
    partial trace over the program copies, read off the element's invariants
    (c_0, ct_0, A); trace-preserving exactly on a channel-normalized element.

    Up to d = 6 the map is the d^2 x d^2 matrix
    S[(a, b), (c, e)] = E(|a><b|)[c, e] = K[c, a] conj(K[e, b]) + R[a, b] P[c, e],
    R = q (I - P)^T, built once here and returned exactly by unit_images; the
    closure applies it as one (1, d^2) row product per slice, so a slice has
    the same bits alone or in a stack. Above that, S costs d^4 per slice and
    d^4 entries, and the closure applies the Kraus form with two d x d
    matmuls per slice instead.
    """
    _require_channel_element(e)
    P = as_state(psi).projector
    d = P.shape[0]
    c0, ct0, q = e.invariants
    K = (ct0 - c0) * P
    K.flat[:: d + 1] += c0
    R = -q * P.T
    R.flat[:: d + 1] += q
    if d <= _ONE_PRODUCT_MAX_DIM:
        ensure_operator_budget(d * d, "effective channel matrix")
        S = K.T[:, None, :, None] * K.conj().T[None, :, None, :] + R[:, :, None, None] * P
        S = S.reshape(d * d, d * d)

        def act(X):
            return np.matmul(X.reshape(X.shape[:-2] + (1, d * d)), S).reshape(X.shape)

    else:
        Kd = K.conj().T

        def act(X):
            return K @ X @ Kd + (X * R).sum(axis=(-2, -1))[..., None, None] * P

    def channel(X):
        X = np.asarray(X, dtype=complex)
        if X.shape[-2:] != (d, d):
            raise ValueError(f"effective channel acts on (..., {d}, {d}) operators, got {X.shape}")
        return act(X)

    return channel


def dense_reflection_channel(e: CyclicElement, psi, X) -> np.ndarray:
    """tr_P[ V (X x psi^{xn}) V^dag ] simulated on the full Hilbert space.

    V is applied as a sum of axis permutations of tensors, never materialized
    as a d^{n+1} square matrix; the largest dense objects are the d^{n+1} x d
    isometry W and its products with X, so the budget constrains d^{n+2}.
    """
    _require_channel_element(e)
    v = as_vector(psi)
    d = v.size
    n = e.n
    ensure_vector_budget(d ** (n + 2), "reflection channel simulation")
    prog = _kron_fold(v, v, n - 1)
    # row a of the inputs is |a> x psi^{xn}; W[:, a] = sum_l c_l C^l of it
    inputs = np.zeros((d, d ** (n + 1)), dtype=complex)
    for a in range(d):
        inputs[a, a * d**n : (a + 1) * d**n] = prog
    W = apply_element(e, d, inputs).T
    WX = (W @ X).reshape(d, d**n * d)
    Wr = W.reshape(d, d**n * d)
    return WX @ Wr.conj().T


def lmr_sequential_dense(thetas, psi, X) -> np.ndarray:
    """Sequential e^{i theta SWAP} interactions with fresh program copies.

    Only two registers are alive at a time; each step couples the system to
    one copy of psi and traces the copy out.
    """
    v = as_vector(psi)
    d = v.size
    P = np.outer(v, v.conj())
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    rho = np.asarray(X, dtype=complex)
    lead = rho.shape[:-2]
    for theta in np.asarray(thetas, dtype=float).reshape(-1):
        U = np.cos(theta) * np.eye(d * d) + 1j * np.sin(theta) * swap
        # rho x P on each slice of the stack, entry by entry as np.kron builds it
        joint = (rho[..., :, None, :, None] * P[:, None, :]).reshape(lead + (d * d, d * d))
        sigma = U @ joint @ U.conj().T
        rho = np.trace(sigma.reshape(lead + (d,) * 4), axis1=-3, axis2=-1)
    return rho


def unit_images(channel, d: int) -> np.ndarray:
    """E(|i><j|) at row i d + j, from one call of E on the (d^2, d, d) unit stack.

    A callable that does not act slice by slice on a (..., d, d) stack
    would give a wrong Choi matrix; the shape check catches the usual ways
    of getting that wrong (a transpose of all axes, a trace over the stack).
    The d^4-entry stack is checked against the budget before it is built.
    """
    ensure_operator_budget(d * d, "matrix-unit stack")
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = np.asarray(channel(units), dtype=complex)
    if images.shape != units.shape:
        raise ValueError(
            f"channel maps the {units.shape} matrix-unit stack to shape "
            f"{images.shape}; it must act on a (..., d, d) stack slice by slice"
        )
    return images
