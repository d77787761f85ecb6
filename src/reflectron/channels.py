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


def effective_channel(e: CyclicElement, psi):
    """Closed-form action of the approximate reflection channel on C^d.

    With s = ct_0 - c_0, q = sum_{l>=1} |c_l|^2 and P = |psi><psi|:

        E(X) = a_x X + a_px P X + a_xp X P + a_tr tr(X) P + a_trp tr(P X) P

    where a_x = |c_0|^2, a_px = conj(c_0) s, a_xp = c_0 conj(s), a_tr = q,
    a_trp = |s|^2 - q. Exact for any coefficient vector; trace-preserving
    exactly when the element is channel-normalized. Verified against the
    dense partial-trace oracle in the test suite.
    """
    _require_channel_element(e)
    P = as_state(psi).projector
    c0 = e.coeffs[0]
    tail = e.coeffs[1:]
    s = tail.sum()
    q = float((np.abs(tail) ** 2).sum())
    a_x = abs(c0) ** 2
    a_px = c0.conjugate() * s
    a_xp = c0 * s.conjugate()
    a_trp = abs(s) ** 2 - q

    def channel(X):
        X = np.asarray(X, dtype=complex)
        PX = P @ X
        tr_x = X.trace(axis1=-2, axis2=-1)[..., None, None]
        tr_px = PX.trace(axis1=-2, axis2=-1)[..., None, None]
        return a_x * X + a_px * PX + a_xp * (X @ P) + q * tr_x * P + a_trp * tr_px * P

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


def choi(channel, d: int) -> np.ndarray:
    """sum_ij |i><j| x E(|i><j|)."""
    images = unit_images(channel, d).reshape(d, d, d, d)
    return images.transpose(0, 2, 1, 3).reshape(d * d, d * d)
