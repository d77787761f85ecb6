"""Reference implementations of the dense kernels, by axis moves and np.kron.

`apply_gate` is the gate action of `circuits._apply_gate` written on a
(2,)^total tensor: every gate moves its qubit axes to the front, builds the
new state from `np.stack`/`swapaxes` of the slices, and returns a new array;
it divides by sqrt(2) where the library multiplies the float view by
1/sqrt(2). `apply_element` is the many-axis form of `cyclic.apply_element`:
sum_l c_l C^l as one (k+1)-axis transpose per power. `ladder` is
`repthy._ladder` with one `np.moveaxis` view per tensor slot, and
`reflection_signs` and `probe_vector` are `repthy._reflection_signs` and
`repthy._probe_vector` built from `np.kron`. Each does the same
floating-point operations in the same order as the library, so the tests
hold the library's in-place, two-block, reshape and outer-product forms to
them bit for bit.
"""

import numpy as np


def apply_gate(state: np.ndarray, gate, total: int) -> np.ndarray:
    """One gate on an array whose first axis is the 2^total row index; the
    input is left unchanged."""
    shape = state.shape
    tensor = state.reshape((2,) * total + (-1,))
    if gate.kind == "h":
        (q,) = gate.targets
        tensor = np.moveaxis(tensor, q, 0)
        plus = (tensor[0] + tensor[1]) / np.sqrt(2.0)
        minus = (tensor[0] - tensor[1]) / np.sqrt(2.0)
        tensor = np.moveaxis(np.stack([plus, minus]), 0, q)
    elif gate.kind == "cswap":
        (c,) = gate.controls
        a, b = gate.targets
        tensor = np.moveaxis(tensor, c, 0)
        a, b = (x if x < c else x - 1 for x in (a, b))
        swapped = np.swapaxes(tensor[1], a, b)
        tensor = np.moveaxis(np.stack([tensor[0], swapped]), 0, c)
    elif gate.kind in ("single_qubit_phase", "multi_controlled_phase"):
        phase = np.exp(1j * gate.angle)
        sel = tuple(0 for _ in gate.targets)
        tensor = np.moveaxis(tensor, gate.targets, range(len(gate.targets))).copy()
        tensor[sel] = tensor[sel] * phase
        tensor = np.moveaxis(tensor, range(len(gate.targets)), gate.targets)
    else:
        raise ValueError(f"unhandled gate kind {gate.kind}")
    return tensor.reshape(shape)


def apply_element(e, d: int, vecs) -> np.ndarray:
    """sum_l c_l C^l on a vector or on each row of a stack, by axis transposes."""
    vecs = np.asarray(vecs, dtype=complex)
    k = e.n + 1
    lead = vecs.ndim - 1
    tensor = vecs.reshape(vecs.shape[:-1] + (d,) * k)
    out = np.zeros(tensor.shape, dtype=complex)
    for l, c in enumerate(e.coeffs):
        if c == 0:
            continue
        # output slot t carries input slot (t - l) mod k
        axes = list(range(lead)) + [lead + (t - l) % k for t in range(k)]
        out += c * np.transpose(tensor, axes)
    return out.reshape(vecs.shape)


def ladder(vecs, i: int, k: int, l: int, d: int, lower: bool) -> np.ndarray:
    """E_{i,i+1}, or E_{i+1,i} when lower, on each row of an m x d^{k+l}
    stack: +E on the first k slots, -E^T on the last l."""
    tensor = vecs.reshape((vecs.shape[0],) + (d,) * (k + l))
    out = np.zeros_like(tensor)
    for s in range(k + l):
        src = np.moveaxis(tensor, s + 1, 1)
        dst = np.moveaxis(out, s + 1, 1)
        to, frm = (i, i + 1) if (s < k) != lower else (i + 1, i)
        if s < k:
            dst[:, to] += src[:, frm]
        else:
            dst[:, to] -= src[:, frm]
    return out.reshape(vecs.shape)


def reflection_signs(n: int, d: int) -> np.ndarray:
    """Diagonal of R^{xn} x I with R = I - 2|d-1><d-1|."""
    single = np.ones(d)
    single[d - 1] = -1.0
    signs = single
    for _ in range(n - 1):
        signs = np.kron(signs, single)
    return np.kron(signs, np.ones(d**n))


def probe_vector(n: int, d: int, weights: dict, blocks: dict) -> np.ndarray:
    """sum_lam sqrt(w_lam / d_lam) sum_t B_lam[:, t] x B_lam[:, t], unnormalized."""
    v = np.zeros(d ** (2 * n))
    for key, w in weights.items():
        if w <= 0.0:
            continue
        B = blocks[key]
        dlam = B.shape[1]
        for t in range(dlam):
            v += np.sqrt(w / dlam) * np.kron(B[:, t], B[:, t])
    return v
