"""Reference implementations of the two dense kernels, by axis moves.

`apply_gate` is the gate action of `circuits._apply_gate` written on a
(2,)^total tensor: every gate moves its qubit axes to the front, builds the
new state from `np.stack`/`swapaxes` of the slices, and returns a new array.
`apply_element` is the many-axis form of `cyclic.apply_element`:
sum_l c_l C^l as one (k+1)-axis transpose per power. Both do the same
floating-point operations in the same order as the library, so the tests
hold the library's in-place and two-block forms to them bit for bit.
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
