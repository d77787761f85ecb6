"""Gate-level realization of the approximate rotation unitary for qubits.

Register layout: ancilla qubits 0..L-1 (L = log2(n+1)), system qubit L,
program qubits L+1..L+n. The ancilla is prepared in the uniform
superposition with Hadamards, the control blocks apply C^{2^j} conditioned
on ancilla bit j, the phase e^{i theta |s><s|} is compiled as
H^{xL} (phase on |0...0>) H^{xL}, then everything uncomputes.

Controlled-SWAP accounting: block j needs n+1-2^j transpositions from its
cycle decomposition; adjacent identical pairs are appended so the total is
exactly 2 n log2(n+1), the count the efficiency theorem advertises. A block
with exactly n controlled swaps on one control is impossible for j >= 1 by
permutation parity, so the padding is distributed across blocks instead.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import ensure_operator_budget

_EXPORT_NAMES = {
    "h": "H",
    "cswap": "CSWAP",
    "single_qubit_phase": "PHASE0",
    "multi_controlled_phase": "MCPHASE",
}


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple = ()
    controls: tuple = ()
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _EXPORT_NAMES:
            raise ValueError(f"unknown gate kind {self.kind}")


@dataclass
class RotationCircuit:
    n: int
    theta: float
    gates: list = field(default_factory=list)

    @property
    def ancilla(self) -> int:
        return (self.n + 1).bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.ancilla + 1 + self.n


def _cycle_transpositions(perm: dict) -> list:
    """Write a slot permutation (s -> perm[s]) as adjacent-in-cycle swaps."""
    swaps = []
    seen = set()
    for start in sorted(perm):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur]
        for i in range(len(cycle) - 2, -1, -1):
            swaps.append((cycle[i], cycle[i + 1]))
    return swaps


def _controlled_cycle_block(control: int, power: int, n: int, offset: int, pad_pairs: int) -> list:
    """Controlled C^power on slots offset..offset+n as controlled swaps."""
    k = n + 1
    perm = {s: (s + power) % k for s in range(k)}
    gates = [
        Gate("cswap", targets=(offset + a, offset + b), controls=(control,))
        for a, b in _cycle_transpositions(perm)
    ]
    filler = Gate("cswap", targets=(offset, offset + 1), controls=(control,))
    gates.extend([filler] * (2 * pad_pairs))
    return gates


def build_rotation_circuit(n: int, theta: float) -> RotationCircuit:
    if n < 1 or (n + 1) & n != 0:
        raise ValueError(f"n + 1 must be a power of two, got n = {n}")
    circ = RotationCircuit(n=n, theta=float(theta))
    L = circ.ancilla
    sys_offset = L  # first permuted slot; system qubit L, program L+1..L+n
    gates = circ.gates
    anc = list(range(L))
    gates.extend(Gate("h", targets=(q,)) for q in anc)

    # pad to the advertised 2nL controlled swaps: per-side deficit n - L,
    # split across the two control blocks (parity forbids an even split
    # when n - L is odd)
    deficit = n - L
    fwd_pairs = (deficit + 1) // 2
    inv_pairs = deficit // 2

    def control_block(inverse: bool, pairs: int) -> list:
        block = []
        order = range(L - 1, -1, -1) if inverse else range(L)
        for j in order:
            power = -(2**j) if inverse else 2**j
            pad = pairs if j == L - 1 else 0
            block.extend(_controlled_cycle_block(j, power % (n + 1), n, sys_offset, pad))
        return block

    gates.extend(control_block(inverse=False, pairs=fwd_pairs))

    gates.extend(Gate("h", targets=(q,)) for q in anc)
    if L == 1:
        gates.append(Gate("single_qubit_phase", targets=(0,), angle=float(theta)))
    else:
        gates.append(Gate("multi_controlled_phase", targets=tuple(anc), angle=float(theta)))
    gates.extend(Gate("h", targets=(q,)) for q in anc)

    gates.extend(control_block(inverse=True, pairs=inv_pairs))

    gates.extend(Gate("h", targets=(q,)) for q in anc)
    return circ


def gate_counts(circ: RotationCircuit) -> dict:
    return dict(Counter(g.kind for g in circ.gates))


def _slice(state: np.ndarray, bits: dict) -> np.ndarray:
    """The view of a C-contiguous state, rows indexed by the qubits, where
    each qubit q in ``bits`` takes the value bits[q]; qubit 0 is the most
    significant bit of the row index."""
    shape, index, prev = [], [], 0
    for q in sorted(bits):
        shape += [2 ** (q - prev), 2]
        index += [slice(None), bits[q]]
        prev = q + 1
    return state.reshape(shape + [-1])[tuple(index)]


def _apply_gate(state: np.ndarray, gate: Gate) -> None:
    """Apply one gate in place to a C-contiguous array whose first axis is
    the qubits' row index; only views of it are written."""
    if gate.kind == "h":
        (q,) = gate.targets
        t0, t1 = _slice(state, {q: 0}), _slice(state, {q: 1})
        minus = t0 - t1
        t0 += t1
        # the bits of complex division by sqrt(2), by a faster loop, up to the
        # sign of a zero part, which division may drop
        for re_im in (t0.view(float), minus.view(float)):
            re_im *= 1.0 / np.sqrt(2.0)
        t1[...] = minus
    elif gate.kind == "cswap":
        a, b = gate.targets
        on = {c: 1 for c in gate.controls}
        x, y = _slice(state, {**on, a: 0, b: 1}), _slice(state, {**on, a: 1, b: 0})
        tmp = x.copy()
        x[...] = y
        y[...] = tmp
    elif gate.kind in ("single_qubit_phase", "multi_controlled_phase"):
        # phase e^{i angle} on the all-zeros state of the listed qubits
        zeros = _slice(state, {q: 0 for q in gate.targets})
        # not *=: numpy's in-place product rounds a one-element slice differently
        zeros[...] = zeros * np.exp(1j * gate.angle)


def circuit_to_dense(circ: RotationCircuit) -> np.ndarray:
    """Product of the gate matrices, applied to the identity."""
    dim = 2**circ.total_qubits
    ensure_operator_budget(dim, "dense circuit unitary")
    mat = np.eye(dim, dtype=complex)
    for gate in circ.gates:
        _apply_gate(mat, gate)
    return mat


def apply_circuit(circ: RotationCircuit, state: np.ndarray) -> np.ndarray:
    """Apply the circuit to a state vector; cheaper than circuit_to_dense.
    The gates act on one copy, so ``state`` itself is left unchanged."""
    out = np.array(state, dtype=complex).reshape(-1)
    for gate in circ.gates:
        _apply_gate(out, gate)
    return out


def export_circuit(circ: RotationCircuit) -> str:
    lines = [
        f"# registers: ancilla={circ.ancilla} system=1 program={circ.n}",
        f"# theta: {circ.theta!r}",
    ]
    for g in circ.gates:
        name = _EXPORT_NAMES[g.kind]
        parts = [name]
        if g.angle is not None:
            parts.append(repr(g.angle))
        parts.extend(str(q) for q in g.controls)
        parts.extend(str(q) for q in g.targets)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
