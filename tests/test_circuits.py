from math import pi

import numpy as np
import pytest

from reflectron.config import DimensionBudgetError
from reflectron.tensor_core import haar_random_state
from reflectron.cyclic import r_theta_coeffs
from reflectron.circuits import (
    Gate,
    RotationCircuit,
    _apply_gate,
    apply_circuit,
    build_rotation_circuit,
    circuit_to_dense,
    export_circuit,
    gate_counts,
)

import kernel_oracle
from perm_oracle import dense_element


def test_rejects_bad_n():
    for n in (2, 4, 6, 10):
        with pytest.raises(ValueError):
            build_rotation_circuit(n, 1.0)


@pytest.mark.parametrize("n,expected", [(1, 2), (3, 12), (7, 42), (15, 120), (1023, 20460)])
def test_cswap_counts(n, expected):
    counts = gate_counts(build_rotation_circuit(n, 0.77))
    assert counts["cswap"] == expected
    L = (n + 1).bit_length() - 1
    assert expected == 2 * n * L


def test_gate_count_formula_large_sweep():
    n = 1
    while n < 2**10:
        counts = gate_counts(build_rotation_circuit(n, 0.1))
        L = (n + 1).bit_length() - 1
        assert counts["cswap"] == 2 * n * L
        # hadamard budget is linear in L, far below the O(n) allowance
        assert counts["h"] == 4 * L
        phase_kinds = counts.get("multi_controlled_phase", 0) + counts.get(
            "single_qubit_phase", 0
        )
        assert phase_kinds == 1
        n = 2 * n + 1


def test_counts_deterministic():
    a = gate_counts(build_rotation_circuit(7, 0.3))
    b = gate_counts(build_rotation_circuit(7, 0.3))
    assert a == b


def test_circuit_to_dense_trivials():
    # n = 1: one ancilla, the system and one program qubit
    assert np.abs(circuit_to_dense(RotationCircuit(1, 0.0, gates=[])) - np.eye(8)).max() == 0
    cswap = circuit_to_dense(RotationCircuit(1, 0.0, gates=[Gate("cswap", targets=(1, 2), controls=(0,))]))
    expected = np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]]
    assert np.abs(cswap - expected).max() == 0


def test_circuit_to_dense_budget():
    # n = 15 has 20 qubits: 2^20 x 2^20 entries
    with pytest.raises(DimensionBudgetError):
        circuit_to_dense(RotationCircuit(15, 0.0, gates=[]))


@pytest.mark.parametrize("n", [1, 3, 7])
def test_circuit_equals_cyclic_element_on_program_sector(n):
    rng = np.random.default_rng(n)
    theta = rng.uniform(0, 2 * pi)
    circ = build_rotation_circuit(n, theta)
    phi = haar_random_state(2, rng).amplitudes
    psi = haar_random_state(2, rng).amplitudes
    inp = phi
    for _ in range(n):
        inp = np.kron(inp, psi)
    state = np.zeros(2**circ.total_qubits, dtype=complex)
    state[: inp.size] = inp  # ancilla |0...0>
    out = apply_circuit(circ, state)
    reference = dense_element(r_theta_coeffs(n, theta), 2) @ inp
    assert np.abs(out[: inp.size] - reference).max() < 1e-10
    # ancilla disentangles exactly
    assert np.linalg.norm(out[inp.size :]) < 1e-10


def test_circuit_dense_unitary_matches_fig1_n1():
    theta = pi
    circ = build_rotation_circuit(1, theta)
    U = circuit_to_dense(circ)
    # on the ancilla-zero block the unitary acts as the cyclic element
    block = U[:4, :4]
    expected = dense_element(r_theta_coeffs(1, theta), 2)
    assert np.abs(block - expected).max() < 1e-12


def test_circuit_arbitrary_input_unitarity():
    circ = build_rotation_circuit(3, 0.9)
    U = circuit_to_dense(circ)
    assert np.abs(U @ U.conj().T - np.eye(U.shape[0])).max() < 1e-10


def test_ancilla_returns_to_superposition_midway():
    # before the final uncompute the ancilla is back in |s>; after it, |0>
    n = 3
    circ = build_rotation_circuit(n, 1.1)
    L = circ.ancilla
    head = RotationCircuit(n, circ.theta, gates=circ.gates[: len(circ.gates) - L])
    rng = np.random.default_rng(0)
    phi = haar_random_state(2, rng).amplitudes
    psi = haar_random_state(2, rng).amplitudes
    inp = phi
    for _ in range(n):
        inp = np.kron(inp, psi)
    state = np.zeros(2**circ.total_qubits, dtype=complex)
    state[: inp.size] = inp
    partial = apply_circuit(head, state)
    # project ancilla onto |s>: overlap must be 1
    anc_dim = 2**L
    block = partial.reshape(anc_dim, inp.size)
    s_vec = np.full(anc_dim, 1 / np.sqrt(anc_dim))
    overlap = np.linalg.norm(s_vec @ block)
    assert abs(overlap - 1.0) < 1e-10


def test_export_header_and_counts():
    circ = build_rotation_circuit(1, 0.5)
    text = export_circuit(circ)
    lines = text.splitlines()
    assert lines[0] == "# registers: ancilla=1 system=1 program=1"
    assert sum(1 for line in lines if line.startswith("CSWAP")) == 2


def test_export_lines_match_gates():
    names = {
        "h": "H",
        "cswap": "CSWAP",
        "single_qubit_phase": "PHASE0",
        "multi_controlled_phase": "MCPHASE",
    }
    for n in (1, 3, 7):
        circ = build_rotation_circuit(n, 1.7)
        header, theta, *lines = export_circuit(circ).splitlines()
        assert header == f"# registers: ancilla={circ.ancilla} system=1 program={n}"
        assert theta == "# theta: 1.7"
        assert len(lines) == len(circ.gates)
        for line, gate in zip(lines, circ.gates):
            name, *fields = line.split()
            assert name == names[gate.kind]
            if gate.angle is not None:
                assert float(fields.pop(0)) == gate.angle
            wires = tuple(int(x) for x in fields)
            assert wires[: len(gate.controls)] == gate.controls
            assert wires[len(gate.controls) :] == gate.targets


def test_gate_kind_validation():
    with pytest.raises(ValueError):
        Gate("cnot", targets=(0, 1))


def _gates_on(total):
    """Every gate kind, with targets and controls on the first and last qubits."""
    last = total - 1
    return [
        Gate("h", targets=(0,)),
        Gate("h", targets=(last,)),
        Gate("h", targets=(total // 2,)),
        Gate("cswap", targets=(0, last), controls=(total // 2,)),
        Gate("cswap", targets=(last, 1), controls=(0,)),
        Gate("cswap", targets=(1, last), controls=(0,)),
        Gate("cswap", targets=(0, 1), controls=(last,)),
        Gate("cswap", targets=(last, 0), controls=(1,)),
        Gate("single_qubit_phase", targets=(0,), angle=0.7),
        Gate("single_qubit_phase", targets=(last,), angle=-2.1),
        Gate("multi_controlled_phase", targets=(0, 1), angle=1.3),
        Gate("multi_controlled_phase", targets=(last, 0, 1), angle=0.4),
    ]


@pytest.mark.parametrize("columns", [None, 1, 5])
@pytest.mark.parametrize("total", [3, 4, 5, 6])
def test_apply_gate_equals_axis_oracle_bit_for_bit(total, columns):
    rng = np.random.default_rng(10 * total + (columns or 0))
    shape = (2**total,) if columns is None else (2**total, columns)
    for gate in _gates_on(total):
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = kernel_oracle.apply_gate(state, gate, total)
        _apply_gate(state, gate)
        assert np.array_equal(state, want), gate


@pytest.mark.parametrize("n", [1, 3, 7])
def test_circuit_equals_axis_oracle_bit_for_bit(n):
    circ = build_rotation_circuit(n, 1.234)
    total = circ.total_qubits
    rng = np.random.default_rng(n)
    state = rng.normal(size=2**total) + 1j * rng.normal(size=2**total)
    want = state
    for gate in circ.gates:
        want = kernel_oracle.apply_gate(want, gate, total)
    assert np.array_equal(apply_circuit(circ, state), want)
    if n < 7:
        dense = np.eye(2**total, dtype=complex)
        for gate in circ.gates:
            dense = kernel_oracle.apply_gate(dense, gate, total)
        assert np.array_equal(circuit_to_dense(circ), dense)


def test_apply_circuit_leaves_its_input_unchanged():
    circ = build_rotation_circuit(3, 0.9)
    rng = np.random.default_rng(4)
    state = rng.normal(size=2**circ.total_qubits) + 1j * rng.normal(size=2**circ.total_qubits)
    before = state.copy()
    out = apply_circuit(circ, state)
    assert np.array_equal(state, before)
    assert not np.array_equal(out, before)
