import itertools
from dataclasses import FrozenInstanceError
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectron.config import DimensionBudgetError
from reflectron.tensor_core import (
    PureState,
    as_state,
    haar_random_state,
    haar_random_unitary,
    partial_trace,
    sym_dim,
    symmetric_encoder,
    symmetric_projector,
)
from reflectron.cyclic import CyclicElement, r_theta_coeffs
from perm_oracle import dense_element, permutation_operator


def random_permutation(k, rng):
    return tuple(int(x) for x in rng.permutation(k))


def test_permutation_identity():
    op = permutation_operator((0, 1), 2)
    assert np.abs(op - np.eye(4)).max() == 0


def test_permutation_swap_defining_property():
    swap = permutation_operator((1, 0), 2)
    ket01 = np.zeros(4)
    ket01[1] = 1  # |01>
    ket10 = np.zeros(4)
    ket10[2] = 1  # |10>
    assert np.abs(swap @ ket01 - ket10).max() == 0


def test_permutation_cycle_direct_bookkeeping():
    # cycle pushing right: |100> -> |010>
    op = permutation_operator((1, 2, 0), 2)
    ket100 = np.zeros(8)
    ket100[4] = 1
    ket010 = np.zeros(8)
    ket010[2] = 1
    assert np.abs(op @ ket100 - ket010).max() == 0
    # brute-force oracle: compare against explicit index relabeling
    for x in range(8):
        bits = [(x >> (2 - s)) & 1 for s in range(3)]
        moved = [0] * 3
        for s in range(3):
            moved[(s + 1) % 3] = bits[s]
        y = sum(b << (2 - s) for s, b in enumerate(moved))
        assert op[y, x] == 1


def test_permutation_homomorphism():
    rng = np.random.default_rng(3)
    for k, d in [(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)]:
        sigma = random_permutation(k, rng)
        tau = random_permutation(k, rng)
        combined = tuple(sigma[tau[s]] for s in range(k))
        lhs = permutation_operator(sigma, d) @ permutation_operator(tau, d)
        rhs = permutation_operator(combined, d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_cyclic_swap_and_order():
    # C on two slots is the swap, and C on three slots has order 3
    swap = permutation_operator((1, 0), 2)
    assert np.abs(dense_element(CyclicElement([0.0, 1.0]), 2) - swap).max() == 0
    C = dense_element(CyclicElement([0.0, 1.0, 0.0]), 2)
    assert np.abs(np.linalg.matrix_power(C, 3) - np.eye(8)).max() < 1e-13


def test_cyclic_fixes_symmetric_states():
    psi = haar_random_state(2, 11)
    vec = psi.tensor_power(3).amplitudes
    C = permutation_operator((1, 2, 0), 2)
    assert np.abs(C @ vec - vec).max() < 1e-12


def test_partial_trace_product_states():
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    joint = np.kron(rho, sigma)
    kept = partial_trace(joint, keep=[0], d=2, factors=2)
    assert np.abs(kept - rho * np.trace(sigma)).max() < 1e-12
    other = partial_trace(joint, keep=[1], d=2, factors=2)
    assert np.abs(other - sigma * np.trace(rho)).max() < 1e-12


def test_partial_trace_maximally_entangled():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell)
    red = partial_trace(rho, keep=[1], d=2, factors=2)
    assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_preserves_trace_and_validates():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    red = partial_trace(X, keep=[0, 2], d=3, factors=3)
    assert abs(np.trace(red) - np.trace(X)) < 1e-12
    assert red.shape == (9, 9)
    with pytest.raises(ValueError):
        partial_trace(X, keep=[3], d=3, factors=3)


@pytest.mark.parametrize("dtype", [complex, float])
def test_partial_trace_keeping_every_factor_returns_a_copy(dtype):
    X = np.arange(16, dtype=dtype).reshape(4, 4)
    Y = partial_trace(X, keep=[0, 1], d=2, factors=2)
    assert np.array_equal(Y, X) and Y.dtype == complex
    assert not np.shares_memory(Y, X)
    Y[0, 0] = 99
    assert X[0, 0] == 0


@pytest.mark.parametrize("n,d,expected", [(2, 2, 3), (3, 2, 4), (0, 5, 1), (4, 3, 15)])
def test_sym_dim(n, d, expected):
    assert sym_dim(n, d) == expected


def test_sym_dim_stars_and_bars_oracle():
    # brute-force enumeration of sorted multi-indices
    for n, d in [(2, 2), (3, 3), (4, 3), (5, 2)]:
        count = sum(
            1
            for tup in itertools.product(range(d), repeat=n)
            if list(tup) == sorted(tup)
        )
        assert sym_dim(n, d) == count


def test_symmetric_projector_properties():
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        P = symmetric_projector(n, d)
        assert np.abs(P @ P - P).max() < 1e-11
        assert np.abs(P - P.conj().T).max() < 1e-12
        assert abs(np.trace(P) - comb(n + d - 1, d - 1)) < 1e-10


def test_symmetric_projector_fixes_power_states():
    psi = haar_random_state(3, 5)
    vec = psi.tensor_power(2).amplitudes
    P = symmetric_projector(2, 3)
    assert np.abs(P @ vec - vec).max() < 1e-12


def test_symmetric_projector_equals_group_average():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        acc = np.zeros((d**n, d**n), dtype=complex)
        for perm in itertools.permutations(range(n)):
            acc += permutation_operator(perm, d)
        acc /= factorial(n)
        assert np.abs(acc - symmetric_projector(n, d)).max() < 1e-11


def test_symmetric_encoder_two_term_column():
    enc = symmetric_encoder(2, 2)
    # sorted multi-indices in lex order: (0,0), (0,1), (1,1)
    expected = np.zeros(4)
    expected[1] = expected[2] = 1 / np.sqrt(2)
    assert np.abs(enc[:, 1] - expected).max() < 1e-12


def test_symmetric_encoder_isometry_and_range():
    for n, d in [(2, 2), (3, 2), (2, 3), (3, 3), (9, 2), (4, 3)]:
        enc = symmetric_encoder(n, d)
        assert enc.shape[1] == sym_dim(n, d)
        assert np.abs(enc.conj().T @ enc - np.eye(enc.shape[1])).max() < 1e-10
        P = symmetric_projector(n, d)
        assert np.abs(enc @ enc.conj().T - P).max() < 1e-11


def _encoder_by_enumeration(n, d):
    # one column per sorted multi-index, over its distinct arrangements
    weights = d ** np.arange(n - 1, -1, -1)
    cols = []
    for multi in itertools.combinations_with_replacement(range(d), n):
        arrangements = sorted(set(itertools.permutations(multi)))
        col = np.zeros(d**n, dtype=complex)
        for arr in arrangements:
            col[int(np.dot(arr, weights))] = 1.0 / np.sqrt(len(arrangements))
        cols.append(col)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n, d", [(8, 2), (4, 3), (3, 4), (6, 3), (1, 5)])
def test_symmetric_encoder_equals_enumeration(n, d):
    assert np.array_equal(symmetric_encoder(n, d), _encoder_by_enumeration(n, d))


def test_symmetric_encoder_power_state_in_range():
    psi = haar_random_state(2, 9)
    vec = psi.tensor_power(3).amplitudes
    enc = symmetric_encoder(3, 2)
    assert abs(np.linalg.norm(enc.conj().T @ vec) - 1.0) < 1e-10


def test_haar_state_and_unitary():
    psi = haar_random_state(4, 0)
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12
    U = haar_random_unitary(4, 0)
    assert np.abs(U @ U.conj().T - np.eye(4)).max() < 1e-10
    # determinism per seed
    again = haar_random_unitary(4, 0)
    assert np.abs(U - again).max() == 0


def test_haar_moment():
    rng = np.random.default_rng(42)
    d = 3
    samples = 100_000
    vals = np.empty(samples)
    for k in range(samples):
        vals[k] = abs(haar_random_unitary(d, rng)[0, 0]) ** 2
    stderr = vals.std() / np.sqrt(samples)
    assert abs(vals.mean() - 1 / d) < 3 * stderr


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    for amplitudes in ([np.nan, 0.0], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="norm"):
            PureState(amplitudes)


def test_pure_state_takes_any_normalized_vector():
    # a state is its amplitudes alone: no local dimension or factor count
    psi = PureState(np.array([1.0, 0.0, 0.0]))
    assert psi.dim == 3
    assert np.array_equal(psi.amplitudes, [1.0, 0.0, 0.0])


def test_state_norm_check_holds_at_a_large_tensor_power():
    # BLAS nrm2 over these 2^21 amplitudes read 1.3e-12 off 1; the pairwise
    # sum of squares keeps the seed's 1e-16
    power = haar_random_state(2, 0).tensor_power(21)
    assert power.dim == 2**21
    off = power.amplitudes * (1.0 + 1e-11)
    for amplitudes in (off, haar_random_state(4, 0).amplitudes * (1.0 + 1e-11)):
        with pytest.raises(ValueError, match="deviates from 1 beyond 1e-12"):
            PureState(amplitudes)


def test_budget_overflow():
    # the 2^12 x 2^12 projector is over the default budget; its encoder is not
    with pytest.raises(DimensionBudgetError, match="symmetric projector"):
        symmetric_projector(12, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4))
def test_trace_norm_tensor_power_states(d, n):
    # || psi1^n - psi2^n ||_1 = 2 sqrt(1 - cos^{2n} phi)
    rng = np.random.default_rng(d * 100 + n)
    psi1 = haar_random_state(d, rng)
    psi2 = haar_random_state(d, rng)
    cosphi = abs(np.vdot(psi1.amplitudes, psi2.amplitudes))
    diff = psi1.tensor_power(n).projector - psi2.tensor_power(n).projector
    tn = np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert abs(tn - 2 * np.sqrt(1 - cosphi ** (2 * n))) < 1e-9


def test_tensor_power_checks_the_budget_first(monkeypatch):
    # 2^11 amplitudes over a 1000-entry budget: refused before anything is built
    import reflectron.tensor_core as tensor_core

    built = []
    monkeypatch.setattr(tensor_core, "_kron_fold", lambda *args: built.append(args))
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    with pytest.raises(DimensionBudgetError, match="tensor power state of dimension 2048"):
        haar_random_state(2, 0).tensor_power(11)
    assert built == []


@pytest.mark.parametrize("d, n", [(2, 1), (2, 5), (3, 3), (4, 2)])
def test_tensor_power_equals_repeated_kron_bit_for_bit(d, n):
    psi = haar_random_state(d, n)
    want = psi.amplitudes
    for _ in range(n - 1):
        want = np.kron(want, psi.amplitudes)
    assert np.array_equal(psi.tensor_power(n).amplitudes, want)


def test_state_amplitudes_are_read_only():
    psi = haar_random_state(3, 5)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        psi.amplitudes *= 2.0
    with pytest.raises(FrozenInstanceError):
        psi.amplitudes = np.eye(3)[0]


def test_state_copies_the_callers_array():
    v = np.array([0.6, 0.8j])
    want = np.outer(v, v.conj())
    psi = PureState(v)
    assert v.flags.writeable and psi.amplitudes is not v
    v[0] = 5.0
    assert np.array_equal(psi.amplitudes, [0.6, 0.8j])
    assert np.array_equal(psi.projector, want)


def test_state_copies_a_read_only_callers_array():
    for make in (PureState, as_state):
        v = np.array([0.6, 0.8j])
        v.flags.writeable = False
        psi = make(v)
        assert not np.shares_memory(psi.amplitudes, v)
        v.flags.writeable = True
        v[0] = 5.0
        assert np.array_equal(psi.amplitudes, [0.6, 0.8j])
    # the read-only amplitudes of another state are copied too
    other = haar_random_state(3, 2)
    assert not np.shares_memory(as_state(other.amplitudes).amplitudes, other.amplitudes)


def test_library_states_are_read_only_and_share_no_callers_array():
    psi = haar_random_state(3, 5)
    power = psi.tensor_power(3)
    for state in (psi, power, haar_random_state(2, 1).tensor_power(2)):
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0
    assert not np.shares_memory(power.amplitudes, psi.amplitudes)


def test_tensor_power_peak_drops_by_a_copy():
    from traced import traced_peak

    psi = haar_random_state(2, 1)
    # 2^20 amplitudes are 16 MB; they and the norm check's 16 MB of squares
    # make the 32 MB peak, and a copy of the amplitudes would add 16 MB more
    power, peak = traced_peak(lambda: psi.tensor_power(20))
    assert power.amplitudes.nbytes == 16 * 2**20
    assert peak <= 36 * 2**20, peak


def test_state_projector_is_built_once_and_read_only():
    psi = haar_random_state(3, 6)
    P = psi.projector
    assert psi.projector is P
    assert np.array_equal(P, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    with pytest.raises(ValueError):
        P[0, 0] = 0.0


@pytest.mark.parametrize("make", [lambda: r_theta_coeffs(3, 0.5), lambda: haar_random_state(2, 0)])
def test_elements_and_states_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert a != b  # equal values, two objects: no array truth value is taken
    assert len({a, a, b}) == 2
