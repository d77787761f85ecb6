from math import ceil, log2, pi

import numpy as np
import pytest

from reflectron.tensor_core import haar_random_state, haar_random_unitary, sym_dim
from reflectron.universal import (
    assemble_universal_channel,
    binary_angle,
    budget,
    eigendecompose_target,
    scaling_fit,
    verify_budget,
)
from reflectron.channels import rotation_unitary
from hypothesis import given, settings, strategies as st


def test_eigendecompose_identity():
    pairs = eigendecompose_target(np.eye(3))
    assert all(abs(alpha) < 1e-12 for _, alpha in pairs)


def test_eigendecompose_diagonal():
    U = np.diag([1.0, np.exp(1j * pi / 2)])
    pairs = eigendecompose_target(U)
    alphas = sorted(alpha for _, alpha in pairs)
    assert abs(alphas[0]) < 1e-12 and abs(alphas[1] - pi / 2) < 1e-12
    psi1 = [psi for psi, alpha in pairs if alpha > 1][0]
    assert abs(abs(psi1.amplitudes[1]) - 1.0) < 1e-12


def test_eigendecompose_reconstruction():
    for seed in range(5):
        for d in (2, 3, 4):
            U = haar_random_unitary(d, seed)
            pairs = eigendecompose_target(U)
            rebuilt = np.eye(d, dtype=complex)
            for psi, alpha in pairs:
                rebuilt = rebuilt @ rotation_unitary(psi, alpha)
            # equality up to the fixed global phase
            ratio = U[np.abs(U).argmax() // d, np.abs(U).argmax() % d] / rebuilt[
                np.abs(U).argmax() // d, np.abs(U).argmax() % d
            ]
            assert np.abs(U - ratio * rebuilt).max() < 1e-10
    # degenerate targets whose eigenspaces are not coordinate-aligned
    targets = []
    for d in range(2, 7):
        V = haar_random_unitary(d, 40 + d)
        phases = np.exp(1j * np.array([0.3] * (d - 1) + [2.0]))
        targets.append(V @ np.diag(phases) @ V.conj().T)
    v = haar_random_state(4, 7).amplitudes
    targets.append(np.eye(4) - 2.0 * np.outer(v, v.conj()))
    for U in targets:
        d = U.shape[0]
        pairs = eigendecompose_target(U)
        Z = np.stack([psi.amplitudes for psi, _ in pairs], axis=1)
        assert np.abs(Z.conj().T @ Z - np.eye(d)).max() < 1e-12
        rebuilt = np.eye(d, dtype=complex)
        for psi, alpha in pairs:
            rebuilt = rebuilt @ rotation_unitary(psi, alpha)
        # pair 0 carries the global phase, its eigenvalue
        first = pairs[0][0].amplitudes
        assert np.abs(U - np.vdot(first, U @ first) * rebuilt).max() < 1e-10


def test_eigendecompose_rejects_vectors_off_their_eigenspace(monkeypatch):
    # a unitary whose eigenvectors are not the coordinate axes
    U = haar_random_unitary(3, 2)
    eigvals = np.linalg.eigvals(U)
    monkeypatch.setattr(np.linalg, "eig", lambda _: (eigvals, np.eye(3, dtype=complex)))
    with pytest.raises(ValueError, match="residual"):
        eigendecompose_target(U)


def test_eigendecompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        eigendecompose_target(np.diag([1.0, 2.0]))


def test_binary_angle_pi_and_zero():
    for K in (1, 4, 10):
        a = binary_angle(pi, K)
        assert abs(a - (2**K - 1) / 2**K) < 1e-15
        assert abs(pi - pi * a) <= pi * 2.0**-K + 1e-15
    assert binary_angle(0.0, 8) == 0.0


def test_binary_angle_exact_dyadic():
    assert binary_angle(pi / 2, 2) == 0.5


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-np.nextafter(pi, 0), max_value=pi),
    st.integers(min_value=1, max_value=20),
)
def test_binary_angle_error_bound(theta, K):
    a = binary_angle(theta, K)
    assert abs(theta - pi * a) <= pi * 2.0**-K + 1e-12
    assert abs(a) < 1.0


def test_budget_formulas():
    rep = budget(2, 0.1, [pi])
    assert rep.n_copies == [ceil(9 * pi / 0.1)] == [283]
    assert rep.K == ceil(log2(60 * pi)) == 8
    assert rep.total_qubits == rep.phase_qubits + rep.copy_count_qubits + rep.symmetric_program_qubits


def test_budget_reads_one_binomial_per_distinct_copy_count(monkeypatch):
    import reflectron.universal as universal

    calls = []
    monkeypatch.setattr(universal, "sym_dim", lambda n, d: calls.append(n) or sym_dim(n, d))
    rep = budget(2000, 0.1, [pi] * 1999)
    assert calls == [rep.n_copies[0]]
    assert rep.symmetric_program_qubits == 1999 * ceil(log2(sym_dim(rep.n_copies[0], 2000)))
    # mixed angles: the count-weighted sum equals the sum over the angles
    calls.clear()
    alphas = [pi, 1.0, pi, -1.0, 0.0]
    rep = budget(6, 0.05, alphas)
    assert sorted(calls) == sorted(set(rep.n_copies) - {0})
    assert rep.symmetric_program_qubits == sum(ceil(log2(sym_dim(nj, 6))) for nj in rep.n_copies if nj > 0)


def test_binary_angle_width_is_at_least_one_bit():
    # at eps >= 6 pi (d - 1) the width ceil(log2(6 pi (d - 1) / eps)) alone is <= 0
    for d in (2, 3, 45):
        for eps in (1e-9, 0.1, 6 * pi * (d - 1) - 1e-9, 6 * pi * (d - 1), 100.0 * d):
            rep = budget(d, eps, [pi] * (d - 1))
            assert rep.K == max(1, ceil(log2(6 * pi * (d - 1) / eps)))
            assert rep.phase_qubits == (d - 1) * rep.K
    assert budget(2, 100.0, [pi]).K == 1


@pytest.mark.parametrize(
    "d, eps, N, copy_qubits, total",
    [(2, 100.0, 1, 1, 3), (3, 30.0, 2, 4, 12), (2, 0.1105, 256, 9, 26), (2, 0.1, 283, 9, 26)],
)
def test_copy_count_register_holds_every_count_up_to_n(d, eps, N, copy_qubits, total):
    # each n_j is one of the N + 1 counts 0..N, N = ceil(9 pi (d - 1) / eps):
    # ceil(log2 N) bits fall one short where N is 1 or a power of two
    assert ceil(9 * pi * (d - 1) / eps) == N
    rep = budget(d, eps, [pi] * (d - 1))
    assert max(rep.n_copies) == N < 2 ** (copy_qubits // (d - 1)) <= 2 * N
    assert rep.copy_count_qubits == copy_qubits
    assert rep.total_qubits == total


def linear_bound(n, alpha):
    return 3.0 * alpha / n


def test_budget_per_rotation_linear_bound():
    for d in (2, 3, 4):
        for eps in (0.3, 0.05):
            alphas = [pi * (j + 1) / d for j in range(d - 1)]
            rep = budget(d, eps, alphas)
            for alpha, nj in zip(alphas, rep.n_copies):
                assert linear_bound(nj, abs(alpha)) <= eps / (3 * (d - 1)) + 1e-12


def test_budget_reflections_only_accounting():
    # per reflection: log2 d_P <= (d-1) log2((n+d-1)/(d-1)) + O(d), n = O(1/eps)
    from math import comb

    for d in (2, 3, 4):
        for eps in (0.1, 0.01, 0.001):
            n = ceil(9 * (d - 1) * pi / eps)
            cost = log2(comb(n + d - 1, d - 1))
            assert cost <= (d - 1) * log2((n + d - 1) / (d - 1)) + d + 2


def test_scaling_fit_constant():
    slope, intercept = scaling_fit()
    assert 0.8 <= slope <= 1.5


def test_assemble_identity_target():
    chan = assemble_universal_channel(np.eye(2), 0.25)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    # no rotation is built, so the channel returns X unchanged
    assert np.array_equal(chan(X), np.asarray(X, dtype=complex))


def test_assembled_channel_trace_preserving_and_cp():
    U = haar_random_unitary(3, 1)
    chan = assemble_universal_channel(U, 0.8)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(np.trace(chan(X)) - np.trace(X)) < 1e-10
    from channel_oracle import choi

    eig = np.linalg.eigvalsh(choi(chan, 3))
    assert eig.min() > -1e-9


def test_single_rotation_reduction_d2():
    # d=2 target = a single rotation; the assembled distance matches the
    # covariant formula for the truncated angle
    from reflectron.distances import sampled_diamond_lower_bound
    from reflectron.channels import make_rotation_channel

    psi = haar_random_state(2, 3)
    alpha = 2.0
    U = rotation_unitary(psi, alpha)
    eps = 0.2
    chan = assemble_universal_channel(U, eps)
    target = make_rotation_channel(psi, alpha)
    sampled = sampled_diamond_lower_bound(target, chan, 2, 400, seed=5)
    # binary truncation + finite copies both contribute; stay within budget
    assert sampled <= eps + 1e-9


def test_program_invariants():
    # binary truncation error per rotation stays within the encoder share,
    # for the angles and copy counts that assemble_universal_channel reads
    for d, eps, seed in ((2, 0.2, 0), (3, 0.4, 1)):
        pairs = eigendecompose_target(haar_random_unitary(d, seed))
        alphas = [alpha for _, alpha in pairs[1:]]
        rep = budget(d, eps, alphas)
        for alpha, n_copies in zip(alphas, rep.n_copies):
            assert abs(alpha - pi * binary_angle(alpha, rep.K)) <= eps / (6 * (d - 1)) + 1e-12
            assert n_copies == ceil(9 * (d - 1) * abs(alpha) / eps)


def test_verify_budget_identity():
    rep = verify_budget(np.eye(2), 0.2, trials=50, seed=0)
    assert rep.passed and rep.sampled_distance < 1e-10


def test_verify_budget_haar_targets_small():
    for seed in range(3):
        U = haar_random_unitary(2, seed)
        rep = verify_budget(U, 0.2, trials=60, seed=seed)
        assert rep.passed, rep
    U = haar_random_unitary(3, 0)
    rep = verify_budget(U, 0.5, trials=40, seed=0)
    assert rep.passed, rep


def test_composed_channel_not_covariant():
    # two different axes: the composition cannot commute with the first
    # axis stabilizer, guarding misuse of the covariant formula
    from reflectron.cyclic import r_theta_coeffs
    from reflectron.channels import effective_channel
    from probe_oracle import orthonormal_frame

    psi1 = haar_random_state(3, 7)
    psi2 = haar_random_state(3, 8)
    c1 = effective_channel(r_theta_coeffs(4, 1.0), psi1)
    c2 = effective_channel(r_theta_coeffs(4, 2.0), psi2)
    composed = lambda X: c2(c1(X))
    frame = orthonormal_frame(psi1.amplitudes)
    rng = np.random.default_rng(9)
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    U = np.outer(psi1.amplitudes, psi1.amplitudes.conj()) + frame @ q @ frame.conj().T
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lhs = U @ composed(X) @ U.conj().T
    rhs = composed(U @ X @ U.conj().T)
    assert np.abs(lhs - rhs).max() > 1e-3


@pytest.mark.parametrize("eps", [float("inf"), float("nan"), 0.0, -0.1])
def test_budget_rejects_eps_that_is_not_finite_and_positive(eps):
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        budget(2, eps, [pi])
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        verify_budget(haar_random_unitary(2, 0), eps, trials=4)
