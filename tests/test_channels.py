from math import comb, pi

import numpy as np
import pytest

from reflectron.config import DimensionBudgetError, NonChannelElementError
from reflectron.tensor_core import as_vector, haar_random_state
from reflectron.cyclic import CyclicElement, lmr_coeffs, r_theta_coeffs
from reflectron.channels import (
    dense_reflection_channel,
    effective_channel,
    lmr_sequential_dense,
    make_rotation_channel,
)
from channel_oracle import choi
from mr_oracle import MeasureReflectChannel
from probe_oracle import orthonormal_frame


def random_matrix(d, rng):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def stabilizer_unitary(psi, rng):
    """Random unitary fixing psi up to phase: psi block + Haar on the complement."""
    v = psi.amplitudes
    d = v.size
    frame = orthonormal_frame(v)
    z = (rng.normal(size=(d - 1, d - 1)) + 1j * rng.normal(size=(d - 1, d - 1))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    gamma = np.exp(1j * rng.uniform(0, 2 * pi))
    return gamma * np.outer(v, v.conj()) + frame @ q @ frame.conj().T


def test_rotation_zero_angle_identity():
    rng = np.random.default_rng(0)
    psi = haar_random_state(3, rng)
    X = random_matrix(3, rng)
    assert np.abs(make_rotation_channel(psi, 0.0)(X) - X).max() < 1e-12


def test_reflection_fixes_axis():
    psi = haar_random_state(2, 1)
    P = psi.projector
    assert np.abs(make_rotation_channel(psi, pi)(P) - P).max() < 1e-12


def test_reflection_flips_cross_terms():
    psi = haar_random_state(3, 2)
    perp = orthonormal_frame(psi.amplitudes)[:, 0]
    cross = np.outer(perp, psi.amplitudes.conj())  # |psi_i><psi|
    out = make_rotation_channel(psi, pi)(cross)
    assert np.abs(out + cross).max() < 1e-12


def test_dense_channel_identity_element():
    rng = np.random.default_rng(3)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    out = dense_reflection_channel(r_theta_coeffs(3, 0.0), psi, X)
    assert np.abs(out - X).max() < 1e-12


def test_dense_channel_swap_replaces_with_program():
    rng = np.random.default_rng(4)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    out = dense_reflection_channel(CyclicElement([0.0, 1.0]), psi, X)
    assert np.abs(out - np.trace(X) * psi.projector).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (4, 2), (6, 2), (1, 3), (2, 3), (3, 3), (2, 4)])
def test_effective_matches_dense(n, d):
    rng = np.random.default_rng(n * 10 + d)
    psi = haar_random_state(d, rng)
    X = random_matrix(d, rng)
    for element in (
        r_theta_coeffs(n, rng.uniform(0, 2 * pi)),
        lmr_coeffs(rng.uniform(0, pi, size=n)),
    ):
        dense = dense_reflection_channel(element, psi, X)
        closed = effective_channel(element, psi)(X)
        assert np.abs(dense - closed).max() < 1e-10


def test_effective_matches_dense_exhaustive_small_region():
    # every (n, d) with d^{n+1} <= 2^12, three element families each; the
    # full 2^16 sweep runs the same comparison and is reported in the docs
    rng = np.random.default_rng(77)
    from reflectron.cyclic import inverse_fourier

    worst = 0.0
    d = 2
    while d * d <= 2**12:
        n = 1
        while d ** (n + 1) <= 2**12:
            psi = haar_random_state(d, rng)
            X = random_matrix(d, rng)
            for element in (
                r_theta_coeffs(n, rng.uniform(0, 2 * pi)),
                lmr_coeffs(rng.uniform(0, pi, size=n)),
                inverse_fourier(np.exp(1j * rng.uniform(0, 2 * pi, size=n + 1))),
            ):
                dense = dense_reflection_channel(element, psi, X)
                closed = effective_channel(element, psi)(X)
                worst = max(worst, np.abs(dense - closed).max())
            n += 1
        d += 1
    assert worst < 1e-10


def test_effective_matches_dense_large_boundary():
    # largest qubit instance inside the d^{n+1} <= 2^16 verification regime
    rng = np.random.default_rng(99)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    element = r_theta_coeffs(15, 2.1)
    dense = dense_reflection_channel(element, psi, X)
    closed = effective_channel(element, psi)(X)
    assert np.abs(dense - closed).max() < 1e-10


def dense_reflection_channel_reference(e, psi, X):
    """The simulation with W built one column at a time, one transpose per term."""
    v = as_vector(psi)
    d = v.size
    n = e.n
    prog = v
    for _ in range(n - 1):
        prog = np.kron(prog, v)
    W = np.zeros((d ** (n + 1), d), dtype=complex)
    shape = (d,) * (n + 1)
    for a in range(d):
        base = np.zeros((d ** (n + 1),), dtype=complex)
        base[a * d**n : (a + 1) * d**n] = prog
        tensor = base.reshape(shape)
        acc = np.zeros(shape, dtype=complex)
        for l, c in enumerate(e.coeffs):
            if c == 0:
                continue
            acc += c * np.transpose(tensor, axes=[(t - l) % (n + 1) for t in range(n + 1)])
        W[:, a] = acc.reshape(-1)
    WX = (W @ X).reshape(d, d**n * d)
    Wr = W.reshape(d, d**n * d)
    return WX @ Wr.conj().T


@pytest.mark.parametrize("d,ns", [(2, (1, 2, 3, 5, 8)), (3, (1, 2, 3, 5))])
def test_dense_channel_equals_column_loop(d, ns):
    rng = np.random.default_rng(31 + d)
    for n in ns:
        psi = haar_random_state(d, rng)
        X = random_matrix(d, rng)
        for element in (
            r_theta_coeffs(n, rng.uniform(0, 2 * pi)),
            lmr_coeffs(rng.uniform(0, pi, size=n)),
            r_theta_coeffs(n, 0.0),
        ):
            out = dense_reflection_channel(element, psi, X)
            assert np.array_equal(out, dense_reflection_channel_reference(element, psi, X))


@pytest.mark.parametrize("d,budget,n_max", [(2, 2**10, 8), (3, 3**6, 4)])
def test_dense_channel_budget_counts_isometry(monkeypatch, d, budget, n_max):
    # W has d^{n+2} entries, so d^{n+2} <= budget bounds n
    monkeypatch.setenv("REFLECTRON_BUDGET", str(budget))
    rng = np.random.default_rng(d)
    psi = haar_random_state(d, rng)
    X = random_matrix(d, rng)
    assert dense_reflection_channel(r_theta_coeffs(n_max, 0.9), psi, X).shape == (d, d)
    with pytest.raises(DimensionBudgetError):
        dense_reflection_channel(r_theta_coeffs(n_max + 1, 0.9), psi, X)


def test_effective_identity_and_swap_cases():
    rng = np.random.default_rng(5)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    ident = effective_channel(r_theta_coeffs(3, 0.0), psi)
    assert np.abs(ident(X) - X).max() < 1e-12
    swap = effective_channel(CyclicElement([0.0, 1.0]), psi)
    assert np.abs(swap(X) - np.trace(X) * psi.projector).max() < 1e-12


def test_effective_trace_preserving():
    rng = np.random.default_rng(6)
    psi = haar_random_state(3, rng)
    for element in (r_theta_coeffs(5, 1.2), lmr_coeffs(rng.uniform(0, pi, size=5))):
        chan = effective_channel(element, psi)
        X = random_matrix(3, rng)
        assert abs(np.trace(chan(X)) - np.trace(X)) < 1e-11


def test_non_channel_element_rejected():
    psi = haar_random_state(2, 7)
    bad = CyclicElement([0.5, 0.5])
    with pytest.raises(NonChannelElementError):
        effective_channel(bad, psi)
    with pytest.raises(NonChannelElementError):
        dense_reflection_channel(bad, psi, np.eye(2))


def test_lmr_sequential_trivialities():
    rng = np.random.default_rng(8)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    assert np.abs(lmr_sequential_dense([0.0, 0.0], psi, X) - X).max() < 1e-12
    out = lmr_sequential_dense([pi / 2], psi, X)
    assert np.abs(out - np.trace(X) * psi.projector).max() < 1e-12


def test_lmr_sequential_matches_effective():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 4))
        psi = haar_random_state(d, rng)
        X = random_matrix(d, rng)
        thetas = rng.uniform(0, pi, size=n)
        seq = lmr_sequential_dense(thetas, psi, X)
        closed = effective_channel(lmr_coeffs(thetas), psi)(X)
        assert np.abs(seq - closed).max() < 1e-10


def test_mr_trace_preserving_and_d2_value():
    rng = np.random.default_rng(10)
    psi = haar_random_state(2, rng)
    X = random_matrix(2, rng)
    out = MeasureReflectChannel(psi, 4)(X)
    assert abs(np.trace(out) - np.trace(X)) < 1e-11


def test_mr_covariance():
    rng = np.random.default_rng(11)
    psi = haar_random_state(3, rng)
    chan = MeasureReflectChannel(psi, 3)
    U = stabilizer_unitary(psi, rng)
    X = random_matrix(3, rng)
    lhs = U @ chan(X) @ U.conj().T
    rhs = chan(U @ X @ U.conj().T)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_effective_covariance():
    rng = np.random.default_rng(12)
    psi = haar_random_state(3, rng)
    chan = effective_channel(r_theta_coeffs(4, 1.9), psi)
    U = stabilizer_unitary(psi, rng)
    X = random_matrix(3, rng)
    lhs = U @ chan(X) @ U.conj().T
    rhs = chan(U @ X @ U.conj().T)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_choi_identity_channel():
    ident = lambda X: X
    J = choi(ident, 2)
    eig = np.linalg.eigvalsh(J)
    assert abs(eig[-1] - 2.0) < 1e-12
    assert np.abs(eig[:-1]).max() < 1e-12


def test_choi_swap_channel():
    psi = haar_random_state(2, 13)
    chan = effective_channel(CyclicElement([0.0, 1.0]), psi)
    J = choi(chan, 2)
    assert np.abs(J - np.kron(np.eye(2), psi.projector)).max() < 1e-12


def test_choi_complete_positivity_random_elements():
    rng = np.random.default_rng(14)
    psi = haar_random_state(2, rng)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        phases = np.exp(1j * rng.uniform(0, 2 * pi, size=n + 1))
        from reflectron.cyclic import inverse_fourier

        chan = effective_channel(inverse_fourier(phases), psi)
        eig = np.linalg.eigvalsh(choi(chan, 2))
        assert eig.min() > -1e-9
        # partial trace over the output slot returns the identity
        J = choi(chan, 2)
        red = np.trace(J.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        assert np.abs(red - np.eye(2)).max() < 1e-10


def test_mr_choi_positive_and_trace_preserving():
    for d, n in [(2, 1), (2, 4), (3, 2), (3, 7)]:
        psi = haar_random_state(d, d * 10 + n)
        chan = MeasureReflectChannel(psi, n)
        J = choi(chan, d)
        assert np.linalg.eigvalsh(J).min() > -1e-9
        red = np.trace(J.reshape(d, d, d, d), axis1=1, axis2=3)
        assert np.abs(red - np.eye(d)).max() < 1e-11


def test_mr_tr_pn_ratio_consistency():
    # the closed form only sees dimension ratios; spot check them
    d, n = 3, 5
    T = lambda m: comb(m + d - 1, d - 1)
    assert T(n + 2) * (n + 2) == T(n + 1) * (n + d + 1)


def _per_unit_choi(channel, d):
    """The per-unit Choi loop: one channel call per matrix unit |i><j|."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = channel(unit)
    return out


def _library_channels(d):
    from reflectron.tensor_core import haar_random_unitary
    from reflectron.channels import make_rotation_channel
    from reflectron.universal import assemble_universal_channel

    psi = haar_random_state(d, 40 + d)
    composed = assemble_universal_channel(haar_random_unitary(d, 40 + d), 0.2)
    return {
        "rotation": make_rotation_channel(psi, 1.3),
        "effective": effective_channel(r_theta_coeffs(3, 2.1), psi),
        "measure-reflect": MeasureReflectChannel(psi, 5),
        "universal": composed,
        "sequential": lambda X: lmr_sequential_dense([0.3, 0.7, 1.1], psi, X),
    }


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_stacked_choi_equals_per_unit_loop(d):
    from reflectron.distances import _choi_difference

    chans = _library_channels(d)
    for name, chan in chans.items():
        assert np.array_equal(choi(chan, d), _per_unit_choi(chan, d)), name
        for other in chans.values():
            J = _per_unit_choi(lambda X: chan(X) - other(X), d)
            K = J.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            assert np.array_equal(_choi_difference(chan, other, d), K), name


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_library_channels_act_on_stacks_slice_by_slice(d):
    rng = np.random.default_rng(50 + d)
    stack = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    for name, chan in _library_channels(d).items():
        assert np.array_equal(chan(stack), [chan(X) for X in stack]), name
        deep = stack.reshape(5, 1, d, d)
        assert np.array_equal(chan(deep), chan(stack)[:, None]), name


@pytest.mark.parametrize("d", [2, 3])
def test_unit_images_rejects_channel_that_mishandles_a_stack(d):
    from reflectron.channels import unit_images
    from reflectron.distances import _choi_difference

    ident = lambda X: X
    for bad in (lambda X: X.T, lambda X: np.trace(X) * np.eye(d) / d):
        # both are fine on a single d x d matrix ...
        assert bad(np.eye(d)).shape == (d, d)
        # ... but not slice by slice on the unit stack
        with pytest.raises(ValueError, match="slice by slice"):
            unit_images(bad, d)
        with pytest.raises(ValueError, match="slice by slice"):
            choi(bad, d)
        with pytest.raises(ValueError, match="slice by slice"):
            _choi_difference(ident, bad, d)


def _effective_reference(e, psi, X):
    """The effective channel term by term, each product formed where it is
    used, from coefficients read as separate sums."""
    c = e.coeffs
    c0, s = c[0], np.sum(c[1:])
    q = float(np.sum(np.abs(c[1:]) ** 2))
    P = np.outer(psi.amplitudes, psi.amplitudes.conj())
    X = np.asarray(X, dtype=complex)
    tr_x = np.trace(X, axis1=-2, axis2=-1)[..., None, None]
    tr_px = np.trace(P @ X, axis1=-2, axis2=-1)[..., None, None]
    return (
        abs(c0) ** 2 * X
        + np.conj(c0) * s * (P @ X)
        + c0 * np.conj(s) * (X @ P)
        + q * tr_x * P
        + (abs(s) ** 2 - q) * tr_px * P
    )


def _kraus_reference(e, psi, X):
    """E(X) = K X K^dag + q tr((I - P) X) P, K = c_0 I + s P, as the matrix
    S[(a, b), (c, e)] = E(|a><b|)[c, e] = K[c, a] conj(K[e, b]) + R[a, b] P[c, e],
    R = q (I - P)^T, from two outer products, with c_0, s = ct_0 - c_0 and
    q = A read from the element's invariants; applied as one (1, d^2) row
    product per slice. Returns (E(X), S)."""
    c0, ct0, q = e.invariants
    d = psi.dim
    P = psi.projector
    K = c0 * np.eye(d) + (ct0 - c0) * P
    R = q * np.eye(d) - q * P.T
    S = np.multiply.outer(K.T, K.T.conj()).transpose(0, 2, 1, 3) + np.multiply.outer(R, P)
    S = S.reshape(d * d, d * d)
    X = np.asarray(X, dtype=complex)
    return np.matmul(X.reshape(X.shape[:-2] + (1, d * d)), S).reshape(X.shape), S


def _factored_reference(e, psi, X):
    """E(X) = K X K^dag + tr(R^T X) P, R = q (I - P)^T, with two matmuls per
    slice, from the element's invariants as _kraus_reference reads them."""
    c0, ct0, q = e.invariants
    d = psi.dim
    P = psi.projector
    K = c0 * np.eye(d) + (ct0 - c0) * P
    R = q * np.eye(d) - q * P.T
    X = np.asarray(X, dtype=complex)
    return K @ X @ K.conj().T + np.sum(X * R, axis=(-2, -1))[..., None, None] * P


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_effective_channel_equals_term_by_term_reference_bit_for_bit(d):
    from reflectron.channels import _ONE_PRODUCT_MAX_DIM, unit_images
    from reflectron.cyclic import inverse_fourier, optimal_reflection_coeffs

    rng = np.random.default_rng(50 + d)
    psi = haar_random_state(d, rng)
    X = rng.normal(size=(3, 2, d, d)) + 1j * rng.normal(size=(3, 2, d, d))
    elements = (
        r_theta_coeffs(5, 2.4),
        lmr_coeffs(rng.uniform(0, pi, 9)),
        optimal_reflection_coeffs(4),
        inverse_fourier(np.exp(1j * rng.uniform(0, 2 * pi, size=6))),
        CyclicElement([0.0, 1.0]),
    )
    for e in elements:
        chan = effective_channel(e, psi)
        if d <= _ONE_PRODUCT_MAX_DIM:
            # bit for bit: the Kraus-form matrix, applied by the same row product
            out, S = _kraus_reference(e, psi, X)
            # the matrix the closure applies is the one unit_images reads back
            assert np.array_equal(unit_images(chan, d).reshape(d * d, d * d), S)
        else:
            out = _factored_reference(e, psi, X)
        assert np.array_equal(chan(X), out)
        assert np.array_equal(chan(X[1, 0]), out[1, 0])
        # the five-term form agrees to rounding
        for Y in (X, X[1, 0]):
            assert np.abs(chan(Y) - _effective_reference(e, psi, Y)).max() <= 1e-14 * np.abs(Y).max()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_effective_channel_choi_is_positive_and_trace_preserving(d):
    from reflectron.cyclic import inverse_fourier

    rng = np.random.default_rng(60 + d)
    psi = haar_random_state(d, rng)
    for trial in range(8):
        n = int(rng.integers(1, 7))
        e = inverse_fourier(np.exp(1j * rng.uniform(0, 2 * pi, size=n + 1)))
        J = choi(effective_channel(e, psi), d)
        assert np.linalg.eigvalsh(J).min() >= -1e-14
        # the trace over the output slot leaves the identity on the reference
        red = np.trace(J.reshape(d, d, d, d), axis1=1, axis2=3)
        assert np.abs(red - np.eye(d)).max() <= 1e-14


def test_effective_channel_rejects_a_non_square_slice():
    chan = effective_channel(r_theta_coeffs(3, 1.0), haar_random_state(2, 9))
    for bad in (np.ones((4, 1)), np.ones(4), np.ones((3, 2, 2, 3))):
        with pytest.raises(ValueError, match=r"acts on \(\.\.\., 2, 2\) operators"):
            chan(bad)


def test_effective_channel_peak_is_its_output():
    from traced import traced_peak

    rng = np.random.default_rng(70)
    chan = effective_channel(r_theta_coeffs(5, 2.4), haar_random_state(4, rng))
    X = rng.normal(size=(16384, 4, 4)) + 1j * rng.normal(size=(16384, 4, 4))
    # a temporary of the stack's size on the way would double the peak
    out, peak = traced_peak(lambda: chan(X))
    assert out.nbytes == 4 * 2**20
    assert peak <= out.nbytes + 64 * 2**10, peak


def test_channels_on_one_state_share_a_read_only_projector(monkeypatch):
    from reflectron.channels import rotation_unitary

    psi = haar_random_state(3, 8)
    outer = np.outer
    built = []
    monkeypatch.setattr(np, "outer", lambda *a, **k: built.append(1) or outer(*a, **k))
    effective_channel(r_theta_coeffs(2, 1.0), psi)
    P = psi.projector
    assert built == [1]
    # a second channel and a rotation on the state read the cached projector
    effective_channel(r_theta_coeffs(4, 0.3), psi)
    U = rotation_unitary(psi, 0.7)
    assert built == [1]
    assert psi.projector is P
    with pytest.raises(ValueError):
        P[0, 0] = 0.0
    assert np.array_equal(U, np.eye(3) + (np.exp(0.7j) - 1.0) * P)


@pytest.mark.parametrize(
    "v", [[1.0, 1.0], [0.6, 0.0, 0.0], [np.nan, 0.0]], ids=["norm-sqrt2", "norm-0.6", "nan"]
)
def test_channels_reject_an_unnormalized_state(v):
    from reflectron.channels import rotation_unitary

    v = np.array(v)
    calls = [
        lambda: rotation_unitary(v, pi),
        lambda: make_rotation_channel(v, pi),
        lambda: effective_channel(r_theta_coeffs(2, 1.0), v),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="state norm"):
            call()
