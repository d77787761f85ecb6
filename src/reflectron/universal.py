"""Universal-processor assembly: eigendecomposition of targets, binary angle
encoding, copy/precision budgeting with its program-qubit accounting, and
composed-channel verification."""

from collections import Counter
from dataclasses import dataclass
from math import ceil, isfinite, log2, pi

import numpy as np

from .config import _check_d, _check_eps, ensure_vector_budget
from .channels import effective_channel, unitary_channel
from .cyclic import r_theta_coeffs
from .distances import sampled_diamond_lower_bound
from .tensor_core import UNITARY_TOL, PureState, require_unitary, sym_dim


def eigendecompose_target(U) -> list:
    """Eigenpairs (psi_j, alpha_j) with the global phase fixed on pair 0.

    The eigenvectors are orthonormalised by a QR factorisation, so a
    degenerate eigenspace still gives orthonormal vectors; a residual check
    rejects any vector that QR moved off its eigenspace. Pairs are stably
    sorted by phase, then the first pair's phase is rotated to zero and the
    rest mapped to (-pi, pi].
    """
    U = np.asarray(U, dtype=complex)
    require_unitary(U)
    eigvals, vecs = np.linalg.eig(U)
    Z, _ = np.linalg.qr(vecs)
    residual = np.abs(U @ Z - Z * eigvals).max()
    if residual > UNITARY_TOL:
        raise ValueError(f"eigenvectors not recovered, residual {residual}")
    phases = np.angle(eigvals)
    order = np.argsort(phases, kind="stable")
    pairs = []
    ref = eigvals[order[0]]
    for k in order:
        rel = np.angle(eigvals[k] / ref)
        if rel <= -pi + 1e-15:
            rel += 2 * pi
        vec = Z[:, k]
        # deterministic sign: first nonzero amplitude made real positive
        lead = vec[np.argmax(np.abs(vec) > 1e-12)]
        vec = vec * np.exp(-1j * np.angle(lead))
        pairs.append((PureState(vec), float(rel)))
    return pairs


def binary_angle(theta: float, K: int) -> float:
    """Signed binary fraction a with |theta - pi a| <= pi 2^{-K}.

    Deterministic truncation of |theta|/pi to K bits; the all-ones fraction
    represents theta = pi.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    if not -pi <= theta <= pi + 1e-12:
        raise ValueError("theta must lie in (-pi, pi]")
    sign = -1.0 if theta < 0 else 1.0
    m = int(abs(theta) / pi * 2**K)
    m = min(m, 2**K - 1)
    return sign * m / 2**K


@dataclass
class BudgetReport:
    K: int
    n_copies: list
    delta_encoder: float
    phase_qubits: int
    copy_count_qubits: int
    symmetric_program_qubits: int
    total_qubits: int


def budget(d: int, epsilon: float, alphas) -> BudgetReport:
    """Copy counts, bit widths, and program-qubit accounting for a target.

    The classical phase and copy-count registers follow the proof, each
    wide enough for every value it holds (K >= 1 bits, counts 0..N); the
    quantum program cost is the symmetric-subspace term, which is the part
    that scales as (d-1)^2 log(1/eps).
    """
    _check_d(d)
    _check_eps(epsilon)
    alphas = [float(a) for a in alphas]
    copies = [9 * (d - 1) * abs(a) / epsilon for a in alphas]
    if not all(isfinite(x) for x in [9 * pi * (d - 1) / epsilon, *copies]):
        raise ValueError(f"epsilon = {epsilon} is too small: the copy counts overflow")
    K = max(1, ceil(log2(6 * pi * (d - 1) / epsilon)))
    n_copies = [ceil(x) for x in copies]
    phase_qubits = (d - 1) * K
    # each n_j is one of the N + 1 counts 0..N: ceil(log2(N + 1)) = N.bit_length() bits
    copy_qubits = (d - 1) * ceil(9 * pi * (d - 1) / epsilon).bit_length()
    # equal angles give equal copy counts: one binomial per distinct count
    sym_qubits = sum(
        count * ceil(log2(sym_dim(nj, d))) for nj, count in Counter(n_copies).items() if nj > 0
    )
    return BudgetReport(
        K=K,
        n_copies=n_copies,
        delta_encoder=epsilon / (6 * (d - 1)),
        phase_qubits=phase_qubits,
        copy_count_qubits=copy_qubits,
        symmetric_program_qubits=sym_qubits,
        total_qubits=phase_qubits + copy_qubits + sym_qubits,
    )


def assemble_universal_channel(U, epsilon: float):
    """Composition of approximate rotation channels programming U.

    Returns the composed channel as a callable. Each eigenrotation alpha_j
    is encoded as theta_j = pi a_j with a_j the K-bit truncation, realized
    through the closed-form effective channel with n_j program copies, so
    copy counts in the hundreds cost nothing. The coefficients of the worst
    case, a phase of pi, are checked against the budget before any rotation
    is built, so admission depends on d and epsilon alone, not on U.
    """
    pairs = eigendecompose_target(U)
    d = len(pairs)
    alphas = [alpha for _, alpha in pairs[1:]]
    report = budget(d, epsilon, alphas)
    ensure_vector_budget(ceil(9 * (d - 1) * pi / epsilon) + 1, "cyclic element coefficients")
    channels = [
        effective_channel(r_theta_coeffs(n_j, pi * binary_angle(alpha, report.K)), psi)
        for (psi, alpha), n_j in zip(pairs[1:], report.n_copies)
        if n_j > 0
    ]

    def composed(X):
        out = np.asarray(X, dtype=complex)
        for chan in channels:
            out = chan(out)
        return out

    return composed


@dataclass
class VerifyReport:
    sampled_distance: float
    passed: bool
    slack: float


def verify_budget(U, epsilon: float, trials: int = 200, seed=0) -> VerifyReport:
    """Sampled diamond lower bound between target and assembled channel;
    the sampled value must sit below epsilon. The probes are drawn from
    np.random.default_rng(seed)."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    composed = assemble_universal_channel(U, epsilon)
    target = unitary_channel(U)
    sampled = sampled_diamond_lower_bound(target, composed, d, trials, seed)
    return VerifyReport(
        sampled_distance=sampled,
        passed=bool(sampled <= epsilon + 1e-12),
        slack=float(epsilon - sampled),
    )


def scaling_fit() -> tuple:
    """Least-squares slope of the symmetric program qubits against
    (d-1)^2 log2(1/eps) at d = 2, 3, 4 over the dyadic epsilon grid
    2^-6 .. 2^-24, worst-case angles pi."""
    xs, ys = [], []
    for d in (2, 3, 4):
        for k in range(6, 25, 2):
            eps = 2.0**-k
            rep = budget(d, eps, [pi] * (d - 1))
            xs.append((d - 1) ** 2 * k)
            ys.append(rep.symmetric_program_qubits)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    design = np.stack([xs, np.ones_like(xs)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(coeffs[0]), float(coeffs[1])

