import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, e as euler_e, isfinite, log, log2

import numpy as np
import pytest

from reflectron.config import DimensionBudgetError
from reflectron.tensor_core import haar_random_unitary
from reflectron.repthy import (
    EIG_CUTOFF,
    EntropyReport,
    MinimizeResult,
    ProbeSpec,
    _block_grams,
    _probe_vector,
    _reflection_signs,
    _schur_basis,
    block_basis,
    build_probe,
    build_probe_d2,
    conjecture_system_d2,
    ensemble_entropy,
    ensemble_entropy_rank,
    ensemble_state,
    entropy_target,
    final_lower_bound,
    lambert_w0,
    lower_bound_fd,
    maximize_entropy_over_q,
    minimize as repthy_minimize,
    n_of_eps,
    solve_q_d2,
    support_bound,
    twirl,
    weyl_dim,
)
from cg_oracle import cg_su2, m0_weight_exact, m0_weights_eigh


# --- Weyl dimension ---------------------------------------------------------


def gt_patterns(row):
    """Gelfand-Tsetlin patterns with top row `row`, listed bottom row first:
    each row has one entry fewer than the row above and interlaces it."""
    if len(row) == 1:
        yield (row,)
        return
    ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
    for below in itertools.product(*ranges):
        for rest in gt_patterns(below):
            yield rest + (row,)


def test_gt_pattern_count_is_weyl_dimension():
    for lam, d in [((2, 0), 2), ((2, 0, 0), 3), ((2, 1, 0), 3), ((3, 1), 2)]:
        top = lam + (0,) * (d - len(lam))
        assert sum(1 for _ in gt_patterns(top)) == weyl_dim(lam, d)


def partitions(n, max_rows, largest=None):
    """Partitions of n into at most max_rows parts, lexicographically decreasing."""
    if n == 0:
        return [()]
    if max_rows == 0:
        return []
    top = n if largest is None else min(n, largest)
    return [(p,) + rest for p in range(top, 0, -1) for rest in partitions(n - p, max_rows - 1, p)]


def test_partitions():
    assert partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(4, 2) == [(4,), (3, 1), (2, 2)]


# --- Clebsch-Gordan -------------------------------------------------------


def test_cg_singlet_closed_form():
    for tj in (1, 2, 3, 6):
        for tm in range(-tj, tj + 1, 2):
            got = cg_su2(tj, tm, tj, -tm, 0, 0)
            expect = (-1) ** ((tj - tm) // 2) / np.sqrt(tj + 1)
            assert abs(got - expect) < 1e-14


def test_cg_singlet_matches_invariant_state_oracle():
    # build the rotation-invariant state in spin-j x spin-j as the kernel of
    # the total raising operator inside the M = 0 sector, then compare
    tj = 4
    dim = tj + 1
    ms = np.arange(tj, -tj - 2, -2)[:dim]
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = ms[k]
        jp[k - 1, k] = np.sqrt((tj / 2 - m / 2) * (tj / 2 + m / 2 + 1))
    total_raise = np.kron(jp, np.eye(dim)) + np.kron(np.eye(dim), jp)
    total_jz = np.kron(np.diag(ms / 2), np.eye(dim)) + np.kron(np.eye(dim), np.diag(ms / 2))
    # joint kernel of the raising operator and Jz is the unique invariant
    stacked = np.vstack([total_raise, total_jz])
    u, s, vt = np.linalg.svd(stacked)
    kernel = vt[np.sum(s > 1e-10) :]
    assert kernel.shape[0] == 1
    invariant = kernel[0]
    # compare against CG coefficients up to a global sign
    built = np.zeros(dim * dim)
    for k, m in enumerate(ms):
        built[k * dim + (dim - 1 - k)] = cg_su2(tj, int(m), tj, -int(m), 0, 0)
    overlap = abs(np.dot(invariant, built))
    assert abs(overlap - 1.0) < 1e-10


def test_cg_triplet_value():
    assert abs(cg_su2(1, 1, 1, -1, 2, 0) - 1 / np.sqrt(2)) < 1e-14


def test_cg_completeness_m_zero_sector():
    tj = 5
    for tm in range(-tj, tj + 1, 2):
        for tmp in range(-tj, tj + 1, 2):
            total = sum(
                cg_su2(tj, tm, tj, -tm, 2 * J, 0) * cg_su2(tj, tmp, tj, -tmp, 2 * J, 0)
                for J in range(0, tj + 1)
            )
            assert abs(total - (1.0 if tm == tmp else 0.0)) < 1e-12


def test_cg_orthonormality_exhaustive():
    # both couplings, all spins with 2j <= 12 in mixed pairs
    for tj1, tj2 in [(1, 1), (2, 1), (2, 2), (3, 2), (12, 12)]:
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tM = tm1 + tm2
                total = sum(
                    cg_su2(tj1, tm1, tj2, tm2, tJ, tM) ** 2
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                )
                assert abs(total - 1.0) < 1e-12


def test_cg_parity_validation():
    with pytest.raises(ValueError):
        cg_su2(1, 0, 1, 1, 2, 1)


def magic_sum_check(two_j: int) -> float:
    """sum_m (-1)^{j-m} C^{00}_{jm,j-m}; equals sqrt(2j+1)."""
    return sum(
        (-1) ** ((two_j - tm) // 2) * cg_su2(two_j, tm, two_j, -tm, 0, 0)
        for tm in range(-two_j, two_j + 1, 2)
    )


@pytest.mark.parametrize("tj,expect", [(0, 1.0), (1, np.sqrt(2)), (6, np.sqrt(7))])
def test_magic_sum(tj, expect):
    assert abs(magic_sum_check(tj) - expect) < 1e-10


# --- d = 2 linear system ---------------------------------------------------


def test_system_n1_is_solved_by_unit_weight():
    A, b, two_js, Js = conjecture_system_d2(1)
    assert A.shape == (1, 1) and two_js == [1] and Js == [1]
    assert abs(A[0, 0] * 1.0 - b[0]) < 1e-14


def test_system_structure_identities():
    for n in (2, 3, 6, 9):
        A, b, two_js, _ = conjecture_system_d2(n)
        assert A.shape == (n // 2 + 1, n // 2 + 1)
        # column sums are exactly one (completeness), rhs sums to one
        assert np.abs(A.sum(axis=0) - 1.0).max() < 1e-12
        assert abs(b.sum() - 1.0) < 1e-12


def _exact_entry_d2(tj, J):
    """|sum_m C^{J0}_{jm,j-m}|^2 / (2j+1) from exact-rational Clebsch-Gordan."""
    s = sum(cg_su2(tj, tm, tj, -tm, 2 * J, 0) for tm in range(-tj, tj + 1, 2))
    return s * s / (tj + 1)


def _exact_system_d2(n):
    """A of the flat-spectrum system, entry by entry."""
    two_js = list(range(n % 2, n + 1, 2))
    A = np.zeros((len(two_js), len(two_js)))
    for r, J in enumerate(two_js):
        for c, tj in enumerate(two_js):
            if tj >= J:
                A[r, c] = _exact_entry_d2(tj, J)
    return A


def test_system_matches_exact_cg_sums():
    for n in range(1, 17):
        A, _, _, _ = conjecture_system_d2(n)
        assert np.abs(A - _exact_system_d2(n)).max() < 1e-13


@pytest.mark.parametrize("tj", [61, 100])
def test_system_column_matches_exact_cg_sums_at_large_spin(tj):
    A, _, two_js, _ = conjecture_system_d2(tj)
    assert two_js[-1] == tj
    exact = [_exact_entry_d2(tj, J) for J in range(tj % 2, tj + 1, 2)]
    assert np.abs(A[:, -1] - exact).max() < 1e-13


def _product_entry(two_j, J):
    """conjecture_system_d2's closed form for entry (J, two_j), J <= two_j of
    the same parity, in exact rationals."""
    c2 = Fraction(1)
    for row in range(two_j % 2, J + 1, 2):
        if row:
            u, v = two_j - row + 2, two_j + row
            c2 *= Fraction(u * v, (u - 1) * (v + 1))
    return (2 * J + 1) * c2 / (two_j + 1) ** 2


def test_product_formula_equals_exact_racah_sums():
    for tj in range(41):
        for J in range(tj + 1):
            expected = _product_entry(tj, J) if (tj - J) % 2 == 0 else 0
            assert m0_weight_exact(tj, J) == expected, (tj, J)
    for n in (40, 41):
        A, _, _, _ = conjecture_system_d2(n)
        assert np.all(np.tril(A, -1) == 0.0)


def test_system_peak_stays_within_two_tables():
    from traced import traced_peak

    # one integer and one float table at a time; four full-size integer
    # temporaries would read ~4 tables
    (A, *_), peak = traced_peak(lambda: conjecture_system_d2(1023))
    assert A.shape == (512, 512)
    assert peak <= 2.2 * A.nbytes, peak / A.nbytes


@pytest.mark.parametrize("tj", [401, 1000, 1001])
def test_system_column_matches_eigh_oracle(tj):
    A, _, two_js, _ = conjecture_system_d2(tj)
    assert two_js[-1] == tj
    assert np.abs(A[:, -1] - m0_weights_eigh(tj)[tj % 2 :: 2]).max() <= 1e-14


def _exact_q(n):
    """The d = 2 system solved by back substitution in exact rationals."""
    labels = range(n % 2, n + 1, 2)
    q = {}
    for J in reversed(labels):
        rest = sum(m0_weight_exact(tj, J) * q[tj] for tj in labels if tj > J)
        q[J] = (Fraction(2 * J + 1, comb(n + 2, 2)) - rest) / m0_weight_exact(J, J)
    return q


def test_solve_q_matches_exact_rational_solution():
    for n in range(1, 41):
        exact = _exact_q(n)
        assert all(x > 0 for x in exact.values()), n
        spec, _ = solve_q_d2(n)
        assert sorted(spec.q) == sorted(exact)
        for tj, x in exact.items():
            assert abs(spec.q[tj] - float(x)) <= 1e-14 * float(x), (n, tj)


def test_solve_q_small_and_medium():
    spec, residual = solve_q_d2(1)
    assert abs(spec.q[1] - 1.0) < 1e-12 and residual < 1e-12
    for n in (2, 5, 12, 25, 40):
        spec, residual = solve_q_d2(n)
        assert residual < 1e-8
        q = np.array([spec.q[tj] for tj in sorted(spec.q)])
        assert q.min() >= -1e-9 and q.max() <= 1 + 1e-9
        assert abs(q.sum() - 1.0) < 1e-9


def test_solve_q_large_n():
    spec, residual = solve_q_d2(200)
    assert residual < 1e-12
    q = np.array([spec.q[tj] for tj in sorted(spec.q)])
    assert q.min() >= 0.0 and q.max() <= 1.0
    assert abs(q.sum() - 1.0) < 1e-9


# --- commutant reference, Schur basis and twirl ----------------------------


def _cycle_count(perm):
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


@lru_cache(maxsize=None)
def commutant_reference(n, d):
    """Partially transposed permutations spanning the commutant of U^{xn} x Ubar^{xn}.

    Returns (perms, pairs, gram): each operator as its nonzero coordinate
    pairs (one per column of the underlying permutation matrix), and the
    Hilbert-Schmidt Gram matrix from the cycle-count identity
    tr(eta_pi^dag eta_sigma) = d^{cycles(pi^{-1} sigma)}.
    """
    k2 = 2 * n
    perms = list(itertools.permutations(range(k2)))
    dim = d**k2
    idx = np.arange(dim)
    digits = [(idx // d ** (k2 - 1 - s)) % d for s in range(k2)]
    # eta[(a,e),(c,b)] = P[(a,b),(c,e)] for column x = (c,e) and row y = pi(x) = (a,b):
    # the partial transpose swaps the row/column roles of the last n slots
    pairs = []
    for pm in perms:
        ydig = [None] * k2
        for s in range(k2):
            ydig[pm[s]] = digits[s]
        rows = np.zeros(dim, dtype=np.int64)
        cols = np.zeros(dim, dtype=np.int64)
        for s in range(k2):
            w = d ** (k2 - 1 - s)
            if s < n:
                rows += ydig[s] * w
                cols += digits[s] * w
            else:
                rows += digits[s] * w
                cols += ydig[s] * w
        pairs.append((rows, cols))
    m = len(perms)
    gram = np.zeros((m, m))
    index = {pm: i for i, pm in enumerate(perms)}
    cycles = np.array([_cycle_count(pm) for pm in perms])
    arr = np.array(perms)
    for i, pm in enumerate(perms):
        inv = np.argsort(np.asarray(pm))
        comp_ids = [index[tuple(row[inv])] for row in arr]
        gram[i, :] = np.power(float(d), cycles[comp_ids])
    return perms, pairs, gram


def commutant_op_dense(n, d, k):
    out = np.zeros((d ** (2 * n),) * 2, dtype=complex)
    rows, cols = commutant_reference(n, d)[1][k]
    out[rows, cols] = 1.0
    return out


def commutant_twirl_reference(X, n, d):
    """Orthogonal projection of X onto the span of the eta operators.

    Coincides with the Haar average of (U^{xn} x Ubar^{xn}) X (.)^dag; the
    rank-deficient Gram matrix (d < 2n) is inverted by SVD pseudo-inverse.
    """
    _, pairs, gram = commutant_reference(n, d)
    X = np.asarray(X, dtype=complex)
    overlaps = np.array([X[rows, cols].sum() for rows, cols in pairs])
    coeffs = np.linalg.pinv(gram, rcond=1e-10) @ overlaps
    out = np.zeros_like(X)
    for cf, (rows, cols) in zip(coeffs, pairs):
        np.add.at(out, (rows, cols), cf)
    return out


def test_commutant_n1_d2_operators():
    perms = commutant_reference(1, 2)[0]
    dense = {tuple(p): commutant_op_dense(1, 2, i) for i, p in enumerate(perms)}
    ident = dense[(0, 1)]
    swap_pt = dense[(1, 0)]
    assert np.abs(ident - np.eye(4)).max() == 0
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0
    assert np.abs(swap_pt - np.outer(bell, bell)).max() == 0  # 2 |Phi+><Phi+|


def test_commutant_gram_matches_dense_and_trace_pattern():
    perms, _, gram = commutant_reference(1, 2)
    for i in range(2):
        for j in range(2):
            dense = np.trace(commutant_op_dense(1, 2, i).conj().T @ commutant_op_dense(1, 2, j)).real
            assert abs(dense - gram[i, j]) < 1e-10
    idx_swap = perms.index((1, 0))
    assert gram[idx_swap, idx_swap] == 4
    assert gram[perms.index((0, 1)), idx_swap] == 2
    eig = np.linalg.eigvalsh(gram)
    assert eig.min() > -1e-9


def test_commutant_gram_matches_dense_n2():
    rng = np.random.default_rng(0)
    perms, _, gram = commutant_reference(2, 2)
    for _ in range(10):
        i, j = rng.integers(0, len(perms), size=2)
        dense = np.trace(commutant_op_dense(2, 2, int(i)).conj().T @ commutant_op_dense(2, 2, int(j))).real
        assert abs(dense - gram[int(i), int(j)]) < 1e-10


def test_commutant_ops_commute_with_haar_action():
    for k in range(len(commutant_reference(1, 3)[0])):
        eta = commutant_op_dense(1, 3, k)
        for seed in range(20):
            U = haar_random_unitary(3, seed)
            W = np.kron(U, U.conj())
            assert np.abs(W @ eta - eta @ W).max() < 1e-10


def _haar_action(U, k, l):
    W = np.ones((1, 1))
    for factor in [U] * k + [U.conj()] * l:
        W = np.kron(W, factor)
    return W


@pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 4), (3, 3)])
def test_twirl_matches_commutant_reference(n, d):
    rng = np.random.default_rng(10 * n + d)
    dim = d ** (2 * n)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.abs(twirl(X, n, d) - commutant_twirl_reference(X, n, d)).max() < 1e-12


@pytest.mark.parametrize("k, l, d", [(3, 0, 2), (5, 0, 2), (3, 3, 2), (2, 1, 3), (2, 2, 3), (3, 3, 3), (2, 2, 4)])
def test_schur_basis_orthonormal_weyl_blocks_with_equal_copies(k, l, d):
    basis = _schur_basis(k, l, d)
    F = np.concatenate([E.reshape(-1, E.shape[-1]) for E in basis.values()])
    assert F.shape == (d ** (k + l),) * 2
    assert np.abs(F @ F.T - np.eye(F.shape[0])).max() < 1e-12
    W = _haar_action(haar_random_unitary(d, 3), k, l)
    for lam, E in basis.items():
        assert sum(lam) == k - l
        assert E.shape[0] == weyl_dim(tuple(x + l for x in lam), d)
        action = [E[:, t] @ W @ E[:, t].T for t in range(E.shape[1])]
        # each copy is an invariant subspace carrying the same matrices
        assert abs(np.linalg.norm(action[0]) ** 2 - E.shape[0]) < 1e-12
        for other in action[1:]:
            assert np.abs(other - action[0]).max() < 1e-12


@pytest.mark.parametrize("n, d", [(1, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_ensemble_entropy_rank_matches_dense_spectrum(n, d):
    rng = np.random.default_rng(n + 7 * d)
    keys = list(block_basis(n, d))
    weights = rng.dirichlet(np.ones(len(keys)))
    probe = build_probe(n, d, dict(zip(keys, weights)))
    eig = np.linalg.eigvalsh(ensemble_state(n, d, probe))
    entropy, rank = ensemble_entropy_rank(n, d, probe)
    dense = eig[eig > 1e-12]
    assert abs(entropy + np.sum(dense * np.log2(dense))) < 1e-12
    assert rank == dense.size


def test_twirl_projection_properties():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    t1 = twirl(X, 2, 2)
    t2 = twirl(t1, 2, 2)
    assert np.abs(t1 - t2).max() < 1e-9
    assert abs(np.trace(t1) - np.trace(X)) < 1e-9
    # elements of the span are fixed
    span_elem = 0.3 * commutant_op_dense(2, 2, 0) + 1.7j * commutant_op_dense(2, 2, 5)
    assert np.abs(twirl(span_elem, 2, 2) - span_elem).max() < 1e-10


def test_twirl_invariance_under_group_action():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = twirl(X, 1, 2)
    for seed in range(20):
        U = haar_random_unitary(2, seed)
        W = np.kron(U, U.conj())
        assert np.abs(W @ t @ W.conj().T - t).max() < 1e-9


def test_twirl_matches_monte_carlo_haar_average():
    rng = np.random.default_rng(3)
    for n, d in [(1, 2), (2, 2)]:
        dim = d ** (2 * n)
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        exact = twirl(X, n, d)
        samples = 10_000
        acc = np.zeros_like(X)
        for s in range(samples):
            U = haar_random_unitary(d, rng)
            Un = U
            for _ in range(n - 1):
                Un = np.kron(Un, U)
            W = np.kron(Un, Un.conj())
            acc += W @ X @ W.conj().T
        mc = acc / samples
        # entrywise agreement within 3 standard errors of the MC spread
        scale = np.abs(X).max() / np.sqrt(samples)
        assert np.abs(mc - exact).max() < 3 * scale * 3


def test_twirl_example_00_projector():
    X = np.zeros((4, 4), dtype=complex)
    X[0, 0] = 1.0
    out = twirl(X, 1, 2)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    P = np.outer(bell, bell)
    # analytic U x Ubar twirl lands in span{I, Phi+} with tr X = 1 and
    # Phi+ overlap 1/2: alpha I + beta P, 4 alpha + beta = 1, alpha + beta = 1/2
    alpha, beta = np.linalg.solve([[4, 1], [1, 1]], [1, 0.5])
    assert np.abs(out - (alpha * np.eye(4) + beta * P)).max() < 1e-10


# --- probes and entropies ---------------------------------------------------


def spin_chains(n):
    """Every copy of each d = 2 spin block, as (2j+1, 2^n) arrays of rows |j, m, t>."""
    return {lam[0] - lam[1]: [E[:, t] for t in range(E.shape[1])] for lam, E in _schur_basis(n, 0, 2).items()}


def test_spin_chain_blocks_multiplicities():
    blocks = spin_chains(3)
    assert {tj: len(ch) for tj, ch in blocks.items()} == {3: 1, 1: 2}
    for tj, chains in blocks.items():
        assert np.array_equal(block_basis(3, 2)[tj], chains[0].T)
        for chain in chains:
            gram = chain @ chain.T
            assert np.abs(gram - np.eye(tj + 1)).max() < 1e-10


def test_reflection_diagonal_in_chain_basis():
    # R^{xn} conjugated into every copy of every block is diagonal with +-1 entries
    n = 3
    for d in (2, 3, 4):
        R = np.eye(d)
        R[d - 1, d - 1] = -1.0
        Rn = _haar_action(R, n, 0)
        for E in _schur_basis(n, 0, d).values():
            for t in range(E.shape[1]):
                B = E[:, t].T  # columns are weight vectors, |j, m> at d = 2
                M = B.T @ Rn @ B
                off = M - np.diag(np.diag(M))
                assert np.abs(off).max() < 1e-9
                assert np.abs(np.abs(np.diag(M)) - 1.0).max() < 1e-10


def test_probe_d2_n1_is_maximally_entangled():
    spec = ProbeSpec(n=1, d=2, q={1: 1.0})
    probe = build_probe_d2(1, spec)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert min(
        np.abs(probe.amplitudes - bell).max(), np.abs(probe.amplitudes + bell).max()
    ) < 1e-12


def test_probe_normalized_for_any_valid_q():
    spec = ProbeSpec(n=2, d=2, q={0: 0.4, 2: 0.6})
    probe = build_probe_d2(2, spec)
    assert abs(np.linalg.norm(probe.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        build_probe_d2(2, ProbeSpec(n=2, d=2, q={4: 1.0}))


def test_probe_d2_rejects_spec_for_other_n():
    # two_j = 2 is a block at n = 2 and at n = 4, so only the n check catches this
    with pytest.raises(ValueError, match="n = 2, not n = 4"):
        build_probe_d2(4, ProbeSpec(n=2, d=2, q={2: 1.0}))


def test_entropy_n1_maximally_entangled():
    spec = ProbeSpec(n=1, d=2, q={1: 1.0})
    probe = build_probe_d2(1, spec)
    assert abs(ensemble_entropy(1, 2, probe) - np.log2(3)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ensemble_state_d2_matches_commutant_twirl(n):
    spec, _ = solve_q_d2(n)
    probe = build_probe_d2(n, spec)
    reflected = _reflection_signs(n, 2) * probe.amplitudes
    exact = commutant_twirl_reference(np.outer(reflected, reflected.conj()), n, 2)
    assert np.abs(ensemble_state(n, 2, probe) - exact).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entropy_twirl_path_equals_formula_path(n):
    spec, _ = solve_q_d2(n)
    probe = build_probe_d2(n, spec)
    entropy = ensemble_entropy(n, 2, probe)
    assert abs(entropy - np.log2(comb(n + 2, 2))) < 1e-10
    rank = ensemble_entropy_rank(n, 2, probe)[1]
    assert rank == comb(n + 2, 2)
    assert rank <= support_bound(n, 2)


def schur_polynomial(lam, x):
    """s_lam(x) by the bialternant formula det(x_i^(lam_j + d - j)) / det(x_i^(d - j))."""
    d = len(x)
    exps = np.arange(d - 1, -1, -1)
    top = np.array(tuple(lam) + (0,) * (d - len(lam))) + exps
    return np.linalg.det(x[:, None] ** top) / np.linalg.det(x[:, None] ** exps)


def test_block_basis_spans_invariant_blocks_with_schur_characters():
    # every (n, d) with d^n <= 81; keys are two_j = lam_0 - lam_1 at d = 2
    for d in range(2, 10):
        U = haar_random_unitary(d, 40 + d)
        eig = np.linalg.eigvals(U)
        n = 1
        while d**n <= 81:
            lams = partitions(n, d)
            keys = [lam[0] - sum(lam[1:]) for lam in lams] if d == 2 else lams
            blocks = block_basis(n, d)
            assert list(blocks) == keys
            W = _haar_action(U, n, 0)
            for lam, key in zip(lams, keys):
                B = blocks[key]
                assert B.shape == (d**n, weyl_dim(lam, d))
                assert np.abs(B.T @ B - np.eye(B.shape[1])).max() < 1e-12
                WB = W @ B
                assert np.abs(WB - B @ (B.T @ WB)).max() <= 1e-12
                assert abs(np.trace(B.T @ WB) - schur_polynomial(lam, eig)) < 1e-10
            n += 1


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "case", ["negative weight", "non-numeric weight", "weights sum to", "invalid irrep labels"]
)
def test_build_probe_rejects_invalid_weights(d, case):
    sym, anti, invalid = {2: (2, 0, 4), 3: ((2,), (1, 1), (5,))}[d]
    q = {
        "negative weight": {sym: -0.5, anti: 1.5},
        "non-numeric weight": {sym: np.nan, anti: 1.0},  # once built an all-NaN probe
        "weights sum to": {sym: 3.0},
        "invalid irrep labels": {invalid: 1.0},
    }[case]
    with pytest.raises(ValueError, match=case):
        build_probe(2, d, q)


@pytest.mark.parametrize("n", [0, -1])
def test_build_probe_rejects_bad_n(n):
    with pytest.raises(ValueError, match="need n >= 1"):
        build_probe(n, 3, {(): 1.0})


def _n1_entropy(d, w0):
    """S(1, d) in bits: the trivial-sector weight w0 and d^2 - 1 equal eigenvalues."""
    return -w0 * log2(w0) - (1 - w0) * log2((1 - w0) / (d * d - 1))


def test_n1_entropy_equals_its_closed_form():
    # at n = 1 the only U x Ubar-invariant probe is |Phi+>, so the entropy search
    # has one point; the reflection leaves it trivial-sector weight ((d - 2)/d)^2
    for d in range(3, 13):
        entropy, _ = ensemble_entropy_rank(1, d, build_probe(1, d, {(1,): 1.0}))
        assert abs(entropy - _n1_entropy(d, ((d - 2) / d) ** 2)) <= 1e-12
        # a planted w0 = (d - 1)/d fails the same check
        assert abs(entropy - _n1_entropy(d, (d - 1) / d)) > 1e-12


def test_maximize_entropy_d2_recovers_solved_weights():
    report = maximize_entropy_over_q(2, 2, restarts=6, seed=0)
    assert not report.below_target
    assert abs(report.entropy - np.log2(6)) < 1e-5
    spec, _ = solve_q_d2(2)
    for tj in spec.q:
        assert abs(report.probe.q[tj] - spec.q[tj]) < 1e-3


def test_maximize_entropy_d3_reports_structural_gap():
    report = maximize_entropy_over_q(2, 3, restarts=8, seed=0)
    assert report.rank <= report.rank_bound == 36
    assert report.entropy <= report.target + 1e-9
    # the trivial-sector weight is pinned at 1/9 > 1/36 for every q here,
    # so the flat target is unattainable and the report must say so
    assert report.below_target
    assert abs(report.trivial_sector_weight - 1.0 / 9.0) < 1e-9
    assert report.trivial_sector_flat == 1.0 / 36.0
    assert report.entropy > 5.0  # best found in the prototype study: 5.0626


def test_maximize_entropy_n3_d2_hits_target():
    report = maximize_entropy_over_q(3, 2, restarts=6, seed=0)
    assert not report.below_target
    assert abs(report.entropy - np.log2(10)) < 1e-5


def test_maximize_entropy_n3_d3_reports_structural_gap():
    report = maximize_entropy_over_q(3, 3, restarts=6, seed=0)
    assert report.below_target
    assert report.rank == report.rank_bound == 100
    # trivial sector pinned at q_(3)/25 + q_(1,1,1) with flat value 1/100
    assert report.trivial_sector_flat == 0.01
    assert report.entropy > 6.4


def _scipy_nelder_mead(fun, x0, xatol, fatol, maxiter):
    """scipy's Nelder-Mead from one start of a stacked objective, through a one-row adapter."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(
        lambda x: fun(x[None])[0],
        x0,
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
    )


def _scipy_nelder_mead_rows(fun, x0, xatol, fatol, maxiter):
    """`repthy.minimize`'s contract, met by one scipy run per start."""
    runs = [_scipy_nelder_mead(fun, x, xatol, fatol, maxiter) for x in x0]
    return MinimizeResult(
        x=np.array([r.x for r in runs]), fun=np.array([r.fun for r in runs]), nfev=sum(r.nfev for r in runs)
    )


def _rosenbrock(X):
    return np.array([np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) for x in X])


def _entropy_objectives(n, d, monkeypatch):
    """The objective and the starts maximize_entropy_over_q hands to minimize."""
    calls = []

    def spy(fun, x0, **options):
        calls.append((fun, np.array(x0)))
        return repthy_minimize(fun, x0, **options)

    monkeypatch.setattr("reflectron.repthy.minimize", spy)
    maximize_entropy_over_q(n, d, restarts=3, seed=5)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 2)])
def test_minimize_matches_scipy_on_entropy_objective(n, d, monkeypatch):
    for fun, starts in _entropy_objectives(n, d, monkeypatch):
        for x0 in starts:
            ours = repthy_minimize(fun, x0[None], xatol=1e-10, fatol=1e-12, maxiter=2000)
            ref = _scipy_nelder_mead(fun, x0, 1e-10, 1e-12, 2000)
            assert np.array_equal(ours.x[0], ref.x)
            assert ours.fun[0] == ref.fun and ours.nfev == ref.nfev


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("maxiter", [40, 2000])
def test_minimize_matches_scipy_on_rosenbrock(N, maxiter):
    rng = np.random.default_rng(N)
    for _ in range(4):
        x0 = rng.normal(size=N)
        x0[0] = 0.0  # the 0.00025 simplex step
        ours = repthy_minimize(_rosenbrock, x0[None], xatol=1e-10, fatol=1e-12, maxiter=maxiter)
        ref = _scipy_nelder_mead(_rosenbrock, x0, 1e-10, 1e-12, maxiter)
        assert np.array_equal(ours.x[0], ref.x)
        assert ours.fun[0] == ref.fun and ours.nfev == ref.nfev


def test_minimize_hands_each_call_its_own_copy():
    def scribbler(X):
        value = _rosenbrock(X)
        X[:] = 1e9  # writing to the stack must not move the simplex
        return value

    x0 = np.array([[0.3, -0.4], [1.2, 0.0]])
    clean = repthy_minimize(_rosenbrock, x0, xatol=1e-10, fatol=1e-12, maxiter=200)
    dirty = repthy_minimize(scribbler, x0, xatol=1e-10, fatol=1e-12, maxiter=200)
    assert np.array_equal(clean.x, dirty.x) and clean.nfev == dirty.nfev
    assert np.array_equal(x0, [[0.3, -0.4], [1.2, 0.0]])


def _branch_spy(fun):
    """Wrap a stacked objective for a one-start run and count the Nelder-Mead steps it sees.

    The steps follow from the values alone: a reflection below the best
    value expands, one below the second worst is accepted, and any other
    contracts (outside when it beats the worst value, else inside); a
    contraction that does not improve shrinks the simplex onto its best
    vertex. Counts "steps" and each of "expand", "outside", "inside" and
    "shrink", and checks the size of every call on the way.
    """
    taken = Counter()
    state = {"next": "initial"}

    def spy(X):
        values = fun(X)
        step, vals, N = state["next"], state.get("vals"), X.shape[1]
        assert len(X) == {"initial": N + 1, "shrink": N}.get(step, 1)
        state["next"] = "reflect"
        if step == "initial":
            state["vals"] = sorted(values)
            return values
        if step != "reflect":
            taken[step] += 1
        if step == "shrink":
            state["vals"] = sorted([vals[0], *values])
            return values
        v = float(values[0])
        if step == "reflect":
            taken["steps"] += 1
            state["xr"] = v
            if v < vals[0]:
                state["next"] = "expand"
            elif v < vals[-2]:
                vals[-1] = v
            else:
                state["next"] = "outside" if v < vals[-1] else "inside"
        elif step == "expand":
            vals[-1] = min(v, state["xr"])
        elif (v <= state["xr"]) if step == "outside" else (v < vals[-1]):
            vals[-1] = v
        else:
            state["next"] = "shrink"
        vals.sort()
        return values

    return spy, taken


# per N: a start that takes every step within 40 iterations, one whose
# initial simplex has already converged, and two random starts with a zero
# coordinate (the 0.00025 simplex step)
_LOCKSTEP_STARTS = {
    2: [[3.2, -2.4], [1e-12, -2e-12], [0.0, 0.7], [0.0, -1.3]],
    3: [[4.2, -2.5, -5.1], [1e-12, -2e-12, 1e-12], [0.0, 0.7, -0.4], [0.0, -1.3, 1.9]],
    5: [[-0.1, 0.4, 0.3, -5.0, 1.4], [1e-12] * 5, [0.0, 0.7, -0.4, 1.1, 0.2], [0.0, -1.3, 1.9, -0.6, 0.5]],
}


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("maxiter", [40, 2000])
def test_minimize_lockstep_equals_one_start_calls(N, maxiter):
    starts = np.array(_LOCKSTEP_STARTS[N])
    singles, steps, taken = [], [], Counter()
    for x0 in starts:
        spy, counts = _branch_spy(_rosenbrock)
        singles.append(repthy_minimize(spy, x0[None], xatol=1e-10, fatol=1e-12, maxiter=maxiter))
        steps.append(counts["steps"])
        taken += counts
    lockstep = repthy_minimize(_rosenbrock, starts, xatol=1e-10, fatol=1e-12, maxiter=maxiter)
    assert np.array_equal(lockstep.x, np.concatenate([r.x for r in singles]))
    assert np.array_equal(lockstep.fun, np.concatenate([r.fun for r in singles]))
    assert lockstep.nfev == sum(r.nfev for r in singles)
    assert steps[1] == 0 and len(set(steps)) > 1  # the starts stop at different iterations
    assert all(taken[step] for step in ("expand", "outside", "inside", "shrink"))


def test_minimize_nfev_is_a_python_int():
    result = repthy_minimize(_rosenbrock, np.array([[0.3, -0.4]]), xatol=1e-10, fatol=1e-12, maxiter=50)
    assert type(result.nfev) is int


def _sequential_maximize_entropy(n, d, restarts, seed):
    """The search maximize_entropy_over_q ran before its restarts went into
    lockstep: one scipy Nelder-Mead per restart on a one-point objective."""
    blocks = block_basis(n, d)
    keys = sorted(blocks)
    sides = np.array([_probe_vector(n, d, {key: 1.0}, blocks) for key in keys])
    grams, dims = _block_grams(n, d, sides)

    def spectrum(q):
        w = np.sqrt(q)
        mixed = np.outer(w, w).reshape(-1) @ grams.reshape(w.size**2, -1)
        eig = np.linalg.eigvalsh(mixed.reshape(grams.shape[2:]))
        return np.repeat(eig, dims, axis=0).ravel()

    def entropy(eig):
        eig = eig[eig > EIG_CUTOFF]
        return float(-np.sum(eig * np.log2(eig)))

    def softmax(x):
        expd = np.exp(x - x.max())
        return expd / expd.sum()

    rng = np.random.default_rng(seed)
    best_x, best_val = None, np.inf
    for _ in range(restarts):
        res = _scipy_nelder_mead(
            lambda X: np.array([-entropy(spectrum(softmax(x))) for x in X]),
            rng.normal(size=len(keys)),
            1e-10,
            1e-12,
            2000,
        )
        if res.fun < best_val:
            best_x, best_val = res.x, res.fun
    qvec = softmax(best_x)
    eig = spectrum(qvec)
    target = entropy_target(n, d)
    chi_per_dim = np.einsum("ai,ai->a", sides, sides * _reflection_signs(n, d))
    return EntropyReport(
        probe=ProbeSpec(n=n, d=d, q={k: float(w) for k, w in zip(keys, qvec)}),
        entropy=entropy(eig),
        target=target,
        below_target=bool(entropy(eig) < target * (1.0 - 1e-4)),
        gap=float(target - entropy(eig)),
        rank=int(np.sum(eig > EIG_CUTOFF)),
        rank_bound=support_bound(n, d),
        basis="highest-weight",
        trivial_sector_weight=float(qvec @ chi_per_dim**2),
        trivial_sector_flat=1.0 / support_bound(n, d),
    )


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4)])
def test_maximize_entropy_lockstep_equals_sequential_search(n, d):
    assert maximize_entropy_over_q(n, d, restarts=20) == _sequential_maximize_entropy(n, d, 20, 0)


def test_maximize_entropy_checks_its_simplex_stack_against_the_budget():
    # 10^6 restarts of 2 weights would stack 6e6 simplex entries before the first step
    with pytest.raises(DimensionBudgetError, match="stack of Nelder-Mead simplices"):
        maximize_entropy_over_q(2, 3, restarts=10**6)


def test_maximize_entropy_slices_its_stacks_by_the_budget(monkeypatch):
    whole = maximize_entropy_over_q(2, 3, restarts=40)
    # 6561 entries admit the 81 x 81 Schur basis but only 82 of the 120
    # initial simplex points per (5, 4, 4) block stack
    monkeypatch.setenv("REFLECTRON_BUDGET", "6561")
    assert maximize_entropy_over_q(2, 3, restarts=40) == whole


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2)])
def test_maximize_entropy_report_unchanged_under_scipy(n, d, monkeypatch):
    ours = maximize_entropy_over_q(n, d, restarts=4, seed=1)
    monkeypatch.setattr("reflectron.repthy.minimize", _scipy_nelder_mead_rows)
    assert maximize_entropy_over_q(n, d, restarts=4, seed=1) == ours


def test_entropy_support_bound_any_q():
    for q in ({(2,): 1.0}, {(1, 1): 1.0}, {(2,): 0.5, (1, 1): 0.5}):
        probe = build_probe(2, 3, q)
        assert ensemble_entropy(2, 3, probe) <= 2 * np.log2(6) + 1e-9


# --- Lambert W and bounds ---------------------------------------------------


def test_lambert_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(euler_e) - 1.0) < 1e-12


def test_lambert_defining_equation():
    for x in (1e-8, 0.1, 1.0, 5.0, 1e3, 1e9):
        w = lambert_w0(x)
        assert abs(w * np.exp(w) - x) <= 1e-12 * (1 + abs(x))
    for x in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="domain is"):
            lambert_w0(x)


def test_fd_at_zero_epsilon():
    for n in (1, 5, 20):
        assert abs(lower_bound_fd(0.0, n, 2) - (log(comb(n + 2, 2)) - log(2))) < 1e-12


def test_n_of_eps_defining_relation():
    for d in (2, 3, 5):
        for eps in (1e-4, 1e-6, 1e-9):
            n = n_of_eps(eps, d)
            target = 1.0 / (2 * (d + 1) * np.sqrt(2 * eps))
            assert abs(n * log(n) - target) <= 1e-9 * target


def test_final_bound_evaluation():
    val = final_lower_bound(1e-6, 3)
    assert abs(val - 2 * log(1.0 / (8 * 64 * 1e-6))) < 1e-12


def test_final_bound_names_an_epsilon_whose_bound_underflows():
    with pytest.raises(ValueError, match=r"epsilon = 1e\+308 .* 1/\(8 \(d\^2-1\)\^2 epsilon\) underflows to 0"):
        final_lower_bound(1e308, 2)
    # a large epsilon whose 1/(8 (d^2-1)^2 epsilon) is still a float: the bound is vacuous, not an error
    assert final_lower_bound(1e306, 2) == log(1.0 / (8 * 9 * 1e306))
    assert final_lower_bound(1e300, 3) == 2 * log(1.0 / (8 * 64 * 1e300))


def test_entropy_target_values():
    assert abs(entropy_target(2, 2) - np.log2(6)) < 1e-15
    assert abs(entropy_target(2, 3) - 2 * np.log2(6)) < 1e-15


def test_fd_bounds_reject_d_whose_square_overflows_a_float():
    # (d^2 - 1)^2 is about 1e304 at d = 1e76 and 1e308 at d = 1e77, both floats; at d = 1e78 it is not
    assert isfinite(final_lower_bound(1e-6, 10**76)) and isfinite(n_of_eps(1e-6, 10**77))
    for d in (10**78, 10**80, 10**200):
        with pytest.raises(ValueError, match=r"\(d\^2 - 1\)\^2 overflows a float"):
            final_lower_bound(1e-6, d)
        with pytest.raises(ValueError, match=r"\(d\^2 - 1\)\^2 overflows a float"):
            n_of_eps(1e-6, d)
