import itertools
from math import comb, e as euler_e, log

import numpy as np
import pytest

from reflectron import (
    GTPattern,
    ProbeSpec,
    SpinLabel,
    build_probe_d2,
    cg_su2,
    commutant_basis,
    conjecture_system_d2,
    ensemble_entropy,
    final_lower_bound,
    haar_random_unitary,
    lambert_w0,
    lower_bound_fd,
    magic_sum_check,
    maximize_entropy_over_q,
    n_of_eps,
    solve_q_d2,
    twirl,
)
from reflectron.repthy import (
    _permutation_parity,
    _reflection_signs,
    ensemble_rank,
    ensemble_state,
    entropy_target,
    gt_patterns,
    lambert_sandwich_holds,
    partitions,
    spin_chain_blocks,
    support_bound,
    weyl_dim,
    young_symmetrizer_block,
)


# --- labels ---------------------------------------------------------------


def test_spin_label_validation():
    SpinLabel(3, 1)
    with pytest.raises(ValueError):
        SpinLabel(3, 2)
    with pytest.raises(ValueError):
        SpinLabel(1, 3)


def test_gt_pattern_interlacing():
    GTPattern(((1,), (2, 0)))
    with pytest.raises(ValueError):
        GTPattern(((3,), (2, 0)))


def test_gt_pattern_count_is_weyl_dimension():
    for lam, d in [((2, 0), 2), ((2, 0, 0), 3), ((2, 1, 0), 3), ((3, 1), 2)]:
        top = lam + (0,) * (d - len(lam))
        assert len(gt_patterns(top)) == weyl_dim(lam, d)


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


# --- commutant basis and twirl ---------------------------------------------


def test_commutant_n1_d2_operators():
    basis = commutant_basis(1, 2)
    dense = {tuple(p): basis.op_dense(i) for i, p in enumerate(basis.perms)}
    ident = dense[(0, 1)]
    swap_pt = dense[(1, 0)]
    assert np.abs(ident - np.eye(4)).max() == 0
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0
    assert np.abs(swap_pt - np.outer(bell, bell)).max() == 0  # 2 |Phi+><Phi+|


def test_commutant_gram_matches_dense_and_trace_pattern():
    basis = commutant_basis(1, 2)
    for i in range(2):
        for j in range(2):
            dense = np.trace(basis.op_dense(i).conj().T @ basis.op_dense(j)).real
            assert abs(dense - basis.gram[i, j]) < 1e-10
    idx_swap = basis.perms.index((1, 0))
    assert basis.gram[idx_swap, idx_swap] == 4
    assert basis.gram[basis.perms.index((0, 1)), idx_swap] == 2
    eig = np.linalg.eigvalsh(basis.gram)
    assert eig.min() > -1e-9


def test_commutant_gram_matches_dense_n2():
    rng = np.random.default_rng(0)
    basis = commutant_basis(2, 2)
    for _ in range(10):
        i, j = rng.integers(0, len(basis.perms), size=2)
        dense = np.trace(basis.op_dense(int(i)).conj().T @ basis.op_dense(int(j))).real
        assert abs(dense - basis.gram[int(i), int(j)]) < 1e-10


def test_commutant_ops_commute_with_haar_action():
    basis = commutant_basis(1, 3)
    for k in range(len(basis.perms)):
        eta = basis.op_dense(k)
        for seed in range(20):
            U = haar_random_unitary(3, seed).entries
            W = np.kron(U, U.conj())
            assert np.abs(W @ eta - eta @ W).max() < 1e-10


def test_twirl_projection_properties():
    rng = np.random.default_rng(1)
    basis = commutant_basis(2, 2)
    X = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    t1 = twirl(X, basis)
    t2 = twirl(t1, basis)
    assert np.abs(t1 - t2).max() < 1e-9
    assert abs(np.trace(t1) - np.trace(X)) < 1e-9
    # elements of the span are fixed
    span_elem = 0.3 * basis.op_dense(0) + 1.7j * basis.op_dense(5)
    assert np.abs(twirl(span_elem, basis) - span_elem).max() < 1e-10


def test_twirl_invariance_under_group_action():
    rng = np.random.default_rng(2)
    basis = commutant_basis(1, 2)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = twirl(X, basis)
    for seed in range(20):
        U = haar_random_unitary(2, seed).entries
        W = np.kron(U, U.conj())
        assert np.abs(W @ t @ W.conj().T - t).max() < 1e-9


def test_twirl_matches_monte_carlo_haar_average():
    rng = np.random.default_rng(3)
    for n, d in [(1, 2), (2, 2)]:
        dim = d ** (2 * n)
        X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        exact = twirl(X, commutant_basis(n, d))
        samples = 10_000
        acc = np.zeros_like(X)
        for s in range(samples):
            U = haar_random_unitary(d, rng).entries
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
    out = twirl(X, commutant_basis(1, 2))
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    P = np.outer(bell, bell)
    # analytic U x Ubar twirl lands in span{I, Phi+} with tr X = 1 and
    # Phi+ overlap 1/2: alpha I + beta P, 4 alpha + beta = 1, alpha + beta = 1/2
    alpha, beta = np.linalg.solve([[4, 1], [1, 1]], [1, 0.5])
    assert np.abs(out - (alpha * np.eye(4) + beta * P)).max() < 1e-10


# --- probes and entropies ---------------------------------------------------


def test_spin_chain_blocks_multiplicities():
    blocks = spin_chain_blocks(3)
    assert {tj: len(ch) for tj, ch in blocks.items()} == {3: 1, 1: 2}
    for tj, chains in blocks.items():
        for chain in chains:
            gram = chain @ chain.T
            assert np.abs(gram - np.eye(tj + 1)).max() < 1e-10


def test_reflection_diagonal_in_chain_basis():
    # R^{xn} conjugated into the block basis is diagonal with +-1 entries
    n = 3
    R = np.diag([1.0, -1.0])
    Rn = R
    for _ in range(n - 1):
        Rn = np.kron(Rn, R)
    blocks = spin_chain_blocks(n)
    for tj, chains in blocks.items():
        for chain in chains:
            B = chain.T  # columns are |j, m>
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


def test_entropy_n1_maximally_entangled():
    spec = ProbeSpec(n=1, d=2, q={1: 1.0})
    probe = build_probe_d2(1, spec)
    assert abs(ensemble_entropy(1, 2, probe) - np.log2(3)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ensemble_state_d2_matches_commutant_twirl(n):
    spec, _ = solve_q_d2(n)
    probe = build_probe_d2(n, spec)
    reflected = _reflection_signs(n, 2) * probe.amplitudes
    exact = twirl(np.outer(reflected, reflected.conj()), commutant_basis(n, 2))
    assert np.abs(ensemble_state(n, 2, probe) - exact).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_entropy_twirl_path_equals_formula_path(n):
    # n = 4, 5 lie beyond the commutant's (2n)! <= 720 reach
    spec, _ = solve_q_d2(n)
    probe = build_probe_d2(n, spec)
    entropy = ensemble_entropy(n, 2, probe)
    assert abs(entropy - np.log2(comb(n + 2, 2))) < 1e-10
    rank = ensemble_rank(n, 2, probe)
    assert rank == comb(n + 2, 2)
    assert rank <= support_bound(n, 2)


def test_young_blocks_d3():
    assert young_symmetrizer_block((2,), 3).shape == (9, 6)
    assert young_symmetrizer_block((1, 1), 3).shape == (9, 3)
    assert young_symmetrizer_block((2, 1), 3).shape == (27, 8)
    B = young_symmetrizer_block((2, 1), 3)
    assert np.abs(B.T @ B - np.eye(8)).max() < 1e-10


def young_block_reference(shape, d):
    """First-tableau Young block with each slot permutation read off a base-d digit map."""
    n = sum(shape)
    dim = d**n
    tableau, x = [], 0
    for r in shape:
        tableau.append(list(range(x, x + r)))
        x += r
    cols = [[row[c] for row in tableau if len(row) > c] for c in range(shape[0])]
    idx = np.arange(dim)
    digits = [(idx // d ** (n - 1 - s)) % d for s in range(n)]

    def perm_rows(pm):
        return sum(digits[s] * d ** (n - 1 - pm[s]) for s in range(n))

    def set_perms(sets):
        for prods in itertools.product(*[itertools.permutations(s) for s in sets]):
            pm = list(range(n))
            for group, perm in zip(sets, prods):
                for a, b in zip(group, perm):
                    pm[a] = b
            yield tuple(pm)

    row_sym = np.zeros((dim, dim))
    for pm in set_perms(tableau):
        row_sym[perm_rows(pm), idx] += 1.0
    col_anti = np.zeros((dim, dim))
    for pm in set_perms(cols):
        col_anti[perm_rows(pm), idx] += _permutation_parity(pm)
    u, svals, _ = np.linalg.svd(col_anti @ row_sym)
    return u[:, : int(np.sum(svals > 1e-9 * svals[0]))]


def test_young_blocks_equal_digit_map_construction():
    # every partition with d^n <= 81
    for d in range(2, 10):
        n = 1
        while d**n <= 81:
            for lam in partitions(n, d):
                assert np.array_equal(young_symmetrizer_block(lam, d), young_block_reference(lam, d))
            n += 1


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


def test_entropy_support_bound_any_q():
    for q in ({(2,): 1.0}, {(1, 1): 1.0}, {(2,): 0.5, (1, 1): 0.5}):
        from reflectron.repthy import build_probe

        probe = build_probe(2, 3, q)
        assert ensemble_entropy(2, 3, probe) <= 2 * np.log2(6) + 1e-9


# --- Lambert W and bounds ---------------------------------------------------


def test_lambert_fixed_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(euler_e) - 1.0) < 1e-12
    assert abs(lambert_w0(-1.0 / euler_e) + 1.0) < 1e-6


def test_lambert_defining_equation():
    for x in (1e-8, 0.1, 1.0, 5.0, 1e3, 1e9, -0.2, -0.35):
        w = lambert_w0(x)
        assert abs(w * np.exp(w) - x) <= 1e-12 * (1 + abs(x))
    with pytest.raises(ValueError):
        lambert_w0(-1.0)


def test_lambert_sandwich_bounds():
    for x in np.logspace(1, 12, 60):
        assert lambert_sandwich_holds(float(x))
    assert lambert_sandwich_holds(euler_e)


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


def test_entropy_target_values():
    assert abs(entropy_target(2, 2) - np.log2(6)) < 1e-15
    assert abs(entropy_target(2, 3) - 2 * np.log2(6)) < 1e-15
