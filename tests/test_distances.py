from math import pi

import numpy as np
import pytest

from reflectron.tensor_core import haar_random_state
from reflectron.cyclic import lmr_coeffs, optimal_reflection_coeffs, r_theta_coeffs
from reflectron.distances import (
    closed_form_rotation_distance,
    diamond_covariant,
    mr_diamond_distance,
    sampled_diamond_lower_bound,
    trace_norm,
)
import reflectron.cli as cli
import reflectron.distances as distances
from reflectron.channels import effective_channel, make_rotation_channel, rotation_unitary
from reflectron.config import ConsistencyError
from channel_oracle import diamond_unitary_channels, equal_angle_distance
from mr_oracle import MeasureReflectChannel, dense_diamond_covariant
from probe_oracle import orthonormal_frame, phi_p_rows


def test_trace_norm_basics():
    assert abs(trace_norm(np.eye(5)) - 5.0) < 1e-12
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-12


def test_phi_p_normalized():
    psi = haar_random_state(4, 0)
    ps = np.array([0.0, 0.3, 1.0])
    rows = phi_p_rows(psi, ps)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    # the system-0 block is sqrt(p) psi
    assert np.abs(rows[:, :4] - np.sqrt(ps)[:, None] * psi.amplitudes).max() < 1e-15


def test_frame_completion_orthonormal():
    for d, seed in ((2, 0), (3, 1), (5, 2)):
        psi = haar_random_state(d, seed)
        frame = orthonormal_frame(psi.amplitudes)
        gram = frame.conj().T @ frame
        assert np.abs(gram - np.eye(d - 1)).max() < 1e-12
        assert np.abs(frame.conj().T @ psi.amplitudes).max() < 1e-12


def _dense_against_closed_form(e, alpha, p, psi):
    """The dense phi_p distance at p, checked against the phi_p closed form."""
    dense = distances._dense_distance_at_p(e, alpha, p, psi)
    closed = _phi_p_distance(*distances._element_invariants(e, alpha), p)
    assert abs(dense - closed) <= distances.CLOSED_FORM_TOL, (dense, closed)
    return dense


def test_distance_at_p_trivials():
    ident = r_theta_coeffs(2, 0.0)
    assert _dense_against_closed_form(ident, 0.0, 1.0, distances._default_psi(2)) < 1e-12
    # p = 0 gives 2(1 - |c0|^2)
    e = r_theta_coeffs(3, 1.1)
    c0 = e.coeffs[0]
    dense = _dense_against_closed_form(e, pi, 0.0, distances._default_psi(2))
    assert abs(dense - 2 * (1 - abs(c0) ** 2)) < 1e-12


def test_distance_at_p_pi_algorithm_value():
    # n=3, theta=pi, alpha=pi, p=0: 2(1 - (1/2)^2) = 3/2
    e = r_theta_coeffs(3, pi)
    assert abs(_dense_against_closed_form(e, pi, 0.0, distances._default_psi(2)) - 1.5) < 1e-12


def test_distance_at_p_dense_check_runs_for_lmr_elements():
    # the phi_p closed form holds to the dense oracle for the non-unitary
    # channel-normalized family as well
    rng = np.random.default_rng(1)
    e = lmr_coeffs(rng.uniform(0, pi, size=4))
    for p in (0.0, 0.4, 0.9):
        _dense_against_closed_form(e, 1.3, p, haar_random_state(2, rng))


def test_distance_at_p_dense_check_d3():
    e = r_theta_coeffs(3, 2.2)
    psi = haar_random_state(3, 5)
    _dense_against_closed_form(e, 0.8, 0.35, psi)


@pytest.mark.parametrize("n", range(1, 7))
def test_diamond_optimal_reflection(n):
    value, _ = diamond_covariant(optimal_reflection_coeffs(n), pi)
    assert abs(value - 8 * (n + 2) / (8 + 4 * n + n * n)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_diamond_pi_family(n):
    value, p_star = diamond_covariant(r_theta_coeffs(n, pi), pi)
    assert abs(value - 8 * n / (n + 1) ** 2) < 1e-9
    assert p_star == 0.0


def test_diamond_lmr_equal_angles():
    value, _ = diamond_covariant(lmr_coeffs(np.full(4, pi / 4)), pi)
    assert abs(value - 2 * (1 - np.cos(pi / 4) ** 8)) < 1e-9
    assert abs(value - 1.875) < 1e-9


def test_closed_form_rotation_matches_maximization():
    rng = np.random.default_rng(2)
    cases = []
    for _ in range(25):
        n = int(rng.integers(1, 9))
        theta = rng.uniform(0, pi)
        alpha = rng.uniform(0, pi)
        cases.append((r_theta_coeffs(n, theta), alpha))
    # at alpha = 5e-324 the gap is one denormal, where 2 gap + |c_0|^2 - 1
    # rounded to 0 and the division once raised ZeroDivisionError; the
    # denominator 2 gap - (1 - |c_0|^2) is at least the gap
    for alpha in (5e-324, 1e-300, 1e-17):
        cases += [(lmr_coeffs(np.full(3, alpha / 3)), alpha), (r_theta_coeffs(3, alpha), alpha)]
    for e, alpha in cases:
        value, _ = diamond_covariant(e, alpha)
        assert abs(value - closed_form_rotation_distance(e, alpha)) < 1e-9


def test_distance_rejects_non_channel_elements():
    from reflectron.config import NonChannelElementError
    from reflectron.cyclic import CyclicElement

    bad = CyclicElement([0.5, 0.5])
    with pytest.raises(NonChannelElementError):
        closed_form_rotation_distance(bad, pi)
    with pytest.raises(NonChannelElementError):
        diamond_covariant(bad, pi)


def test_closed_form_trivials():
    assert closed_form_rotation_distance(r_theta_coeffs(3, 0.0), 0.0) < 1e-12
    assert abs(closed_form_rotation_distance(r_theta_coeffs(4, pi / 2), pi / 2) - 0.64) < 1e-12
    with pytest.raises(ValueError):
        closed_form_rotation_distance(r_theta_coeffs(2, 1.0), -0.5)


@pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_rotation_distance_keeps_its_digits_at_a_small_gap(alpha):
    # domain B with a gap of order alpha: the exact value of the formula on
    # the same float invariants, against the function's rounding
    from fractions import Fraction

    e = r_theta_coeffs(3, alpha / 2)
    A, gap = distances._element_invariants(e, alpha)
    assert gap > A
    exact = 2 * Fraction(gap) ** 2 / (2 * Fraction(gap) - Fraction(A))
    got = closed_form_rotation_distance(e, alpha)
    assert abs(Fraction(got) - exact) / exact <= 2e-16


def linear_bound(n, alpha):
    return 3.0 * alpha / n


def test_equal_angle_cases_and_linear_bound():
    for n in (1, 2, 4, 9, 16, 33, 64):
        assert abs(equal_angle_distance(n, pi) - 8 * n / (n + 1) ** 2) < 1e-12
        for alpha in np.linspace(0.0, pi, 40):
            val = equal_angle_distance(n, float(alpha))
            assert val <= linear_bound(n, float(alpha)) + 1e-12
            e = r_theta_coeffs(n, float(alpha))
            assert abs(val - closed_form_rotation_distance(e, float(alpha))) < 1e-10
    assert abs(equal_angle_distance(4, pi / 2) - 0.64) < 1e-12


def test_domain_boundary_continuity():
    # scan the theta family across the branch switch; both formulas agree there
    alpha = pi
    for n in (2, 3, 5):
        thetas = np.linspace(0.01, pi, 4001)
        prev_branch = None
        for theta in thetas:
            e = r_theta_coeffs(n, float(theta))
            c0 = e.coeffs[0]
            ct0 = np.sum(e.coeffs)
            A = 1 - abs(c0) ** 2
            g = abs(ct0 * np.conj(c0) - np.exp(1j * alpha))
            branch = g > A
            if prev_branch is not None and branch != prev_branch:
                value_a = 2 * A
                value_b = 2 * g * g / (2 * g + abs(c0) ** 2 - 1)
                assert abs(value_a - value_b) < 1e-3 * max(value_a, 1.0)
            prev_branch = branch
    # exact equality on the boundary itself: 1 - |c0|^2 = g forces both to 2A
    e = r_theta_coeffs(1, pi)
    c0 = e.coeffs[0]
    ct0 = np.sum(e.coeffs)
    g = abs(ct0 * np.conj(c0) + 1)
    A = 1 - abs(c0) ** 2
    assert abs(g - A) < 1e-12
    assert abs(2 * g * g / (2 * g + abs(c0) ** 2 - 1) - 2 * A) < 1e-12


def test_random_unitary_elements_never_beat_optimal():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        best = 8 * (n + 2) / (8 + 4 * n + n * n)
        phases = np.exp(1j * rng.uniform(0, 2 * pi, size=(10_000, n + 1)))
        # vectorized closed form over the sample of unitary elements
        coeffs = np.fft.fft(phases, axis=1) / (n + 1)
        c0 = coeffs[:, 0]
        ct0 = phases[:, 0]
        g = np.abs(ct0 * np.conj(c0) + 1.0)
        A = 1.0 - np.abs(c0) ** 2
        dom_b = g > A
        values = np.where(dom_b, 2 * g * g / (2 * g + np.abs(c0) ** 2 - 1), 2 * A)
        assert values.min() >= best - 1e-9


def test_pi_gap_is_cubic():
    ns = np.arange(8, 257)
    gaps = 8 * ns / (ns + 1) ** 2 - 8 * (ns + 2) / (8 + 4 * ns + ns**2)
    assert (gaps > 0).all()
    slope = np.polyfit(np.log(ns), np.log(gaps), 1)[0]
    assert abs(slope + 3.0) < 0.2


def test_diamond_unitary_trivial_and_arc_cases():
    assert diamond_unitary_channels(np.eye(3), np.eye(3)) < 1e-12
    assert abs(diamond_unitary_channels(np.eye(2), np.diag([1.0, -1.0])) - 2.0) < 1e-12
    delta = 0.23
    val = diamond_unitary_channels(np.eye(2), np.diag([1.0, np.exp(1j * delta)]))
    assert abs(val - 2 * np.sin(delta / 2)) < 1e-12
    with pytest.raises(ValueError):
        diamond_unitary_channels(np.eye(2), np.diag([1.0, 2.0]))


def test_diamond_unitary_cross_checked_by_sampling():
    delta = 0.9
    U = np.eye(2)
    V = np.diag([1.0, np.exp(1j * delta)])
    formula = diamond_unitary_channels(U, V)
    chan_u = lambda X: X
    chan_v = lambda X: V @ X @ V.conj().T
    sampled = sampled_diamond_lower_bound(chan_u, chan_v, 2, 800, seed=0)
    assert sampled <= formula + 1e-9
    assert sampled >= 0.95 * formula


def test_sampled_bound_identical_channels():
    chan = lambda X: X
    assert sampled_diamond_lower_bound(chan, chan, 2, 50, seed=1) < 1e-12


def test_sampled_bound_converges_on_covariant_pairs():
    rng = np.random.default_rng(4)
    for n in (1, 2, 4):
        psi = haar_random_state(2, rng)
        e = r_theta_coeffs(n, 2.0)
        exact = closed_form_rotation_distance(e, pi)
        rot = make_rotation_channel(psi, pi)
        chan = effective_channel(e, psi)
        sampled = sampled_diamond_lower_bound(rot, chan, 2, 2000, seed=7)
        assert sampled <= exact + 1e-9
        assert abs(sampled - exact) <= 0.05 * exact


def test_no_go_witness():
    # overlapping axes: k beyond pi/(4 phi) makes the k-fold reflections
    # perfectly distinguishable while the program states never are
    rng = np.random.default_rng(5)
    psi1 = haar_random_state(2, rng).amplitudes
    overlap_target = 0.95
    perp = np.array([-psi1[1].conj(), psi1[0].conj()])
    psi2 = overlap_target * psi1 + np.sqrt(1 - overlap_target**2) * perp
    phi = np.arccos(abs(np.vdot(psi1, psi2)))
    k = int(np.floor(pi / (4 * phi))) + 1
    R1 = rotation_unitary(psi1, pi)
    R2 = rotation_unitary(psi2, pi)
    Rk1, Rk2 = R1, R2
    for _ in range(k - 1):
        Rk1 = np.kron(Rk1, R1)
        Rk2 = np.kron(Rk2, R2)
    assert abs(diamond_unitary_channels(Rk1, Rk2) - 2.0) < 1e-12
    for n in range(1, 7):
        tn = 2 * np.sqrt(1 - abs(np.vdot(psi1, psi2)) ** (2 * n))
        assert tn < 2.0 - 1e-3


def test_reflex_angle_symmetry():
    # alpha in (pi, 2pi) reduces to 2pi - alpha with the conjugate algorithm;
    # tested on the raw p-maximized expression, not assumed by the API
    rng = np.random.default_rng(8)
    ps = np.linspace(0, 1, 2001)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        theta = rng.uniform(0, pi)
        alpha = rng.uniform(pi, 2 * pi)
        def pmax(element, a):
            c0 = element.coeffs[0]
            ct0 = np.sum(element.coeffs)
            g = abs(ct0 * np.conj(c0) - np.exp(1j * a))
            base = (1 - ps) * (1 - abs(c0) ** 2)
            return np.max(base + np.sqrt(base**2 + 4 * ps * (1 - ps) * g * g))
        lhs = pmax(r_theta_coeffs(n, theta), alpha)
        rhs = pmax(r_theta_coeffs(n, -theta), 2 * pi - alpha)
        assert abs(lhs - rhs) < 1e-12


def test_mr_diamond_distance_values():
    for n in (1, 2, 5, 10):
        value, _ = mr_diamond_distance(n, 2)
        assert abs(value - 8 * (n + 1) / ((n + 2) * (n + 3))) < 1e-9
    value, _ = mr_diamond_distance(5, 3)
    bound = 8 * 6 * 2 / (9 * 8)
    assert value >= bound - 1e-9


@pytest.mark.parametrize("n", [10**6, 10**12])
def test_mr_at_p1_keeps_its_digits_at_large_n(n):
    # at p = 1 the distance is 8(n+1)(d-1)/((n+d+1)(n+d)); differences of
    # numbers near 1 would lose ~1e-17 n of it
    from fractions import Fraction

    d = 3
    exact = Fraction(8 * (n + 1) * (d - 1), (n + d + 1) * (n + d))
    got = distances._mr_distance_at_p(n, d, 1.0)
    assert abs(Fraction(got) - exact) / exact < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5, 20, 1000])
@pytest.mark.parametrize("n", [1, 3, 64, 512])
def test_mr_float_path_equals_array_path_bit_for_bit(n, d):
    # the one path takes floats; an array's float64 elements, as the oracles
    # pass them, give the same bits
    ps = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-300, 0.5 + 1e-13, 1.0 - 2**-53]])
    for p in ps:
        value = distances._mr_distance_at_p(n, d, float(p))
        assert type(value) is float
        assert value == distances._mr_distance_at_p(n, d, p), p


def test_mr_diamond_distance_evaluates_a_few_float_points(monkeypatch):
    real = distances._mr_distance_at_p
    calls = []

    def spy(n, d, p):
        calls.append(p)
        return real(n, d, p)

    monkeypatch.setattr(distances, "_mr_distance_at_p", spy)
    for n, d in [(1, 2), (2, 2), (64, 1000), (512, 3), (1000, 1001), (1000, 1002), (3, 10**5)]:
        calls.clear()
        value, p = mr_diamond_distance(n, d)
        assert 1 <= len(calls) <= 3
        assert all(type(q) is float for q in calls)
        assert value == real(n, d, p)
        assert p == 1.0 if d <= n + 1 else 0.0 < p < 1.0


def _exact_sqrt(x):
    """The square root of a Fraction that is the square of a rational."""
    from math import isqrt

    num, den = isqrt(x.numerator), isqrt(x.denominator)
    assert num * num == x.numerator and den * den == x.denominator, x
    return type(x)(num, den)


def test_mr_argmax_conditions_hold_in_exact_rationals():
    # f = l + max(|x + y|, sqrt(Q)) on the library's own terms, in exact
    # rationals: x = a p, y = b (1 - p), l = l0 + l1 p, Q = q2 p^2 + q1 p + q0
    from fractions import Fraction

    for n in range(1, 41):
        for d in range(2, n + 13):
            t1_minus_t2, one_minus_off_perp, z, spread, spread_perp = distances._mr_terms(
                Fraction(n), Fraction(d)
            )
            assert all(type(t) is Fraction for t in (t1_minus_t2, one_minus_off_perp, z, spread, spread_perp))
            a = 4 * t1_minus_t2
            b = ((d - 1) * one_minus_off_perp - spread_perp) / (d - 1)
            l0 = spread + Fraction(d * (d - 2), d - 1) * spread_perp
            l1 = (d - 2) * spread - Fraction(d * (d - 2), d - 1) * spread_perp
            q2, q1, q0 = (a + b) ** 2 - 4 * z * z, 4 * z * z - 2 * b * (a + b), b * b
            convexity = 4 * q2 * q0 - q1 * q1  # the sign of sqrt(Q)'' on [0, 1]
            root_q0, root_q_at_1 = _exact_sqrt(q0), _exact_sqrt(q2 + q1 + q0)
            # sqrt(Q) = |x - y| = |x + y| at both ends
            assert root_q0 == abs(b) and root_q_at_1 == abs(a)
            f0, f1 = l0 + root_q0, l0 + l1 + root_q_at_1
            slope0 = l1 + q1 / (2 * root_q0)
            slope1 = l1 + (2 * q2 + q1) / (2 * root_q_at_1)
            assert f0 <= f1, (n, d)
            # the factored forms the docstring states
            assert convexity == -256 * d * d * (d - 2) ** 2 * (d + n - 1) ** 2 / Fraction(
                (d + n) ** 4 * (d + n + 1) ** 2
            )
            assert slope1 == -2 * (d - 2) * (d - n - 1) * (d * d + 3 * d * n + d - 2 * n - 2) / Fraction(
                (d - 1) * (n + 1) * (d + n) * (d + n + 1)
            )
            value, p = mr_diamond_distance(n, d)
            if d <= n + 1:
                assert convexity >= 0 or slope1 >= 0, (n, d)
                # the crossover; at d = 2 the distance is flat in p
                assert (slope1 == 0) == (d in (2, n + 1)), (n, d)
                assert p == 1.0
                assert abs(Fraction(value) - f1) <= 4e-16 * f1
                continue
            assert convexity < 0 and slope0 > 0 > slope1, (n, d)
            # the root of (2 q2 p + q1)^2 = 4 l1^2 Q with 2 q2 p + q1 of the
            # sign opposite to l1 > 0
            u = -l1 * _exact_sqrt((q1 * q1 - 4 * q2 * q0) / (l1 * l1 - q2))
            root = (u - q1) / (2 * q2)
            assert 0 < root < 1 and l1 > 0
            assert p == float(root), (n, d)
            peak = float(l0 + l1 * root) + np.sqrt(float(q2 * root * root + q1 * root + q0))
            assert abs(value - peak) <= 4e-16 * peak


# -- reference-extended evaluation through the Choi tensor --------------------


def _apply_blockwise(channel, d, rho):
    """(I_R x channel)(rho), one channel call per d x d block."""
    out = np.zeros_like(rho)
    for i in range(d):
        for j in range(d):
            blk = rho[i * d : (i + 1) * d, j * d : (j + 1) * d]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = np.asarray(channel(blk))
    return out


def _loop_trace_distance(channel_a, channel_b, d, v):
    rho = np.outer(v, v.conj())
    diff = _apply_blockwise(channel_a, d, rho) - _apply_blockwise(channel_b, d, rho)
    return float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _phi_p_reference(psi, p):
    v = psi.amplitudes
    d = v.size
    frame = orthonormal_frame(v)
    blocks = [np.sqrt(p) * v] + [np.sqrt((1 - p) / (d - 1)) * frame[:, i] for i in range(d - 1)]
    return np.concatenate(blocks)


def _scalar_dense_diamond(channel_a, channel_b, psi, num_grid=201):
    from reflectron.optima import _golden_max

    d = psi.dim
    at_p = lambda p: _loop_trace_distance(channel_a, channel_b, d, _phi_p_reference(psi, p))
    grid = np.linspace(0.0, 1.0, num_grid)
    k = int(np.argmax([at_p(p) for p in grid]))
    p_best, value = _golden_max(at_p, grid[max(k - 1, 0)], grid[min(k + 1, num_grid - 1)])
    return value, p_best


def _channels(d, seed):
    from reflectron.universal import assemble_universal_channel
    from reflectron.tensor_core import haar_random_unitary

    psi = haar_random_state(d, seed)
    composed = assemble_universal_channel(haar_random_unitary(d, seed), 0.2)
    return {
        "rotation": make_rotation_channel(psi, 1.3),
        "effective": effective_channel(r_theta_coeffs(3, 2.1), psi),
        "measure-reflect": MeasureReflectChannel(psi, 5),
        "universal": composed,
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_choi_contraction_equals_blockwise(d):
    from reflectron.distances import _choi_difference, _reference_extended

    rng = np.random.default_rng(d)
    general = rng.normal(size=(3, d * d, d * d)) + 1j * rng.normal(size=(3, d * d, d * d))
    v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    rhos = np.concatenate([general, np.outer(v, v.conj())[None]])  # non-Hermitian, then pure
    zero = lambda X: np.zeros_like(X)
    chans = _channels(d, seed=d + 10)
    for name, chan in chans.items():
        K = _choi_difference(chan, zero, d)
        for rho in rhos:
            want = _apply_blockwise(chan, d, rho)
            assert np.abs(_reference_extended(K, rho) - want).max() < 1e-13, name
        stacked = [_apply_blockwise(chan, d, rho) for rho in rhos]
        assert np.abs(_reference_extended(K, rhos) - stacked).max() < 1e-13
    rot, eff = chans["rotation"], chans["effective"]
    K = _choi_difference(rot, eff, d)
    want = _apply_blockwise(rot, d, rhos[0]) - _apply_blockwise(eff, d, rhos[0])
    assert np.abs(_reference_extended(K, rhos[0]) - want).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_phi_p_grid_equals_scalar_loop(d):
    from reflectron.distances import _choi_difference, _probe_distances

    chans = _channels(d, seed=d)
    psi = haar_random_state(d, d)
    grid = np.linspace(0.0, 1.0, 201)
    probes = phi_p_rows(psi, grid)
    assert np.abs(probes - [_phi_p_reference(psi, p) for p in grid]).max() < 1e-15
    for a, b in (("rotation", "effective"), ("rotation", "measure-reflect")):
        got = _probe_distances(_choi_difference(chans[a], chans[b], d), probes)
        want = [_loop_trace_distance(chans[a], chans[b], d, v) for v in probes]
        assert np.abs(got - want).max() < 1e-13


def _sampled_loop(channel_a, channel_b, d, trials, seed):
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        v = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
        v /= np.linalg.norm(v)
        best = max(best, _loop_trace_distance(channel_a, channel_b, d, v))
    return best


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sampled_bound_equals_loop_reference(d):
    from reflectron.channels import unitary_channel
    from reflectron.universal import assemble_universal_channel
    from reflectron.tensor_core import haar_random_unitary

    U = haar_random_unitary(d, 3)
    composed = assemble_universal_channel(U, 0.2)
    target = unitary_channel(U)
    for trials, seed in ((20, 1003), (50, 7)):
        got = sampled_diamond_lower_bound(target, composed, d, trials, seed)
        assert abs(got - _sampled_loop(target, composed, d, trials, seed)) < 1e-13
    assert sampled_diamond_lower_bound(target, composed, d, 0, 1) == 0.0


def test_probe_chunks_cover_every_probe(monkeypatch):
    import reflectron.distances as D

    chans = _channels(3, seed=1)
    a, b = chans["rotation"], chans["measure-reflect"]
    trials = 2 * D._PROBE_CHUNK + 5
    got = sampled_diamond_lower_bound(a, b, 3, trials, seed=2)
    assert abs(got - _sampled_loop(a, b, 3, trials, seed=2)) < 1e-13
    K = D._choi_difference(a, b, 3)
    probes = phi_p_rows(haar_random_state(3, 1), np.linspace(0.0, 1.0, 201))
    whole = D._probe_distances(K, probes)
    monkeypatch.setattr(D, "_PROBE_CHUNK", 16)
    assert np.abs(D._probe_distances(K, probes) - whole).max() < 1e-13


def test_probe_chunks_fit_the_budget(monkeypatch):
    # d = 3: each d^2 x d^2 density is 81 entries, so a 1000-entry budget takes 12 per chunk
    import reflectron.distances as D

    chans = _channels(3, seed=1)
    K = D._choi_difference(chans["rotation"], chans["measure-reflect"], 3)
    probes = phi_p_rows(haar_random_state(3, 1), np.linspace(0.0, 1.0, 201))
    whole = D._probe_distances(K, probes)
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(a.size) or eigvalsh(a))
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    assert np.array_equal(D._probe_distances(K, probes), whole)
    assert max(sizes) == 12 * 81 and sum(sizes) == 201 * 81


@pytest.mark.parametrize("n", [1, 4, 64, 512])
def test_mr_distance_is_flat_in_p_at_d2(n):
    from reflectron.distances import _choi_difference, _probe_distances

    psi = haar_random_state(2, n)
    K = _choi_difference(make_rotation_channel(psi, pi), MeasureReflectChannel(psi, n), 2)
    vals = _probe_distances(K, phi_p_rows(psi, np.linspace(0.0, 1.0, 201)))
    assert np.abs(vals - 8 * (n + 1) / ((n + 2) * (n + 3))).max() < 1e-12


@pytest.mark.parametrize("n, seed", [(2, 0), (6, 3), (64, 11)])
def test_mr_d3_matches_scalar_path(n, seed):
    psi = haar_random_state(3, seed)
    value, p_best = mr_diamond_distance(n, 3)
    ref_value, ref_p = _scalar_dense_diamond(
        make_rotation_channel(psi, pi), MeasureReflectChannel(psi, n), psi
    )
    assert abs(value - ref_value) < 1e-12
    assert abs(p_best - ref_p) < 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 512])
def test_mr_sector_formula_equals_dense_oracle(n, d):
    from reflectron.distances import _choi_difference, _probe_distances

    ps = np.array([0.0, 0.13, 0.5, 0.91, 1.0])
    got = np.array([distances._mr_distance_at_p(n, d, float(p)) for p in ps])
    value, p_best = mr_diamond_distance(n, d)
    for seed in (1, 2, 3):
        psi = haar_random_state(d, 100 * d + seed)
        rot, mr = make_rotation_channel(psi, pi), MeasureReflectChannel(psi, n)
        want = _probe_distances(_choi_difference(rot, mr, d), phi_p_rows(psi, ps))
        assert np.abs(got - want).max() < 1e-12
        assert abs(value - dense_diamond_covariant(rot, mr, psi)[0]) < 1e-12
    if d == 2:
        assert np.abs(got - 8 * (n + 1) / ((n + 2) * (n + 3))).max() < 1e-12


def _scaled(factory, scale):
    """factory with every channel it returns multiplied by scale."""

    def make(*args):
        channel = factory(*args)
        return lambda X: scale * np.asarray(channel(X))

    return make


@pytest.mark.parametrize("name", ["effective_channel", "make_rotation_channel"])
def test_dense_oracle_catches_perturbed_channel(name, monkeypatch, capsys):
    monkeypatch.setattr(distances, name, _scaled(getattr(distances, name), 1.0 + 1e-6))
    e = optimal_reflection_coeffs(3)
    with pytest.raises(ConsistencyError, match="phi_p distance mismatch"):
        diamond_covariant(e, pi)
    with pytest.raises(ConsistencyError, match="phi_p distance mismatch"):
        diamond_covariant(e, 1.1)
    assert cli.main(["distance", "--n", "3", "--alpha", "pi"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: consistency: phi_p distance mismatch")


def test_diamond_covariant_runs_every_check_on_every_call(monkeypatch):
    counts = {"_element_invariants": 0, "_dense_distance_at_p": 0}
    for name in counts:
        original = getattr(distances, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(distances, name, counted)
    e = lmr_coeffs(np.full(5, 0.4))
    results = {diamond_covariant(e, 2.0) for _ in range(3)}
    assert len(results) == 1
    assert counts == {"_element_invariants": 3, "_dense_distance_at_p": 3}


def test_default_probe_is_built_once_and_read_only():
    psi = distances._default_psi(2)
    assert distances._default_psi(2) is psi
    assert np.array_equal(psi.amplitudes, haar_random_state(2, 2024).amplitudes)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    with pytest.raises(ValueError):
        psi.amplitudes *= 2.0


def test_sampled_bound_rejects_negative_trials():
    chan = make_rotation_channel(haar_random_state(2, 0), 1.0)
    with pytest.raises(ValueError, match="need trials >= 0"):
        sampled_diamond_lower_bound(chan, chan, 2, -1)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", ["effective_channel", "make_rotation_channel"])
def test_dense_oracle_catches_perturbed_channel_on_other_states(name, seed, monkeypatch):
    psi = haar_random_state(3, seed)
    e = optimal_reflection_coeffs(3)
    diamond_covariant(e, pi, psi=psi)
    monkeypatch.setattr(distances, name, _scaled(getattr(distances, name), 1.0 + 1e-6))
    with pytest.raises(ConsistencyError, match="phi_p distance mismatch"):
        diamond_covariant(e, pi, psi=psi)
    with pytest.raises(ConsistencyError, match="phi_p distance mismatch"):
        diamond_covariant(e, 1.1, psi=psi)


@pytest.mark.parametrize(
    "coeffs",
    [[0.5, 0.5], [0.6, -0.8]],
    ids=["ct0-unit-norm-off", "norm-unit-ct0-off"],
)
def test_every_entry_point_rejects_planted_non_channel_element(coeffs):
    from reflectron.channels import dense_reflection_channel
    from reflectron.config import NonChannelElementError
    from reflectron.cyclic import CyclicElement
    from reflectron.optima import domain_classify

    bad = CyclicElement(coeffs)
    c0, ct0, A = bad.invariants
    # exactly one of the two channel conditions fails
    assert (abs(abs(ct0) - 1.0) < 1e-12) != (abs(abs(c0) ** 2 + A - 1.0) < 1e-12)
    psi = haar_random_state(2, 7)
    calls = [
        lambda: diamond_covariant(bad, pi),
        lambda: diamond_covariant(bad, pi, psi=psi),
        lambda: distances._dense_distance_at_p(bad, pi, 0.5, psi),
        lambda: closed_form_rotation_distance(bad, pi),
        lambda: domain_classify(bad, pi),
        lambda: effective_channel(bad, psi),
        lambda: dense_reflection_channel(bad, psi, np.eye(2)),
    ]
    for call in calls:
        with pytest.raises(NonChannelElementError):
            call()


def test_queries_read_the_stored_sums_not_the_coefficients():
    from reflectron.cyclic import CyclicElement
    from reflectron.optima import domain_classify

    class Counted(np.ndarray):
        """Counts sums over the coefficient vector or its tail, by method or by np.vdot."""

        passes = 0

        def sum(self, *args, **kwargs):
            Counted.passes += self.size >= 8
            return super().sum(*args, **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            if func is np.vdot:
                Counted.passes += self.size >= 8
            return super().__array_function__(func, types, args, kwargs)

    c = optimal_reflection_coeffs(8).coeffs
    e = CyclicElement(c.view(Counted))
    # construction reads ct_0 and A once: the sum of the vector and of its tail
    assert type(e.coeffs) is Counted and Counted.passes == 2
    psi = haar_random_state(3, 1)
    value = diamond_covariant(e, pi)
    closed_form_rotation_distance(e, pi)
    domain_classify(e, pi)
    effective_channel(e, psi)(np.eye(3))
    assert Counted.passes == 2
    assert value == diamond_covariant(CyclicElement(c), pi)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_block_stack_oracle_equals_choi_route(d):
    from reflectron.distances import _choi_difference, _probe_distances

    elements = {
        "optimal": (optimal_reflection_coeffs(5), pi),
        "r_theta": (r_theta_coeffs(4, 2.2), 1.3),
        "lmr": (lmr_coeffs(np.full(6, 0.3)), 1.8),
    }
    for psi in (distances._default_psi(d), haar_random_state(d, 40 + d)):
        for name, (e, alpha) in elements.items():
            _, p_star = diamond_covariant(e, alpha, psi=psi)
            K = _choi_difference(make_rotation_channel(psi, alpha), effective_channel(e, psi), d)
            for p in (0.0, p_star, 0.5, 1.0):
                choi = _probe_distances(K, phi_p_rows(psi, [p]))[0]
                got = distances._dense_distance_at_p(e, alpha, p, psi)
                assert abs(got - choi) < 1e-13, (name, p)


def test_block_stack_oracle_checks_the_budget_first(monkeypatch):
    # d = 6: the (d, d, d, d) block stack has 1296 entries, over a 1000-entry budget
    from reflectron.config import DimensionBudgetError

    built = []
    for name in ("make_rotation_channel", "effective_channel"):
        monkeypatch.setattr(distances, name, lambda *args, _name=name: built.append(_name))
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    with pytest.raises(DimensionBudgetError, match="phi_p block stack of dimension 36x36"):
        distances._dense_distance_at_p(r_theta_coeffs(2, 1.0), 1.0, 0.5, haar_random_state(6, 0))
    assert built == []


def _oracle_block_stack(psi, p, monkeypatch):
    """The (d, d, d, d) block stack the dense oracle hands the rotation channel."""
    seen = []
    make = distances.make_rotation_channel

    def recording(*args):
        channel = make(*args)
        return lambda X: seen.append(X.copy()) or channel(X)

    with monkeypatch.context() as m:
        m.setattr(distances, "make_rotation_channel", recording)
        distances._dense_distance_at_p(r_theta_coeffs(3, 1.0), 1.0, p, psi)
    (blocks,) = seen
    return blocks


def _block_stack(M):
    """Blocks |m_i><m_j| of the probe whose d x d matrix has rows m_i."""
    return M[:, None, :, None] * M.conj()[None, :, None, :]


def _rank_one_probe(v, p, c):
    return c * np.eye(v.size) + (np.sqrt(p) - c) * np.outer(v.conj(), v)


def _schmidt_data_error(blocks, v, p):
    """Largest deviation of a probe's marginals from phi_p's: reference
    eigenvalues p once and (1-p)/(d-1) d - 1 times, system marginal
    p |v><v| + (1-p)/(d-1) (I - |v><v|)."""
    d = v.size
    s = (1.0 - p) / (d - 1)
    reference = np.einsum("ijaa->ij", blocks)
    system = np.einsum("iiab->ab", blocks)
    P = np.outer(v, v.conj())
    spectrum = np.linalg.eigvalsh(reference)
    want = np.sort([p] + [s] * (d - 1))
    return max(np.abs(spectrum - want).max(), np.abs(system - (p * P + s * (np.eye(d) - P))).max())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_rank_one_probe_has_the_schmidt_data_of_phi_p(d, monkeypatch):
    for psi in (distances._default_psi(d), haar_random_state(d, 60 + d)):
        v = psi.amplitudes
        for p in (0.0, 0.13, 0.5, 0.91, 1.0):
            blocks = _oracle_block_stack(psi, p, monkeypatch)
            assert _schmidt_data_error(blocks, v, p) < 1e-14, p
            # the frame-built phi_p has the same data, in another reference basis
            frame_built = _block_stack(phi_p_rows(psi, [p]).reshape(d, d))
            assert _schmidt_data_error(frame_built, v, p) < 1e-14, p


@pytest.mark.parametrize("d", [2, 3, 6])
def test_rank_one_probe_with_a_wrong_coefficient_fails_the_schmidt_check(d):
    v = haar_random_state(d, 70 + d).amplitudes
    for p in (0.0, 0.13, 0.5, 0.91):
        right = _block_stack(_rank_one_probe(v, p, np.sqrt((1.0 - p) / (d - 1))))
        wrong = _block_stack(_rank_one_probe(v, p, np.sqrt((1.0 - p) / d)))
        assert _schmidt_data_error(right, v, p) < 1e-14
        assert _schmidt_data_error(wrong, v, p) > 1e-3, p


# -- the argmax of the phi_p family ---------------------------------------------

_P_GRID = np.linspace(0.0, 1.0, 1001)


def _phi_p_distance(A, gap, p):
    """The phi_p trace distance (1-p)A + sqrt((1-p)^2 A^2 + 4p(1-p) gap^2),
    A = 1 - |c_0|^2, for a float or an array of p."""
    q = 1.0 - p
    a = q * A
    return a + np.sqrt(a * a + 4.0 * p * q * gap * gap)


def _grid_max(A, gap):
    """The largest phi_p distance on a 1001-point p grid, refined by a second
    1001-point grid between the neighbours of the coarse argmax, with that
    bracket."""
    k = int(np.argmax(_phi_p_distance(A, gap, _P_GRID)))
    lo, hi = _P_GRID[max(k - 1, 0)], _P_GRID[min(k + 1, len(_P_GRID) - 1)]
    return float(np.max(_phi_p_distance(A, gap, lo + (hi - lo) * _P_GRID))), lo, hi


def _golden_guard(A, gap):
    """Golden section on the coarse grid's bracket instead of the second grid."""
    from reflectron.optima import _golden_max

    _, lo, hi = _grid_max(A, gap)
    return _golden_max(lambda p: float(_phi_p_distance(A, gap, p)), lo, hi)[1]


def test_grid_guard_finds_the_analytic_maximum():
    rng = np.random.default_rng(17)
    cases = [(float(a), float(b)) for a, b in rng.uniform(0.0, 1.0, size=(300, 2))]
    cases += [(1.0, 1e-9), (1.0, 1.0), (0.0, 2.0), (0.5, 0.5), (0.999, 1e-3), (0.2, 0.8 + 1e-12)]
    for c0sq, gap in cases:
        A = 1.0 - c0sq
        if gap > A:
            analytic = float(_phi_p_distance(A, gap, (gap - A) / (2.0 * gap - A)))
        else:
            analytic = 2.0 * A
        guard, _, _ = _grid_max(A, gap)
        assert analytic - 1e-11 <= guard <= analytic + 1e-15
        assert abs(guard - _golden_guard(A, gap)) < 1e-11


def test_diamond_argmax_conditions_hold_in_exact_rationals():
    # f = (1 - p) A + sqrt(Q), Q = (1 - p)^2 A^2 + 4 p (1 - p) g^2, as the
    # diamond_covariant docstring states its proof
    from fractions import Fraction

    values = sorted({Fraction(k, 8) for k in range(17)} | {Fraction(1, 3), Fraction(5, 7), Fraction(1, 1000)})
    for A in (v for v in values if v <= 1):
        for g in values:
            q2, q1, q0 = A * A - 4 * g * g, 4 * g * g - 2 * A * A, A * A

            def Q(p):
                return (1 - p) ** 2 * A * A + 4 * p * (1 - p) * g * g

            for p in (Fraction(0), Fraction(1, 3), Fraction(1)):
                assert Q(p) == q2 * p * p + q1 * p + q0
            assert 4 * q2 * q0 - q1 * q1 == -16 * g**4
            if A > 0:
                slope0 = -A + q1 / (2 * _exact_sqrt(q0))
                assert slope0 == 2 * (g * g - A * A) / A
                assert A + _exact_sqrt(Q(Fraction(0))) == 2 * A
                if g <= A:
                    assert slope0 <= 0, (A, g)
            if g <= A:
                continue
            p_star = (g - A) / (2 * g - A)
            assert 0 < p_star < 1
            assert Q(p_star) == g * g
            assert 2 * q2 * p_star + q1 == 2 * A * g
            assert -A + (2 * q2 * p_star + q1) / (2 * g) == 0
            assert (1 - p_star) * A + _exact_sqrt(Q(p_star)) == 2 * g * g / (2 * g - A)


def _argmax_cases():
    """(element, alpha) pairs: r_theta, lmr and random Fourier-phase elements
    at random angles, on both sides of gap = 1 - |c_0|^2."""
    from reflectron.cyclic import inverse_fourier

    rng = np.random.default_rng(23)
    cases = []
    for _ in range(110):
        n = int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.0, pi))
        cases.append((r_theta_coeffs(n, float(rng.uniform(0.0, pi))), alpha))
        cases.append((lmr_coeffs(rng.uniform(0.0, pi, size=n)), alpha))
        cases.append((inverse_fourier(np.exp(1j * rng.uniform(0.0, 2 * pi, size=n + 1))), alpha))
    return cases


def test_diamond_covariant_takes_the_grid_maximum_at_its_own_argmax():
    interior = 0
    cases = _argmax_cases()
    for e, alpha in cases:
        value, p = diamond_covariant(e, alpha)
        A, gap = distances._element_invariants(e, alpha)
        oracle, _, _ = _grid_max(A, gap)
        assert abs(value - oracle) <= 1e-11 and oracle <= value + 1e-15, (value, oracle)
        assert value == closed_form_rotation_distance(e, alpha)
        if p == 0.0:
            assert value == 2.0 * A
        else:
            interior += 1
    assert len(cases) >= 300 and 50 <= interior <= len(cases) - 50


def test_diamond_covariant_value_is_the_closed_form_bit_for_bit():
    # the argmax cases and the benchmark's covariant families: optimal, r_theta
    # at theta = alpha and at a random theta, lmr at equal angles alpha / n
    rng = np.random.default_rng(29)
    cases = _argmax_cases()
    for n in range(1, 65):
        for alpha in [pi] + [float(a) for a in rng.uniform(0.05, pi, size=3)]:
            theta = float(rng.uniform(0.05, pi))
            cases += [
                (optimal_reflection_coeffs(n), alpha),
                (r_theta_coeffs(n, alpha), alpha),
                (r_theta_coeffs(n, theta), alpha),
                (lmr_coeffs(np.full(n, alpha / n)), alpha),
            ]
    differ = [k for k, (e, alpha) in enumerate(cases)
              if diamond_covariant(e, alpha)[0] != closed_form_rotation_distance(e, alpha)]
    assert differ == []


@pytest.mark.parametrize("name", ["_dense_distance_at_p"])
def test_checks_fail_on_nan(name, monkeypatch):
    monkeypatch.setattr(distances, name, lambda *args: float("nan"))
    with pytest.raises(ConsistencyError):
        diamond_covariant(optimal_reflection_coeffs(4), pi)


@pytest.mark.parametrize("alpha", [4.0, -0.5, np.nan, np.inf], ids=["4", "-0.5", "nan", "inf"])
def test_covariant_entry_points_reject_an_angle_outside_0_pi(alpha):
    from reflectron.optima import domain_classify

    e = optimal_reflection_coeffs(3)
    for call in (diamond_covariant, closed_form_rotation_distance, domain_classify):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi\]"):
            call(e, alpha)


def test_diamond_covariant_rejects_a_one_dimensional_probe(monkeypatch):
    checks = []
    monkeypatch.setattr(distances, "_dense_distance_at_p", lambda *args: checks.append(1))
    with pytest.raises(ValueError, match=r"need a probe state of dimension d >= 2"):
        diamond_covariant(optimal_reflection_coeffs(3), pi, psi=[1.0])
    assert checks == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_unitarity_checks_reject_non_finite_entries(bad):
    from reflectron.universal import eigendecompose_target

    U = np.eye(2, dtype=complex)
    U[0, 1] = bad
    for call in (
        lambda: diamond_unitary_channels(U, np.eye(2)),
        lambda: diamond_unitary_channels(np.eye(2), U),
        lambda: eigendecompose_target(U),
    ):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not unitary"):
            call()
