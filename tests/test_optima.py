from math import pi

import numpy as np
import pytest

from reflectron.cyclic import lmr_coeffs, optimal_angle, optimal_reflection_coeffs, r_theta_coeffs
from reflectron.distances import closed_form_rotation_distance
from reflectron.optima import (
    BOUNDARY_POINTS,
    Domain,
    boundary_curve,
    domain_classify,
    landscape,
    landscape_value,
    lmr_equal_angle_distance,
    lmr_improved_angle,
    lmr_improvement,
    theta_star,
)


def test_landscape_u_zero_is_global_maximum():
    for n in (1, 2, 4):
        vals = landscape_value(n, np.linspace(0, 1, 11), np.zeros(11))
        assert np.abs(vals - 2.0).max() < 1e-12


def test_landscape_known_point():
    # n=4 at r=1, u = arccos f(4): the optimal distance 1.2
    val = landscape_value(4, 1.0, optimal_angle(4))
    assert abs(val - 1.2) < 1e-12


def test_landscape_grid_minimum_and_symmetry():
    for n in (2, 4, 8):
        points = landscape(n, 257, 257)
        vmin = points["value"].min()
        assert abs(vmin - 8 * (n + 2) / (8 + 4 * n + n * n)) < 2e-4
        k = int(np.argmin(points["value"]))
        u_star = optimal_angle(n)
        assert abs(points["r"][k] - 1.0) < 1 / 256 + 1e-12
        cell = 2 * pi / 256
        dev = min(abs(points["u"][k] - u_star), abs(2 * pi - points["u"][k] - u_star))
        assert dev < cell + 1e-12
    pts = landscape(4, 65, 65)
    grid = pts["value"].reshape(65, 65)
    assert np.abs(grid - grid[:, ::-1]).max() < 1e-10  # u -> 2pi - u


def test_landscape_point_values_in_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        value = landscape_value(4, rng.uniform(0, 1), rng.uniform(0, 2 * pi))
        assert 0.0 <= value <= 2.0 + 1e-12


def test_landscape_row_count_contract():
    pts = landscape(3, 33, 33)
    assert pts.shape[0] == 33 * 33


def test_boundary_curve_sits_on_boundary():
    pts = boundary_curve(4)
    assert len(pts) > 20
    for r, u in pts[::7]:
        c0sq = (1 + 2 * 4 * r * np.cos(u) + (4 * r) ** 2) / 25
        gap = np.sqrt((6 + 4 * r * np.cos(u)) ** 2 + (4 * r * np.sin(u)) ** 2) / 5
        assert abs((1 - c0sq) - gap) < 1e-10


@pytest.mark.parametrize("n", [1, 4, 16])
def test_theta_star_at_pi(n):
    assert abs(theta_star(n, pi) - optimal_angle(n)) < 1e-6


def test_theta_star_at_zero():
    assert theta_star(3, 0.0) < 1e-6


def test_theta_star_small_alpha_doubling():
    for alpha in (0.01, 0.03, 0.05):
        ts = theta_star(1, alpha)
        assert abs(ts - 2 * alpha) <= 0.05 * 2 * alpha


def test_theta_star_crossing_bracket_n4():
    # theta* sits above alpha before the crossing and below after it
    for alpha in np.linspace(0.15, 1.0, 8):
        assert theta_star(4, float(alpha)) > alpha
    for alpha in np.linspace(1.2, pi - 0.01, 8):
        assert theta_star(4, float(alpha)) < alpha
    lo, hi = 1.0, 1.2
    assert (theta_star(4, lo) - lo) > 0 and (theta_star(4, hi) - hi) < 0


def golden_min_reference(f, a, b, tol):
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def theta_star_reference(n, alpha, tolerance=1e-10):
    """theta* by golden-section minimization, three brackets."""
    objective = lambda th: closed_form_rotation_distance(r_theta_coeffs(n, th), alpha)
    best = None
    for a, b in ((0.0, pi / 3), (pi / 3, 2 * pi / 3), (2 * pi / 3, pi)):
        x, v = golden_min_reference(objective, a, b, tolerance)
        if best is None or v < best[1]:
            best = (x, v)
    return float(best[0])


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_theta_star_equals_golden_min(n):
    # the O(1) objective rounds differently from the coefficient array's
    # sums; golden section resolves theta only to ~sqrt(eps) at a smooth
    # minimum, so the value is compared, and theta to 1e-7
    for alpha in np.linspace(0.0, pi, 9):
        alpha = float(alpha)
        got, want = theta_star(n, alpha), theta_star_reference(n, alpha)
        distance = lambda th: closed_form_rotation_distance(r_theta_coeffs(n, th), alpha)
        assert distance(got) <= distance(want) + 4e-15
        assert abs(got - want) <= 1e-7


def test_domain_classification():
    for n in (2, 3, 6):
        assert domain_classify(r_theta_coeffs(n, pi), pi) is Domain.A
        assert domain_classify(optimal_reflection_coeffs(n), pi) is Domain.B
    assert domain_classify(r_theta_coeffs(1, pi), pi) is Domain.BOUNDARY
    for n in (3, 5, 9):
        assert domain_classify(lmr_coeffs(np.full(n, pi / n)), pi) is Domain.A


def test_lmr_improved_angle_value_and_domain():
    n, alpha = 8, pi
    tp = lmr_improved_angle(n, alpha)
    assert abs(tp - alpha / (n + alpha * np.sqrt(3) / 2)) < 1e-15
    assert tp < alpha / n
    with pytest.raises(ValueError):
        lmr_improved_angle(2, pi)


def test_lmr_improvement_positive():
    for alpha in (pi / 4, pi / 2, pi):
        for n in range(3, 129):
            assert lmr_improvement(n, alpha) > 0.0


def test_lmr_improvement_asymptote():
    # ratio to 2 sqrt(3) alpha^3 / n^2 approaches one from below
    alpha = pi
    ratios = []
    for n in (256, 1024, 4096):
        ratio = lmr_improvement(n, alpha) / (2 * np.sqrt(3) * alpha**3 / n**2)
        ratios.append(ratio)
    assert ratios == sorted(ratios)
    assert abs(ratios[-1] - 1.0) < 0.01


def test_lmr_equal_angle_distance_closed_form():
    for n in (2, 4, 8):
        val = lmr_equal_angle_distance(n, pi)
        assert abs(val - 2 * (1 - np.cos(pi / n) ** (2 * n))) < 1e-12


def test_lmr_large_n_leading_order():
    # both angle choices approach 2 alpha^2 / n
    alpha = pi / 2
    n = 4096
    lead = 2 * alpha**2 / n
    assert abs(lmr_equal_angle_distance(n, alpha) / lead - 1.0) < 1e-2
    improved = lmr_equal_angle_distance(n, alpha, lmr_improved_angle(n, alpha))
    assert abs(improved / lead - 1.0) < 1e-2


def test_landscape_and_boundary_reject_processor_without_copies():
    for n in (0, -3):
        with pytest.raises(ValueError, match="need n >= 1"):
            landscape(n, 5, 5)
        with pytest.raises(ValueError, match="need n >= 1"):
            boundary_curve(n)
    for grid_r, grid_u in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="grid"):
            landscape(4, grid_r, grid_u)
    assert landscape(1, 1, 1).shape == (1,)


def _meshgrid_landscape(n, grid_r, grid_u):
    """The landscape evaluated point by point on a full meshgrid."""
    R, U = np.meshgrid(
        np.linspace(0.0, 1.0, grid_r), np.linspace(0.0, 2.0 * np.pi, grid_u), indexing="ij"
    )
    c0sq = (1.0 + 2.0 * n * R * np.cos(U) + (n * R) ** 2) / (n + 1) ** 2
    gap = np.sqrt((n + 2 + n * R * np.cos(U)) ** 2 + (n * R * np.sin(U)) ** 2) / (n + 1)
    A = 1.0 - c0sq
    V = np.where(gap > A, 2.0 * gap**2 / (2.0 * gap - A), 2.0 * A)
    return R.reshape(-1), U.reshape(-1), V.reshape(-1)


@pytest.mark.parametrize("n", [1, 2, 4, 9, 64])
@pytest.mark.parametrize("grid", [(1, 1), (2, 7), (33, 33), (129, 65)])
def test_landscape_on_its_axes_equals_meshgrid(n, grid):
    out = landscape(n, *grid)
    R, U, V = _meshgrid_landscape(n, *grid)
    assert np.array_equal(out["r"], R)
    assert np.array_equal(out["u"], U)
    assert np.array_equal(out["value"], V)


def _two_margin_boundary(n, num):
    """Bisection that re-evaluates margin(lo) at every step."""

    def margin(r, u):
        c0sq = (1.0 + 2.0 * n * r * np.cos(u) + (n * r) ** 2) / (n + 1) ** 2
        gap = np.sqrt((n + 2 + n * r * np.cos(u)) ** 2 + (n * r * np.sin(u)) ** 2) / (n + 1)
        return (1.0 - c0sq) - gap

    pts = []
    for u in np.linspace(0.0, 2.0 * np.pi, num):
        lo, hi = 0.0, 1.0
        if margin(lo, u) * margin(hi, u) > 0:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if margin(lo, u) * margin(mid, u) <= 0:
                hi = mid
            else:
                lo = mid
        pts.append((0.5 * (lo + hi), u))
    return np.array(pts, dtype=float)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("num", [BOUNDARY_POINTS])
def test_boundary_curve_equals_two_margin_bisection(n, num):
    got = boundary_curve(n)
    assert got.size > 0
    assert np.array_equal(got, _two_margin_boundary(n, num))


@pytest.mark.parametrize("n", range(1, 71))
def test_theta_objective_equals_negated_closed_form_bit_for_bit(n):
    # the objective reads c_0 and ct_0 = e^{i theta} in closed form, the
    # element sums its n + 1 coefficients: they agree to rounding
    from reflectron.optima import _theta_objective

    rng = np.random.default_rng(n)
    for alpha in [0.0, pi / 3, pi] + list(rng.uniform(0.0, pi, 3)):
        objective = _theta_objective(n, float(alpha))
        for theta in [0.0, pi] + list(rng.uniform(0.0, pi, 6)):
            want = -closed_form_rotation_distance(r_theta_coeffs(n, float(theta)), float(alpha))
            assert abs(objective(float(theta)) - want) <= 4e-15


def test_theta_star_runs_no_channel_check(monkeypatch):
    import reflectron.cyclic as cyclic

    calls = []
    real = cyclic.is_channel_element
    monkeypatch.setattr(cyclic, "is_channel_element", lambda *a, **k: calls.append(1) or real(*a, **k))
    theta_star(8, 2.0)
    assert calls == []
    # the spy sees the check where it runs
    closed_form_rotation_distance(r_theta_coeffs(8, 1.0), 2.0)
    assert calls == [1]


def test_theta_star_checks_its_inputs_before_searching(monkeypatch):
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, pi\]"):
        theta_star(3, 4.0)
    with pytest.raises(ValueError, match="need n >= 1"):
        theta_star(0, 1.0)
    # nothing of size n is built: the n + 1 coefficients need not fit the budget
    monkeypatch.setenv("REFLECTRON_BUDGET", "8")
    assert theta_star(7, 1.0) > 0.0
    assert theta_star(8, 1.0) > 0.0


@pytest.mark.parametrize("n", range(1, 65))
def test_boundary_curve_equals_the_scalar_bisection(n):
    from landscape_oracle import scalar_boundary_curve

    got = boundary_curve(n)
    assert got.shape[1:] == (2,) and got.size > 0
    assert np.array_equal(got, scalar_boundary_curve(n))


# 33 x 513: 33 rows is not a multiple of the 31 rows of one block
@pytest.mark.parametrize("grid", [(1, 1), (7, 31), (33, 513), (513, 513)])
def test_landscape_in_row_blocks_equals_the_one_call_grid(grid):
    from landscape_oracle import one_call_landscape

    for n in (1, 4, 9):
        got = landscape(n, *grid)
        want = one_call_landscape(n, *grid)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_landscape_peak_stays_within_its_result_plus_2mb():
    from traced import traced_peak

    # the one-call grid peaks at 3x its 6 MB result: repeat, tile and the values
    points, peak = traced_peak(lambda: landscape(4, 513, 513))
    assert peak <= points.nbytes + 2 * 2**20, peak
