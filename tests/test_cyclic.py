import itertools
from dataclasses import FrozenInstanceError
from math import pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectron.config import DimensionBudgetError
from reflectron.tensor_core import haar_random_state
from reflectron.cyclic import (
    CyclicElement,
    apply_element,
    f_opt,
    fourier,
    inverse_fourier,
    is_channel_element,
    is_unitary_element,
    lmr_coeffs,
    optimal_angle,
    optimal_reflection_coeffs,
    r_theta_coeffs,
)

import kernel_oracle
import perm_oracle


def applied_element(e, d):
    """sum_l c_l C^l as apply_element acts: row x of its action on the
    identity is the image of basis ket x."""
    return apply_element(e, d, np.eye(d ** (e.n + 1), dtype=complex)).T


def test_fourier_identity_element():
    e = r_theta_coeffs(4, 0.0)
    assert np.abs(fourier(e) - np.ones(5)).max() < 1e-12


def test_fourier_two_point_by_hand():
    e = CyclicElement([0.0, 1.0])
    ct = fourier(e)
    assert np.abs(ct - np.array([1.0, -1.0])).max() < 1e-12


def test_fourier_zeroth_is_coefficient_sum():
    rng = np.random.default_rng(0)
    for n in (1, 3, 8, 20):
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        assert abs(fourier(CyclicElement(c))[0] - c.sum()) < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=2**31))
def test_fourier_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    back = inverse_fourier(fourier(CyclicElement(c)))
    assert np.abs(back.coeffs - c).max() < 1e-12


def test_is_unitary_element_cases():
    assert is_unitary_element(r_theta_coeffs(3, 0.0))
    assert not is_unitary_element(CyclicElement([0.5, 0.5]))
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 9):
        assert is_unitary_element(r_theta_coeffs(n, rng.uniform(0, 2 * pi)))


def test_unitary_flag_matches_dense_check():
    rng = np.random.default_rng(2)
    for n, d in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        phases = np.exp(1j * rng.uniform(0, 2 * pi, size=n + 1))
        e = inverse_fourier(phases)
        assert is_unitary_element(e)
        V = applied_element(e, d)
        assert np.abs(V @ V.conj().T - np.eye(d ** (n + 1))).max() < 1e-10


def test_r_theta_identity_at_zero():
    e = r_theta_coeffs(5, 0.0)
    assert np.abs(e.coeffs - np.eye(1, 6)[0]).max() < 1e-15


def test_r_theta_pi_values():
    e = r_theta_coeffs(3, pi)
    assert abs(e.coeffs[0] - 0.5) < 1e-14
    assert np.abs(e.coeffs[1:] + 0.5).max() < 1e-14


def test_r_theta_fourier_profile():
    theta = 1.37
    ct = fourier(r_theta_coeffs(6, theta))
    assert abs(ct[0] - np.exp(1j * theta)) < 1e-12
    assert np.abs(ct[1:] - 1.0).max() < 1e-12


def test_optimal_reflection_values():
    assert abs(f_opt(2) + 0.6875) < 1e-15
    assert abs(f_opt(1) + 13 / 27) < 1e-15
    for n in (1, 2, 5):
        assert is_unitary_element(optimal_reflection_coeffs(n))
        assert is_unitary_element(r_theta_coeffs(n, -optimal_angle(n)))
    # the two signs are conjugate coefficient families
    plus = optimal_reflection_coeffs(3).coeffs
    minus = r_theta_coeffs(3, -optimal_angle(3)).coeffs
    assert np.abs(plus - minus.conj()).max() < 1e-14


def test_optimal_angle_branch():
    for n in (1, 4, 9):
        assert 0.0 <= optimal_angle(n) <= pi


def test_lmr_swap_case():
    e = lmr_coeffs([pi / 2])
    assert np.abs(e.coeffs - np.array([0.0, 1j])).max() < 1e-15


def test_lmr_identity_case():
    e = lmr_coeffs(np.zeros(4))
    assert np.abs(e.coeffs - r_theta_coeffs(4, 0.0).coeffs).max() < 1e-15


def test_lmr_fourier_zero_phase():
    rng = np.random.default_rng(3)
    for n in (1, 3, 7):
        thetas = rng.uniform(0, pi, size=n)
        ct0 = fourier(lmr_coeffs(thetas))[0]
        assert abs(ct0 - np.exp(1j * thetas.sum())) < 1e-11


def test_lmr_is_channel_but_not_unitary_element():
    thetas = np.full(4, 0.9)
    e = lmr_coeffs(thetas)
    assert is_channel_element(e)
    assert not is_unitary_element(e)


def test_lmr_equal_angle_ratio_structure():
    theta = 0.7
    e = lmr_coeffs(np.full(6, theta))
    ratios = e.coeffs[2:-1] / e.coeffs[1:-2]
    expected = np.exp(-1j * theta) * np.cos(theta)
    assert np.abs(ratios - expected).max() < 1e-12
    assert np.abs(expected - 1.0) > 1e-3


def test_dense_element_identity():
    assert np.abs(applied_element(r_theta_coeffs(2, 0.0), 2) - np.eye(8)).max() == 0


def test_dense_element_reflection_eigencheck():
    # n=1, theta=pi: I - (I + SWAP)/1... acts with eigenvalue -1 on |psi psi>
    e = r_theta_coeffs(1, pi)
    V = applied_element(e, 2)
    psi = haar_random_state(2, 7)
    vec = np.kron(psi.amplitudes, psi.amplitudes)
    assert np.abs(V @ vec + vec).max() < 1e-12


def test_unitary_elements_preserve_program_sector_norm():
    rng = np.random.default_rng(4)
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        e = r_theta_coeffs(n, rng.uniform(0, pi))
        V = applied_element(e, d)
        phi = haar_random_state(d, rng)
        psi = haar_random_state(d, rng)
        vec = np.kron(phi.amplitudes, psi.tensor_power(n).amplitudes)
        assert abs(np.linalg.norm(V @ vec) - 1.0) < 1e-11


def test_lmr_restriction_is_isometric():
    # channel-normalized but non-unitary elements still act isometrically
    # on the physical phi x psi^n sector
    rng = np.random.default_rng(5)
    e = lmr_coeffs(rng.uniform(0, pi, size=3))
    V = applied_element(e, 2)
    phi = haar_random_state(2, rng)
    psi = haar_random_state(2, rng)
    vec = np.kron(phi.amplitudes, psi.tensor_power(3).amplitudes)
    assert abs(np.linalg.norm(V @ vec) - 1.0) < 1e-11


def test_coefficient_length_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        CyclicElement([])


def test_element_order_is_derived_from_its_coefficients():
    rng = np.random.default_rng(3)
    elements = [
        r_theta_coeffs(5, 0.7),
        lmr_coeffs([0.1, 0.2, 0.3]),
        inverse_fourier(rng.normal(size=8)),
        CyclicElement(rng.normal(size=4) + 1j * rng.normal(size=4)),
        CyclicElement([1.0]),
    ]
    assert [e.n for e in elements] == [5, 3, 7, 3, 0]
    for e in elements:
        assert e.n == e.coeffs.size - 1


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (7, 2), (1, 3), (3, 3), (2, 4)])
def test_dense_element_equals_permutation_operator_sum(n, d):
    rng = np.random.default_rng(n * 10 + d)
    coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    coeffs[-1] = 0.0
    for e in (CyclicElement(coeffs), r_theta_coeffs(n, 1.234), r_theta_coeffs(n, 0.0)):
        assert np.array_equal(applied_element(e, d), perm_oracle.dense_element(e, d))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_element_matches_dense_product(n, d):
    rng = np.random.default_rng(100 * d + n)
    e = CyclicElement(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
    dim = d ** (n + 1)
    V = perm_oracle.dense_element(e, d)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    stack = rng.normal(size=(3, dim)) + 1j * rng.normal(size=(3, dim))
    assert np.abs(apply_element(e, d, vec) - V @ vec).max() < 1e-13
    assert np.abs(apply_element(e, d, stack) - stack @ V.T).max() < 1e-13


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4)])
@pytest.mark.parametrize("rows", [None, 1, 2, 7, 81])
def test_apply_element_equals_axis_oracle_bit_for_bit(d, n, rows):
    rng = np.random.default_rng(1000 * d + 10 * n + (rows or 0))
    coeffs = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    coeffs[n // 2] = 0.0  # a zero coefficient is skipped by both
    shape = (d ** (n + 1),) if rows is None else (rows, d ** (n + 1))
    vecs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for e in (CyclicElement(coeffs), r_theta_coeffs(n, 0.8)):
        assert np.array_equal(apply_element(e, d, vecs), kernel_oracle.apply_element(e, d, vecs))


def test_apply_element_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError, match="expected rows of 2"):
        apply_element(r_theta_coeffs(2, 0.4), 2, np.ones((2, 4)))


def test_apply_element_budget(monkeypatch):
    monkeypatch.setenv("REFLECTRON_BUDGET", "64")
    e = r_theta_coeffs(5, 0.4)
    assert apply_element(e, 2, np.ones(64)).shape == (64,)
    with pytest.raises(DimensionBudgetError):
        apply_element(e, 2, np.ones((2, 64)))


def lmr_coeffs_reference(thetas):
    """The O(n^2) loop: one product and one tail sum per coefficient."""
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    c = np.zeros(n + 1, dtype=complex)
    cosines = np.cos(thetas)
    c[0] = np.prod(cosines)
    for l in range(1, n + 1):
        tail_phase = np.exp(1j * np.sum(thetas[l:]))
        c[l] = tail_phase * 1j * np.sin(thetas[l - 1]) * np.prod(cosines[: l - 1])
    return c


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 1024, 4096])
def test_lmr_coeffs_matches_quadratic_loop(n):
    for alpha in (pi, 2.5, 0.3):
        thetas = np.full(n, alpha / n)
        assert np.abs(lmr_coeffs(thetas).coeffs - lmr_coeffs_reference(thetas)).max() <= 1e-15
    # tail sums reach ~6400 rad at n = 4096; the two summation orders drift apart
    thetas = np.random.default_rng(n).uniform(0.0, pi, size=n)
    e = lmr_coeffs(thetas)
    assert np.abs(e.coeffs - lmr_coeffs_reference(thetas)).max() <= 1e-11
    if n == 4096:
        assert is_channel_element(e)
        assert is_channel_element(lmr_coeffs(np.full(n, pi / n)))


def test_coefficient_constructors_check_budget(monkeypatch):
    monkeypatch.setenv("REFLECTRON_BUDGET", "64")
    assert r_theta_coeffs(63, 0.4).coeffs.size == 64
    assert lmr_coeffs(np.full(63, 0.1)).coeffs.size == 64
    for make in (
        lambda: r_theta_coeffs(64, 0.4),
        lambda: optimal_reflection_coeffs(64),
        lambda: lmr_coeffs(np.full(64, 0.1)),
    ):
        with pytest.raises(DimensionBudgetError):
            make()


def test_channel_sums_feed_is_channel_element():
    rng = np.random.default_rng(11)
    elements = [r_theta_coeffs(5, 1.2), lmr_coeffs(rng.uniform(0, pi, 6))]
    elements += [CyclicElement(rng.normal(size=4) + 1j * rng.normal(size=4))]
    elements += [CyclicElement([0.5, 0.5]), CyclicElement([0.6, -0.8])]
    for e in elements:
        c = e.coeffs
        ct0, total = e.sums
        assert type(ct0) is complex and type(total) is float
        assert (ct0, total) == (complex(c.sum()), float(np.vdot(c, c).real))
        expected = abs(abs(ct0) - 1.0) <= 1e-10 and abs(total - 1.0) <= 1e-10
        assert is_channel_element(e) is expected
    assert [is_channel_element(e) for e in elements] == [True, True, False, False, False]


def test_element_coefficients_are_read_only():
    e = r_theta_coeffs(3, 0.9)
    with pytest.raises(ValueError):
        e.coeffs[0] = 1.0
    with pytest.raises(ValueError):
        e.coeffs *= 2.0
    for name, value in (("coeffs", np.zeros(4)), ("sums", (1.0, 1.0)), ("n", 4)):
        with pytest.raises(FrozenInstanceError):
            setattr(e, name, value)


def test_element_copies_the_callers_array():
    c = np.array([0.6, 0.8j])
    e = CyclicElement(c)
    sums = e.sums
    assert c.flags.writeable and e.coeffs is not c
    c[0] = 5.0
    assert np.array_equal(e.coeffs, [0.6, 0.8j])
    # the write would break the channel condition if the element re-read c
    assert e.sums == sums and is_channel_element(e)


def test_element_copies_a_read_only_callers_array():
    c = np.array([0.6, 0.8j])
    c.flags.writeable = False
    e = CyclicElement(c)
    assert not np.shares_memory(e.coeffs, c)
    c.flags.writeable = True
    c[0] = 5.0
    assert np.array_equal(e.coeffs, [0.6, 0.8j]) and is_channel_element(e)
    # the read-only coefficients of another element are copied too
    other = r_theta_coeffs(3, 0.9)
    assert not np.shares_memory(CyclicElement(other.coeffs).coeffs, other.coeffs)


def test_library_elements_are_read_only_and_share_no_callers_array():
    thetas = np.full(6, 0.3)
    ct = np.exp(1j * np.arange(5.0))
    built = [
        (r_theta_coeffs(4, 0.7), []),
        (lmr_coeffs(thetas), [thetas]),
        (lmr_coeffs(np.broadcast_to(0.2, 5)), []),
        (inverse_fourier(ct), [ct]),
    ]
    for e, held in built:
        c = e.coeffs
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert not any(np.shares_memory(c, a) for a in held)
        assert e.sums == (complex(c.sum()), float(np.vdot(c, c).real))
    # one element's coefficients are no other's
    for (a, _), (b, _) in itertools.combinations(built, 2):
        assert not np.shares_memory(a.coeffs, b.coeffs)


def test_r_theta_coeffs_peak_stays_within_its_coefficients():
    from traced import traced_peak

    # a copy of the coefficients would double the peak
    e, peak = traced_peak(lambda: r_theta_coeffs(2**18, 0.3))
    assert peak <= 1.1 * e.coeffs.nbytes, peak
