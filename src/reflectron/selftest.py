"""Fast invariant battery behind the `selftest` CLI subcommand.

One line per check; exit status is the number of failures. The heavyweight
acceptance criteria live in the pytest suite, this is the quick smoke pass.
"""

from math import comb, pi

import numpy as np

from .channels import dense_reflection_channel, effective_channel, lmr_sequential_dense
from .circuits import build_rotation_circuit, gate_counts
from .cyclic import (
    CyclicElement,
    fourier,
    inverse_fourier,
    is_unitary_element,
    lmr_coeffs,
    optimal_reflection_coeffs,
    r_theta_coeffs,
)
from .distances import (
    _default_psi,
    _dense_distance_at_p,
    closed_form_rotation_distance,
    diamond_covariant,
    trace_norm,
)
from .repthy import (
    build_probe_d2,
    ensemble_entropy,
    ensemble_spectrum,
    ensemble_state,
    lambert_w0,
    solve_q_d2,
)
from .tensor_core import (
    haar_random_state,
    haar_random_unitary,
    partial_trace,
    symmetric_projector,
)


def _checks():
    rng = np.random.default_rng(0)

    def fourier_roundtrip():
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        e = CyclicElement(c)
        back = inverse_fourier(fourier(e))
        return np.abs(back.coeffs - e.coeffs).max() < 1e-12

    def unitary_flags():
        return is_unitary_element(r_theta_coeffs(5, 1.1)) and not is_unitary_element(
            CyclicElement([0.5, 0.5])
        )

    def optimal_value():
        value, _ = diamond_covariant(optimal_reflection_coeffs(3), pi)
        return abs(value - 8 * 5 / (8 + 12 + 9)) < 1e-9

    def dense_vs_effective():
        psi = haar_random_state(2, rng)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        e = r_theta_coeffs(4, 0.7)
        dense = dense_reflection_channel(e, psi, X)
        return np.abs(dense - effective_channel(e, psi)(X)).max() < 1e-10

    def lmr_paths_agree():
        psi = haar_random_state(2, rng)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        thetas = rng.uniform(0, pi / 2, size=4)
        seq = lmr_sequential_dense(thetas, psi, X)
        return np.abs(seq - effective_channel(lmr_coeffs(thetas), psi)(X)).max() < 1e-10

    def rotation_two_case():
        return abs(closed_form_rotation_distance(r_theta_coeffs(4, pi / 2), pi / 2) - 0.64) < 1e-12

    def projector_trace():
        return abs(np.trace(symmetric_projector(3, 2)) - comb(4, 1)) < 1e-11

    def ptrace_product():
        rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sig = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        joint = np.kron(rho, sig)
        red = partial_trace(joint, keep=[0], d=2, factors=2)
        return np.abs(red - rho * np.trace(sig)).max() < 1e-12

    def haar_unitary_ok():
        U = haar_random_unitary(5, rng)
        return np.abs(U @ U.conj().T - np.eye(5)).max() < 1e-10

    def power_state_norm():
        psi1 = haar_random_state(2, rng)
        psi2 = haar_random_state(2, rng)
        cosphi = abs(np.vdot(psi1.amplitudes, psi2.amplitudes))
        n = 3
        diff = psi1.tensor_power(n).projector - psi2.tensor_power(n).projector
        return abs(trace_norm(diff) - 2 * np.sqrt(1 - cosphi ** (2 * n))) < 1e-9

    def circuit_counts():
        return gate_counts(build_rotation_circuit(7, 0.3))["cswap"] == 42

    def lowerbound_d2():
        spec, residual = solve_q_d2(2)
        probe = build_probe_d2(2, spec)
        entropy = ensemble_entropy(2, 2, probe)
        # the Schur-block spectrum against the dense state's, which must be
        # a U^{x2} x Ubar^{x2}-invariant density matrix
        rho = ensemble_state(2, 2, probe)
        blocks = np.sort(ensemble_spectrum(2, 2, probe))[-rho.shape[0] :]
        spectrum_err = np.abs(blocks - np.linalg.eigvalsh(rho)).max()
        invariance_err = 0.0
        for seed in range(3):
            U = haar_random_unitary(2, seed)
            W = np.kron(np.kron(U, U), np.kron(U.conj(), U.conj()))
            invariance_err = max(invariance_err, np.abs(W @ rho - rho @ W).max())
        return (
            residual < 1e-8
            and abs(entropy - np.log2(6)) < 1e-6
            and spectrum_err < 1e-12
            and invariance_err < 1e-12
            and abs(np.trace(rho) - 1.0) < 1e-12
        )

    def lambert_fixed_points():
        return abs(lambert_w0(np.e) - 1.0) < 1e-12 and abs(lambert_w0(0.0)) < 1e-12

    def closed_form_is_the_maximum():
        # the dense phi_p distance stays below the value on a p grid and meets it at p*
        e, alpha, psi = r_theta_coeffs(6, 1.9), 1.3, _default_psi(2)
        value, p_star = diamond_covariant(e, alpha)
        grid = max(_dense_distance_at_p(e, alpha, p, psi) for p in (0.0, 0.25, 0.5, 0.75, 1.0))
        at_p_star = _dense_distance_at_p(e, alpha, p_star, psi)
        return grid <= value + 1e-9 and abs(at_p_star - value) <= 1e-9

    return [
        ("fourier roundtrip", fourier_roundtrip),
        ("unitary element flags", unitary_flags),
        ("optimal reflection distance", optimal_value),
        ("dense vs effective channel", dense_vs_effective),
        ("sequential vs coefficient channel", lmr_paths_agree),
        ("equal-angle two-case formula", rotation_two_case),
        ("symmetric projector trace", projector_trace),
        ("partial trace of product", ptrace_product),
        ("haar unitary", haar_unitary_ok),
        ("tensor power trace norm", power_state_norm),
        ("circuit gate counts", circuit_counts),
        ("d=2 lower bound pipeline", lowerbound_d2),
        ("lambert fixed points", lambert_fixed_points),
        ("closed form vs maximization", closed_form_is_the_maximum),
    ]


def run(write) -> tuple:
    """Run the battery and return (failures, checks run); each report line
    goes to ``write``."""
    checks = _checks()
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except Exception as exc:  # surfaced, counted as failure
            ok = False
            write(f"[ERROR] {name}: {exc}")
        write(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    return failures, len(checks)
