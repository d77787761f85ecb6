"""How each query kind is prepared, run and checked inside a pass process.

``prepare`` builds numpy inputs from the query's seeds and is not timed.
``run`` is the timed part: it calls public library functions through the
``reflectron`` package and its modules, or ``reflectron.cli.main(argv)`` for
a command the README documents, and never calls anything else. ``check``
compares the output with ``references`` and records every mismatch.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import reflectron as R
import reflectron.cli  # noqa: F401  (binds R.cli)

import references as ref


class QueryFailed(Exception):
    """The library call ended in a way the benchmark counts as a failure."""


class Checker:
    """Collects reference mismatches for one query.

    With ``planted`` set, the first comparison is made against a deliberately
    wrong reference, so the self-test can see that a mismatch is counted.
    """

    def __init__(self, planted=False):
        self.errors = []
        self.planted = planted

    def _plant(self):
        planted, self.planted = self.planted, False
        return planted

    def close(self, what, got, want, tol):
        want = np.asarray(want) + (1.0 if self._plant() else 0.0)
        err = float(np.max(np.abs(np.asarray(got) - want)))
        if not err <= tol:
            self.errors.append(f"{what}: deviation {err:.3g} > {tol:g}")

    def true(self, what, condition):
        if self._plant() or not condition:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# covariant-sweep


def _element(family, n, theta):
    if family == "optimal":
        return R.optimal_reflection_coeffs(n)
    if family == "theta":
        return R.r_theta_coeffs(n, theta)
    return R.lmr_coeffs([theta] * n)


def _ref_coeffs(family, n, theta):
    if family == "optimal":
        return ref.r_theta_coeffs(n, ref.optimal_angle(n))
    if family == "theta":
        return ref.r_theta_coeffs(n, theta)
    return ref.lmr_coeffs(np.full(n, theta))


def run_covariant(q, _):
    e = _element(q["family"], q["n"], q.get("theta"))
    value, p_star = R.diamond_covariant(e, q["alpha"])
    closed = R.closed_form_rotation_distance(e, q["alpha"])
    return value, p_star, closed, R.domain_classify(e, q["alpha"]).value


def check_covariant(q, _, out, ck):
    value, p_star, closed, domain = out
    n, alpha, family = q["n"], q["alpha"], q["family"]
    want, c0sq, gap = ref.element_distance(_ref_coeffs(family, n, q.get("theta")), alpha)
    ck.close("diamond_covariant vs two-case formula", value, want, 1e-9)
    ck.close("closed_form_rotation_distance", closed, want, 1e-9)
    ck.true(f"argmax p {p_star} outside [0, 1]", 0.0 <= p_star <= 1.0)
    ck.close("distance at argmax p", ref.distance_at_p(c0sq, gap, p_star), want, 1e-9)
    if family == "optimal" and alpha == math.pi:
        ck.close("8(n+2)/(8+4n+n^2)", value, ref.optimal_reflection_distance(n), 1e-9)
    if family == "theta" and q["theta"] == alpha:
        ck.close("equal-angle closed form", value, ref.equal_angle_distance(n, alpha), 1e-9)
    margin = (1.0 - c0sq) - gap
    if abs(margin) > 1e-8:
        ck.true(f"domain {domain} for margin {margin:.3g}", domain == ("A" if margin > 0 else "B"))


def run_theta_star(q, _):
    theta = R.theta_star(q["n"], q["alpha"])
    return theta, R.closed_form_rotation_distance(R.r_theta_coeffs(q["n"], theta), q["alpha"])


def check_theta_star(q, _, out, ck):
    theta, distance = out
    n, alpha = q["n"], q["alpha"]
    at_theta = float(ref.theta_family_distance(n, theta, alpha))
    ck.close("distance at theta*", distance, at_theta, 1e-10)
    grid_min = float(ref.theta_family_distance(n, np.linspace(0.0, math.pi, 4097), alpha).min())
    ck.true(f"theta* distance {at_theta} above grid minimum {grid_min}", at_theta <= grid_min + 1e-9)
    if alpha == math.pi:
        ck.close("theta* distance vs 8(n+2)/(8+4n+n^2)", distance, ref.optimal_reflection_distance(n), 1e-9)


def run_lmr_improvement(q, _):
    return R.lmr_improvement(q["n"], q["alpha"])


def check_lmr_improvement(q, _, out, ck):
    ck.close("improvement gap", out, ref.lmr_gap(q["n"], q["alpha"]), 1e-10)
    ck.true(f"gap {out} not positive", out > 0.0)


def run_landscape(q, _):
    return R.landscape(q["n"], q["grid"], q["grid"])


def check_landscape(q, _, out, ck):
    n, grid = q["n"], q["grid"]
    ck.true(f"{out.size} landscape rows, expected {grid * grid}", out.size == grid * grid)
    if out.size != grid * grid:
        return
    ck.close("r grid", out["r"].reshape(grid, grid)[:, 0], np.linspace(0.0, 1.0, grid), 1e-15)
    ck.close("u grid", out["u"].reshape(grid, grid)[0], np.linspace(0.0, 2.0 * math.pi, grid), 1e-15)
    c0sq, gap = ref.landscape_invariants(n, out["r"], out["u"])
    ck.close("landscape values", out["value"], ref.rotation_distance(c0sq, gap), 1e-12)
    best = float(out["value"].min())
    ck.true(f"landscape minimum {best} below the optimal distance",
            best >= ref.optimal_reflection_distance(n) - 1e-12)


def run_boundary(q, _):
    return R.boundary_curve(q["n"])


def check_boundary(q, _, out, ck):
    ck.true("empty boundary curve", len(out) > 0)
    if len(out):
        c0sq, gap = ref.landscape_invariants(q["n"], out[:, 0], out[:, 1])
        ck.close("domain margin on the boundary", (1.0 - c0sq) - gap, 0.0, 1e-9)


# ---------------------------------------------------------------------------
# lowerbound


def _check_weights(what, q, residual, n, ck):
    ck.true(f"{what}: residual {residual} above 1e-8", residual < 1e-8)
    ck.true(f"{what}: labels {sorted(q)}", sorted(int(k) for k in q) == list(range(n % 2, n + 1, 2)))
    weights = np.array(list(q.values()), dtype=float)
    ck.true(f"{what}: weights outside [0, 1]", weights.min() >= -1e-9 and weights.max() <= 1 + 1e-9)
    ck.close(f"{what}: weight sum", weights.sum(), 1.0, 1e-9)


def run_solve_q(q, _):
    spec, residual = R.solve_q_d2(q["n"])
    return dict(spec.q), residual


def check_solve_q(q, _, out, ck):
    _check_weights("solve_q_d2", out[0], out[1], q["n"], ck)


def run_ensemble(q, _):
    spec = R.ProbeSpec(n=q["n"], d=2, q={int(k): w for k, w in q["q"].items()})
    return R.ensemble_entropy(q["n"], 2, R.build_probe_d2(q["n"], spec))


def check_ensemble(q, _, out, ck):
    weights = {int(k): w for k, w in q["q"].items()}
    ck.close("ensemble entropy vs spin-basis twirl", out, ref.ensemble_entropy_d2(q["n"], weights), 1e-9)


# ---------------------------------------------------------------------------
# dense-oracle


def prepare_dense_channel(q):
    rng = np.random.default_rng(q["seed"])
    d = q["d"]
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return psi / np.linalg.norm(psi), rho / np.trace(rho).real


def run_dense_channel(q, inputs):
    psi, rho = inputs
    e = _element(q["family"], q["n"], q["theta"])
    dense = np.asarray(R.dense_reflection_channel(e, psi, rho))
    return dense, R.effective_channel(e, psi)(rho)


def check_dense_channel(q, _, out, ck):
    dense, closed = out
    ck.close("dense vs effective channel", dense, closed, 1e-10)
    ck.close("trace preserved", np.trace(dense), 1.0, 1e-10)
    ck.close("hermitian output", dense, dense.conj().T, 1e-12)


def run_circuit_dense(q, _):
    return R.circuits.circuit_to_dense(R.build_rotation_circuit(q["n"], q["theta"]))


def check_circuit_dense(q, _, out, ck):
    k = 2 ** (q["n"] + 1)
    ck.close("unitarity", out.conj().T @ out, np.eye(out.shape[0]), 1e-10)
    ck.close("ancilla-zero block vs sum c_l C^l", out[:k, :k], ref.r_theta_dense(q["n"], q["theta"]), 1e-10)
    ck.close("ancilla leakage", out[k:, :k], 0.0, 1e-10)


def run_sym_encoder(q, _):
    return np.asarray(R.symmetric_encoder(q["n"], q["d"]))


def check_sym_encoder(q, _, out, ck):
    ck.close("symmetric encoder", out, ref.symmetric_encoder(q["n"], q["d"]), 1e-12)


def run_sym_projector(q, _):
    return np.asarray(R.symmetric_projector(q["n"], q["d"]))


def check_sym_projector(q, _, out, ck):
    n, d = q["n"], q["d"]
    ck.close("projector vs permutation average", out, ref.symmetric_projector(n, d), 1e-12)
    ck.close("projector trace", np.trace(out), math.comb(n + d - 1, d - 1), 1e-10)


# ---------------------------------------------------------------------------
# CLI queries, checked by subcommand


def run_cli(q, _):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = R.cli.main(list(q["argv"]))
    if code != 0:
        raise QueryFailed(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
    return stdout.getvalue()


def check_cli(q, _, out, ck):
    argv = q["argv"]
    words = 2 if argv[1][:2] != "--" else 1
    command = " ".join(argv[:words])
    a = {k[2:]: v for k, v in zip(argv[words::2], argv[words + 1::2])}
    if command == "circuit emit":
        return _check_emit(q, int(a["n"]), float(a["theta"]), out, ck)
    data = json.loads(out)
    ck.true(f"schema {data.get('schema')}", data.get("schema") == 1)
    if command == "lowerbound solve-q":
        n = int(a["n"])
        _check_weights("solve-q", dict(zip(data["two_j"], data["q"])), data["residual"], n, ck)
    elif command == "lowerbound twirl":
        _check_twirl(int(a["n"]), int(a["d"]), data, ck)
    elif command == "lowerbound fd":
        eps, d = float(a["eps"]), int(a["d"])
        n_star = data["n_star"]
        ck.close("n* ln n* / rhs", n_star * math.log(n_star) / ref.copy_count_rhs(eps, d), 1.0, 1e-10)
        ck.close("f_d", data["f_d"], ref.lower_bound_fd(eps, max(1, round(n_star)), d), 1e-9)
        ck.close("final bound", data["final_bound"], ref.final_lower_bound(eps, d), 1e-9)
        ck.true("asymptotic regime flag", data["asymptotic_regime"] == (eps <= 1e-3 / (d + 1) ** 2))
    elif command == "circuit verify":
        n = int(a["n"])
        ck.true("circuit verify passed", data["passed"] is True)
        ck.true(f"cswap count {data['cswap_count']}", data["cswap_count"] == 2 * n * ((n + 1).bit_length() - 1))
        ck.true(f"dense error {data['dense_error']}", data["dense_error"] < 1e-10)
        ck.true(f"ancilla leakage {data['ancilla_leakage']}", data["ancilla_leakage"] < 1e-10)
    elif command == "mr":
        n, d = int(a["n"]), int(a["d"])
        ck.close("lower_bound field", data["lower_bound"], ref.mr_bound(n, d), 1e-12)
        ck.close("asymptote field", data["asymptote_times_n"], 8.0 * (d - 1), 1e-12)
        if d == 2:
            ck.close("8(n+1)/((n+2)(n+3))", data["value"], ref.mr_distance_d2(n), 1e-9)
        ck.true(f"value {data['value']} below bound", data["value"] >= ref.mr_bound(n, d) - 1e-9)
        if n >= 512:
            ck.close("n value vs 8(d-1), relative", n * data["value"] / (8.0 * (d - 1)), 1.0, 0.02)
    elif command == "universal verify":
        eps = float(a["eps"])
        ck.true("all_passed", data["all_passed"] is True)
        ck.true(f"worst distance {data['worst_sampled_distance']} above eps", data["worst_sampled_distance"] <= eps)
        ck.close("worst slack", data["worst_slack"], eps - data["worst_sampled_distance"], 1e-12)
    else:
        ck.true(f"no reference for {command}", False)


def _check_twirl(n, d, data, ck):
    target = ref.entropy_target(n, d)
    bound = math.comb(n + d - 1, d - 1) ** 2
    ck.close("target", data["target"], target, 1e-12)
    ck.close("gap", data["gap"], data["target"] - data["entropy"], 1e-12)
    ck.true(f"rank {data['rank']} above {bound}", data["rank_bound"] == bound and data["rank"] <= bound)
    if d == 2:
        ck.close("entropy vs log2 C(n+2,2)", data["entropy"], target, 1e-8)
    else:
        ck.true(f"entropy {data['entropy']} above target", data["entropy"] <= target + 1e-9)
        ck.true("below_target flag", data["below_target"] is True)
        ck.close("weights sum", sum(data["q"].values()), 1.0, 1e-9)
        ck.true("trivial sector weight", 0.0 < data["trivial_sector_weight"] <= 1.0)
        ck.close("flat trivial sector", data["trivial_sector_flat"], 1.0 / bound, 1e-15)


def _check_emit(q, n, theta, text, ck):
    ancilla = (n + 1).bit_length() - 1
    rng = np.random.default_rng(q["state_seed"])
    phi, psi = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    inp = phi
    for _ in range(n):
        inp = np.kron(inp, psi)
    state = np.zeros(2 ** (ancilla + 1 + n), dtype=complex)
    state[: inp.size] = inp
    out, counts = ref.simulate_gate_text(text, state)
    ck.true(f"gate counts {counts}", counts.get("CSWAP") == 2 * n * ancilla and counts.get("H") == 4 * ancilla)
    ck.true(f"theta header in {text[:80]!r}", f"# theta: {theta!r}" in text)
    ck.close("emitted circuit vs sum c_l C^l", out[: inp.size], ref.r_theta_dense(n, theta) @ inp, 1e-10)
    ck.close("ancilla leakage", out[inp.size:], 0.0, 1e-10)


KINDS = {
    "covariant": (None, run_covariant, check_covariant),
    "theta_star": (None, run_theta_star, check_theta_star),
    "lmr_improvement": (None, run_lmr_improvement, check_lmr_improvement),
    "landscape": (None, run_landscape, check_landscape),
    "boundary": (None, run_boundary, check_boundary),
    "solve_q": (None, run_solve_q, check_solve_q),
    "ensemble": (None, run_ensemble, check_ensemble),
    "dense_channel": (prepare_dense_channel, run_dense_channel, check_dense_channel),
    "circuit_dense": (None, run_circuit_dense, check_circuit_dense),
    "sym_encoder": (None, run_sym_encoder, check_sym_encoder),
    "sym_projector": (None, run_sym_projector, check_sym_projector),
    "cli": (None, run_cli, check_cli),
}
