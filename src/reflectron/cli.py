"""Command-line front end. Emits versioned JSON or CSV; identical argument
vectors (including seed) produce byte-identical output on the same machine
and BLAS thread count."""

import argparse
import json
import sys
from functools import lru_cache
from math import isfinite, pi

import numpy as np

from . import __version__
from .config import ConsistencyError, DimensionBudgetError, _check_n, ensure_vector_budget
from .circuits import apply_circuit, build_rotation_circuit, export_circuit, gate_counts
from .cyclic import apply_element, lmr_coeffs, optimal_angle, optimal_reflection_coeffs, r_theta_coeffs
from .distances import (
    _default_psi,
    _mr_distance_at_p,
    closed_form_rotation_distance,
    diamond_covariant,
    mr_diamond_distance,
)
from .optima import (
    boundary_curve,
    domain_classify,
    landscape,
    lmr_equal_angle_distance,
    lmr_improved_angle,
    theta_star,
)
from .repthy import (
    asymptotic_regime,
    build_probe_d2,
    ensemble_entropy_rank,
    entropy_target,
    final_lower_bound,
    lower_bound_fd,
    maximize_entropy_over_q,
    n_of_eps,
    solve_q_d2,
    support_bound,
)
from .tensor_core import _kron_fold, haar_random_state, haar_random_unitary
from .universal import budget as universal_budget
from .universal import scaling_fit, verify_budget
from . import selftest as _selftest

SCHEMA = 1


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, so it exits 1 with the same
    `error: validation:` prefix as every other rejected input."""

    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def parse_angle(token: str) -> float:
    """Accept 'pi', 'pi/2', '2pi/3', or a decimal literal; the angle must be finite."""
    text = str(token).strip().lower().replace(" ", "")
    head, has_pi, tail = text.partition("pi")
    try:
        if not has_pi:
            value = float(text)
        elif tail and not tail.startswith("/"):
            raise ValueError(tail)
        else:
            num = float(head) if head not in ("", "+", "-") else -1.0 if head == "-" else 1.0
            value = num * pi / (float(tail[1:]) if tail else 1.0)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse angle {token!r}") from exc
    if not isfinite(value):
        raise CliError(f"angle must be finite, got {token!r}")
    return value


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(args, text: str):
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict):
    payload = {"schema": SCHEMA, **payload}
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")


def _check_d(d: int):
    """Reject a local dimension below 2 before any state of that size is built."""
    if d < 2:
        raise CliError(f"need --d >= 2, got {d}")


def _algo_element(args, n: int, alpha: float):
    _check_n(n)
    if args.algo == "optimal":
        return optimal_reflection_coeffs(n), optimal_angle(n)
    if args.algo == "theta":
        theta = parse_angle(args.theta) if args.theta is not None else alpha
        return r_theta_coeffs(n, theta), theta
    # "lmr": argparse admits no other choice
    theta = parse_angle(args.theta) if args.theta is not None else alpha / n
    if not isfinite(n * theta):  # the phases of lmr_coeffs are tail sums of the angles
        raise CliError(f"need a finite total angle n * theta, got {n} * {theta}")
    return lmr_coeffs(np.broadcast_to(theta, n)), theta


def cmd_distance(args) -> int:
    _check_d(args.d)
    alpha = parse_angle(args.alpha)
    element, theta = _algo_element(args, args.n, alpha)
    value, p_star = diamond_covariant(element, alpha, psi=_default_psi(args.d))
    _emit_json(
        args,
        {
            "n": args.n,
            "d": args.d,
            "alpha": alpha,
            "theta": theta,
            "algo": args.algo,
            "value": value,
            "closed_form": closed_form_rotation_distance(element, alpha),
            "argmax_p": p_star,
            "branch": domain_classify(element, alpha).value,
        },
    )
    return 0


def cmd_landscape(args) -> int:
    points = landscape(args.n, args.grid, args.grid)
    lines = ["r,u,value"]
    columns = (points["r"].tolist(), points["u"].tolist(), points["value"].tolist())
    lines.extend(f"{r!r},{u!r},{value!r}" for r, u, value in zip(*columns))
    # the boundary file is written first, so a path that cannot be written
    # fails before any of the surface reaches stdout
    if args.boundary_out:
        boundary = ["r,u"]
        boundary.extend(f"{float(r)!r},{float(u)!r}" for r, u in boundary_curve(args.n))
        _write_file(args.boundary_out, "\n".join(boundary) + "\n")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_theta_star(args) -> int:
    if not isfinite(args.alpha_max - args.alpha_min):
        raise CliError(f"need a finite alpha range, got [{args.alpha_min}, {args.alpha_max}]")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.num)
    lines = ["alpha,theta_star,distance"]
    for alpha in alphas:
        ts = theta_star(args.n, float(alpha))
        dist = closed_form_rotation_distance(r_theta_coeffs(args.n, ts), float(alpha))
        lines.append(f"{float(alpha)!r},{ts!r},{dist!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_lmr(args) -> int:
    alpha = parse_angle(args.alpha)
    payload = {
        "n": args.n,
        "alpha": alpha,
        "distance_equal_angle": lmr_equal_angle_distance(args.n, alpha),
    }
    if args.n > 2:
        payload["theta_prime"] = lmr_improved_angle(args.n, alpha)
        payload["distance_improved"] = lmr_equal_angle_distance(args.n, alpha, payload["theta_prime"])
        payload["gap"] = payload["distance_equal_angle"] - payload["distance_improved"]
    _emit_json(args, payload)
    return 0


def cmd_mr(args) -> int:
    _check_d(args.d)
    value, p_best = mr_diamond_distance(args.n, args.d)
    _emit_json(
        args,
        {
            "n": args.n,
            "d": args.d,
            "value": value,
            "argmax_p": p_best,
            # the distance at p = 1, 8(n+1)(d-1)/((n+d+1)(n+d)) in exact arithmetic
            "lower_bound": _mr_distance_at_p(args.n, args.d, 1.0),
            "asymptote_times_n": 8.0 * (args.d - 1),
        },
    )
    return 0


def cmd_lb_solve_q(args) -> int:
    spec, residual = solve_q_d2(args.n)
    _emit_json(
        args,
        {
            "n": args.n,
            "two_j": sorted(spec.q),
            "q": [spec.q[tj] for tj in sorted(spec.q)],
            "residual": residual,
        },
    )
    return 0


def cmd_lb_twirl(args) -> int:
    if args.d == 2:
        spec, _ = solve_q_d2(args.n)
        probe = build_probe_d2(args.n, spec)
        entropy, rank = ensemble_entropy_rank(args.n, 2, probe)
        target = entropy_target(args.n, 2)
        _emit_json(
            args,
            {
                "n": args.n,
                "d": 2,
                "entropy": entropy,
                "target": target,
                "gap": target - entropy,
                "rank": rank,
                "rank_bound": support_bound(args.n, 2),
            },
        )
        return 0
    report = maximize_entropy_over_q(args.n, args.d, restarts=args.restarts, seed=args.seed)
    _emit_json(
        args,
        {
            "n": args.n,
            "d": args.d,
            "entropy": report.entropy,
            "target": report.target,
            "gap": report.gap,
            "below_target": report.below_target,
            "rank": report.rank,
            "rank_bound": report.rank_bound,
            "basis": report.basis,
            "q": {str(k): v for k, v in sorted(report.probe.q.items())},
            "trivial_sector_weight": report.trivial_sector_weight,
            "trivial_sector_flat": report.trivial_sector_flat,
        },
    )
    return 0


def cmd_lb_fd(args) -> int:
    n_star = n_of_eps(args.eps, args.d)
    final_bound = final_lower_bound(args.eps, args.d)
    _emit_json(
        args,
        {
            "d": args.d,
            "eps": args.eps,
            "n_star": n_star,
            "f_d": lower_bound_fd(args.eps, max(1, int(round(n_star))), args.d),
            "final_bound": final_bound,
            "asymptotic_regime": asymptotic_regime(args.eps, args.d),
            "vacuous": final_bound <= 0.0,
        },
    )
    return 0


def cmd_u_budget(args) -> int:
    rep = universal_budget(args.d, args.eps, [pi] * (args.d - 1))
    slope, intercept = scaling_fit()
    _emit_json(
        args,
        {
            "d": args.d,
            "eps": args.eps,
            "K": rep.K,
            "n_copies": rep.n_copies,
            "delta_encoder": rep.delta_encoder,
            "phase_qubits": rep.phase_qubits,
            "copy_count_qubits": rep.copy_count_qubits,
            "symmetric_program_qubits": rep.symmetric_program_qubits,
            "total_qubits": rep.total_qubits,
            "scaling_fit_slope": slope,
            "scaling_fit_intercept": intercept,
        },
    )
    return 0


def cmd_u_verify(args) -> int:
    _check_d(args.d)
    if args.targets < 1:
        raise CliError(f"need --targets >= 1, got {args.targets}")
    if args.trials < 1:
        raise CliError(f"need --trials >= 1, got {args.trials}")
    # each target takes the next two children of one SeedSequence, its unitary's
    # and its probes' seeds, so no two --seed values share a target or a probe
    root = np.random.SeedSequence(args.seed)
    reports = []
    for _ in range(args.targets):
        target_seed, probe_seed = root.spawn(2)
        U = haar_random_unitary(args.d, target_seed)
        reports.append(verify_budget(U, args.eps, trials=args.trials, seed=probe_seed))
    worst = max(reports, key=lambda r: r.sampled_distance)
    _emit_json(
        args,
        {
            "d": args.d,
            "eps": args.eps,
            "targets": args.targets,
            "trials": args.trials,
            "all_passed": all(r.passed for r in reports),
            "worst_sampled_distance": worst.sampled_distance,
            "worst_slack": worst.slack,
        },
    )
    return 0


def cmd_c_emit(args) -> int:
    circ = build_rotation_circuit(args.n, parse_angle(args.theta))
    _emit(args, export_circuit(circ))
    return 0


def cmd_c_verify(args) -> int:
    theta = 1.234
    circ = build_rotation_circuit(args.n, theta)
    counts = gate_counts(circ)
    expected = 2 * args.n * circ.ancilla
    ensure_vector_budget(2**circ.total_qubits, "circuit state")
    rng = np.random.default_rng(args.seed)
    phi = haar_random_state(2, rng).amplitudes
    psi = haar_random_state(2, rng).amplitudes
    inp = _kron_fold(phi, psi, args.n)
    state = np.zeros(2**circ.total_qubits, dtype=complex)
    state[: inp.size] = inp  # ancilla starts in |0...0>
    out = apply_circuit(circ, state)
    ref = apply_element(r_theta_coeffs(args.n, theta), 2, inp)
    err = float(np.abs(out[: inp.size] - ref).max())
    leak = float(np.linalg.norm(out[inp.size :]))
    _emit_json(
        args,
        {
            "n": args.n,
            "cswap_count": counts.get("cswap", 0),
            "cswap_expected": expected,
            "counts": counts,
            "dense_error": err,
            "ancilla_leakage": leak,
            "passed": bool(counts.get("cswap", 0) == expected and err < 1e-10 and leak < 1e-10),
        },
    )
    return 0


def cmd_selftest(args) -> int:
    lines = []
    failures, checks = _selftest.run(write=lines.append)
    _emit(args, "".join(line + "\n" for line in lines))
    if failures:
        raise ConsistencyError(f"{failures} of {checks} selftest checks failed")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None)

    parser = _Parser(
        prog="reflectron",
        description="Programmable reflections and rotations about unknown states",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[common], help="diamond distance of an algorithm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--alpha", type=str, default="pi")
    p.add_argument("--algo", choices=["optimal", "theta", "lmr"], default="optimal")
    p.add_argument("--theta", type=str, default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("landscape", parents=[common], help="(r, u) distance landscape CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=513)
    p.add_argument("--boundary-out", type=str, default=None)
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("theta-star", parents=[common], help="optimal angle curve CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-min", type=float, default=0.01)
    p.add_argument("--alpha-max", type=float, default=float(pi))
    p.add_argument("--num", type=int, default=64)
    p.set_defaults(func=cmd_theta_star)

    p = sub.add_parser("lmr", parents=[common], help="sequential channel distances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, default="pi")
    p.set_defaults(func=cmd_lmr)

    p = sub.add_parser("mr", parents=[common], help="measure-and-reflect distance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_mr)

    p = sub.add_parser("lowerbound", help="program-dimension lower bound tools")
    lb = p.add_subparsers(dest="lb_command", required=True)
    q = lb.add_parser("solve-q", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_lb_solve_q)
    q = lb.add_parser("twirl", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, default=2)
    q.add_argument("--restarts", type=int, default=20)
    q.set_defaults(func=cmd_lb_twirl)
    q = lb.add_parser("fd", parents=[common])
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--d", type=int, required=True)
    q.set_defaults(func=cmd_lb_fd)

    p = sub.add_parser("universal", help="universal processor budget and verification")
    uv = p.add_subparsers(dest="u_command", required=True)
    q = uv.add_parser("budget", parents=[common])
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.set_defaults(func=cmd_u_budget)
    q = uv.add_parser("verify", parents=[common])
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--eps", type=float, required=True)
    q.add_argument("--trials", type=int, default=50)
    q.add_argument("--targets", type=int, default=5)
    q.set_defaults(func=cmd_u_verify)

    p = sub.add_parser("circuit", help="gate-level rotation circuit tools")
    cv = p.add_subparsers(dest="c_command", required=True)
    q = cv.add_parser("emit", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--theta", type=str, required=True)
    q.set_defaults(func=cmd_c_emit)
    q = cv.add_parser("verify", parents=[common])
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_c_verify)

    p = sub.add_parser("selftest", parents=[common], help="run the fast invariant battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return 0 if exc.code in (0, None) else 1
    except (CliError, ValueError, OverflowError) as exc:  # an integer flag too large for a float
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except DimensionBudgetError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: consistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
