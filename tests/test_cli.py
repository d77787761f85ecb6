import argparse
import contextlib
import io
import json
import os
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reflectron.cli as cli
from reflectron import selftest as _selftest
from reflectron.config import ConsistencyError
from channel_oracle import lmr_series_distance


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_angle_tokens():
    assert cli.parse_angle("pi") == pi
    assert cli.parse_angle("pi/2") == pi / 2
    assert cli.parse_angle("2pi/3") == 2 * pi / 3
    assert cli.parse_angle("-pi/4") == -pi / 4
    assert cli.parse_angle("0.75") == 0.75
    with pytest.raises(cli.CliError):
        cli.parse_angle("two pies")


def test_distance_optimal_json(capsys):
    code, out, _ = run(["distance", "--n", "2", "--alpha", "pi", "--algo", "optimal"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["value"] - 1.6) < 1e-9
    assert payload["branch"] == "B"


def test_distance_theta_pi(capsys):
    code, out, _ = run(
        ["distance", "--n", "3", "--alpha", "pi", "--algo", "theta", "--theta", "pi"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["value"] - 1.5) < 1e-9
    assert payload["branch"] == "A"


def test_landscape_row_count(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run(["landscape", "--n", "4", "--grid", "33", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "r,u,value"
    assert len(lines) == 1 + 33 * 33
    assert "np.float64" not in lines[1]
    assert float(lines[1].split(",")[2]) == 2.0


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            ["universal", "verify", "--d", "2", "--eps", "0.3", "--trials", "20",
             "--targets", "2", "--seed", "11", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_universal_verify_seeds_share_no_target(capsys):
    # target k once took seed + k and its probes seed + 1000 + k, so --seed 0
    # and --seed 1 shared seven of eight targets and printed the same line
    worst = []
    for seed in ("0", "1"):
        code, out, _ = run(
            ["universal", "verify", "--d", "2", "--eps", "0.2", "--trials", "40",
             "--targets", "8", "--seed", seed],
            capsys,
        )
        assert code == 0
        worst.append(json.loads(out)["worst_sampled_distance"])
    assert worst[0] != worst[1]


def test_universal_binary_angles_take_at_least_one_bit(capsys):
    # at eps >= 6 pi (d - 1) the width formula alone reads K <= 0
    code, out, _ = run(["universal", "budget", "--d", "2", "--eps", "100"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["K"] == 1 and payload["phase_qubits"] == 1
    code, out, err = run(
        ["universal", "verify", "--d", "2", "--eps", "20", "--trials", "5", "--targets", "1"], capsys
    )
    assert (code, err) == (0, "") and json.loads(out)["all_passed"]


def test_lowerbound_solve_q(capsys):
    code, out, _ = run(["lowerbound", "solve-q", "--n", "6"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["residual"] < 1e-8
    assert abs(sum(payload["q"]) - 1.0) < 1e-9


def test_lowerbound_fd(capsys):
    code, out, _ = run(["lowerbound", "fd", "--eps", "1e-6", "--d", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["asymptotic_regime"] is True
    n = payload["n_star"]
    assert abs(n * np.log(n) - 1 / (2 * 4 * np.sqrt(2e-6))) < 1e-6 * n


def test_circuit_emit_and_verify(tmp_path, capsys):
    out_file = tmp_path / "circ.txt"
    code, _, _ = run(["circuit", "emit", "--n", "3", "--theta", "pi/3", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# registers: ancilla=2 system=1 program=3")
    assert sum(1 for line in text.splitlines() if line.startswith("CSWAP")) == 12
    code, out, _ = run(["circuit", "verify", "--n", "3"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["passed"]


def test_mr_subcommand(capsys):
    code, out, _ = run(["mr", "--n", "2", "--d", "2"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["value"] - 1.2) < 1e-9


@pytest.mark.parametrize("d", [3, 20, 65])
def test_mr_endpoint_maximum_equals_lower_bound(capsys, d):
    # the maximum sits at p = 1, where the distance is the lower bound itself
    code, out, _ = run(["mr", "--n", "64", "--d", str(d)], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["argmax_p"] == 1.0
    assert payload["value"] == payload["lower_bound"]


def test_mr_lower_bound_never_exceeds_value(monkeypatch):
    # lower_bound is the distance at p = 1, so the maximum over p is never
    # below it, and is it for d <= n + 1
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", lambda args, payload: payloads.append(payload))
    for n in range(1, 300):
        for d in range(2, n + 40):
            assert cli.cmd_mr(argparse.Namespace(n=n, d=d)) == 0
    assert len(payloads) == 56212
    for payload in payloads:
        if payload["d"] <= payload["n"] + 1:
            assert payload["lower_bound"] == payload["value"], payload
        else:
            assert payload["lower_bound"] <= payload["value"], payload


def _readme_mr_table():
    """(argv, value, argmax_p, n · value, 8(d − 1)) of each row of the README's
    measure-and-reflect table, as the table prints them."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as f:
        text = f.read()
    section = text.split("### Measure-and-reflect against its asymptote", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0].startswith("`mr "):
            rows.append((cells[0].strip("`").split(), *cells[1:5]))
    return rows


def test_readme_mr_table_matches_the_cli(capsys):
    rows = _readme_mr_table()
    assert len(rows) == 20
    for argv, value, argmax_p, n_value, asymptote in rows:
        code, out, _ = run(argv, capsys)
        payload = json.loads(out)
        assert code == 0
        assert (repr(payload["value"]), repr(payload["argmax_p"])) == (value, argmax_p), argv
        assert f"{payload['n'] * payload['value']:.4f}" == n_value, argv
        assert f"{payload['asymptote_times_n']:.0f}" == asymptote, argv


def test_distance_checks_at_the_requested_d(capsys, monkeypatch):
    import reflectron.distances as distances

    argv = ["distance", "--n", "3", "--alpha", "pi"]
    _, default, _ = run(argv, capsys)
    assert run(argv + ["--d", "2"], capsys)[1] == default
    dims = []
    dense = distances._dense_distance_at_p

    def spy(e, alpha, p, psi):
        dims.append(psi.dim)
        return dense(e, alpha, p, psi)

    monkeypatch.setattr(distances, "_dense_distance_at_p", spy)
    code, out, _ = run(argv + ["--d", "3"], capsys)
    assert code == 0 and dims == [3]
    assert json.loads(out) == {**json.loads(default), "d": 3}


def test_import_loads_no_scipy():
    # the library runs on numpy alone; importing scipy.optimize once took most of the import time.
    # fractions and decimal (~1.8 ms) belong to the exact-rational test oracles only
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, reflectron, reflectron.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal')))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_lowerbound_twirl_loads_no_numpy_ma():
    # np.unique(..., axis=0) imports numpy.ma, 11-17 ms of a fresh process
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, reflectron.cli as cli; "
        "cli.main(['lowerbound', 'twirl', '--n', '2', '--d', '3']); "
        "print('numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_validation_error_exit_code(capsys):
    code, _, err = run(["distance", "--n", "2", "--alpha", "three"], capsys)
    assert code == 1
    assert "validation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["lowerbound", "twirl", "--n", "1", "--d", "1"],
        ["lowerbound", "fd", "--eps", "1e-5", "--d", "1"],
        ["lowerbound", "fd", "--eps", "nan", "--d", "2"],
        ["lowerbound", "fd", "--eps", "1e-6", "--d", str(10**80)],  # was an OverflowError
        ["lowerbound", "fd", "--eps", "1e-6", "--d", str(10**200)],
    ],
)
def test_lowerbound_invalid_input_exit_code(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: validation:")
    assert "Traceback" not in err


@pytest.mark.parametrize("eps, d, vacuous", [("2", "2", True), ("1e-6", "3", False), ("0.01", "2", False)])
def test_lowerbound_fd_flags_a_vacuous_bound(eps, d, vacuous, capsys):
    code, out, _ = run(["lowerbound", "fd", "--eps", eps, "--d", d], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["schema"] == 1
    assert payload["vacuous"] is vacuous
    assert payload["vacuous"] == (payload["final_bound"] <= 0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["circuit", "verify", "--n", "31"],  # 2^37-amplitude circuit state
        ["lowerbound", "twirl", "--n", "6", "--d", "2"],  # 4096-dim twirl
        ["lowerbound", "twirl", "--n", "4", "--d", "3"],  # 6561-dim twirl
        ["lowerbound", "twirl", "--n", "2", "--d", "7"],  # 2401-dim twirl
        ["lowerbound", "solve-q", "--n", "4096"],  # 2049x2049 d = 2 conjecture system
        ["distance", "--n", "2", "--d", "1000"],  # 10^12-entry phi_p block stack of the oracle
    ],
)
def test_budget_error_exit_code(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: budget:")
    assert "Traceback" not in err


def test_lowerbound_solve_q_at_the_default_budget_edge(capsys):
    # the largest n whose (n//2 + 1)^2 system fits the default 2^22 entries
    code, out, _ = run(["lowerbound", "solve-q", "--n", "4095"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert len(payload["q"]) == len(payload["two_j"]) == 2048
    assert min(payload["q"]) > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_universal_verify_admission_does_not_depend_on_the_seed(seed, capsys, monkeypatch):
    # the worst case, a phase of pi, needs ceil(9 (d - 1) pi / eps) + 1 = 1132
    # coefficients at d = 5, eps = 0.1, whatever target the seed draws
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    argv = ["universal", "verify", "--d", "5", "--eps", "0.1", "--trials", "1", "--targets", "1"]
    code, out, err = run(argv + ["--seed", str(seed)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: budget: cyclic element coefficients of dimension 1132")
    assert "Traceback" not in err


def test_circuit_verify_without_dense_operator(capsys):
    # 2^20 amplitudes fit the default budget; a dense 2^16 x 2^16 reference would not
    code, out, _ = run(["circuit", "verify", "--n", "15"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_lowerbound_twirl_below_budget_edge(capsys):
    # d^(2n) = 1296, within the 2048 that the default budget admits
    code, out, _ = run(["lowerbound", "twirl", "--n", "2", "--d", "6", "--restarts", "2"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["rank"] <= payload["rank_bound"] == 441
    assert payload["entropy"] <= payload["target"] + 1e-9


def test_cached_parser_output_matches_fresh_parser(capsys):
    first = ["distance", "--n", "3", "--alpha", "pi/2", "--algo", "theta", "--theta", "pi/3"]
    second = ["lowerbound", "solve-q", "--n", "5", "--seed", "3"]
    fresh = []
    for argv in (first, second):
        cli.build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    cached = [run(argv, capsys) for argv in (first, second, first)]
    assert cli.build_parser() is cli.build_parser()
    assert cached == [fresh[0], fresh[1], fresh[0]]
    assert fresh[0][0] == 0 and fresh[0][1]


def test_usage_error_exit_code(capsys):
    for argv in (["distance"], ["no-such-command"], ["distance", "--n", "2", "--alpha", "-pi/4"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: validation: ") and "\nusage: reflectron" in err


def test_consistency_error_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConsistencyError("forced")

    monkeypatch.setattr(cli, "diamond_covariant", boom)
    code, _, err = run(["distance", "--n", "2"], capsys)
    assert code == 2
    assert "consistency" in err


def test_selftest_subcommand(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_selftest_failures_exit_2_with_an_error_line(monkeypatch, capsys):
    monkeypatch.setenv("REFLECTRON_BUDGET", "10")
    code, out, err = run(["selftest"], capsys)
    report = []
    _selftest.run(write=report.append)
    assert out == "".join(line + "\n" for line in report)
    verdicts = [line for line in report if line.startswith(("[PASS]", "[FAIL]"))]
    failed = sum(line.startswith("[FAIL]") for line in verdicts)
    assert code == 2 and failed > 0
    assert err == f"error: consistency: {failed} of {len(verdicts)} selftest checks failed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lmr", "--n", "0", "--alpha", "1"],
        ["universal", "verify", "--d", "1", "--eps", "0.2"],
        ["universal", "budget", "--d", "1", "--eps", "0.1"],
        ["distance", "--n", "2", "--alpha", "nan"],
        ["distance", "--n", "0", "--algo", "lmr"],  # was a ZeroDivisionError traceback
        ["distance", "--n", "-3", "--algo", "lmr", "--theta", "1"],
    ],
)
def test_invalid_size_and_angle_exit_code(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: validation:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["universal", "verify", "--d", "2", "--eps", "inf", "--trials", "4"], "epsilon"),
        (["universal", "budget", "--d", "2", "--eps", "inf"], "epsilon"),
        (["universal", "budget", "--d", "2", "--eps", "nan"], "epsilon"),
        (["universal", "verify", "--d", "2", "--eps", "nan"], "epsilon"),
        (["universal", "verify", "--d", "2", "--eps", "0.2", "--trials", "-1"], "trials"),
        (["universal", "verify", "--d", "2", "--eps", "0.2", "--targets", "0"], "targets"),
        (["universal", "verify", "--d", "2", "--eps", "0.2", "--targets", "-2"], "targets"),
        (["landscape", "--n", "0", "--grid", "5"], "need n >= 1"),
        (["landscape", "--n", "-3", "--grid", "3"], "need n >= 1"),
        (["landscape", "--n", "4", "--grid", "0"], "grid"),
        (["mr", "--n", "3", "--d", "0"], "need --d >= 2"),
        (["mr", "--n", "3", "--d", "-1"], "need --d >= 2"),
        (["mr", "--n", "3", "--d", "1"], "need --d >= 2"),
        (["universal", "verify", "--d", "0", "--eps", "0.2"], "need --d >= 2"),
        (["universal", "verify", "--d", "-2", "--eps", "0.2"], "need --d >= 2"),
        (["universal", "verify", "--d", "1", "--eps", "0.2"], "need --d >= 2"),
        (["distance", "--n", "3", "--d", "0"], "need --d >= 2"),
        (["distance", "--n", "3", "--d", "1"], "need --d >= 2"),
        (["distance", "--n", "3", "--d", "-5"], "need --d >= 2"),
        (["lowerbound", "twirl", "--n", "-1", "--d", "3"], "need n >= 1"),  # was a TypeError
        (["lowerbound", "twirl", "--n", "0", "--d", "3"], "need n >= 1"),  # was a matmul error
        (["lowerbound", "twirl", "--n", "2", "--d", "3", "--restarts", "0"], "need restarts >= 1"),
        (["lowerbound", "twirl", "--n", "2", "--d", "3", "--restarts", "-4"], "need restarts >= 1"),
        (["universal", "budget", "--d", "8", "--eps", "5e-324"], "epsilon"),  # was an OverflowError
        (["lowerbound", "fd", "--eps", "5e-324", "--d", "3"], "epsilon"),  # was NaN to integer
        (["distance", "--n", "2", "--alpha", "inf"], "angle must be finite"),
        (["distance", "--n", "2", "--alpha", "pi/0"], "cannot parse angle"),
        (["distance", "--n", "3", "--algo", "lmr", "--theta", "1e308"], "total angle"),
        (["theta-star", "--n", "4", "--alpha-min=-inf"], "alpha range"),
        (["lowerbound", "fd", "--eps", "pi", "--d", "2"], "invalid float value"),
        (["lowerbound", "fd", "--eps", "1e308", "--d", "2"], "underflows"),  # was a math domain error
        # integer flags too large for a float or an index; each was an OverflowError traceback
        (["mr", "--n", str(10**400), "--d", "2"], "too large"),
        (["mr", "--n", "2", "--d", str(10**400)], "too large"),
        (["lmr", "--n", str(10**400), "--alpha", "1"], "too large"),
        (["landscape", "--n", str(10**400), "--grid", "2"], "too large"),
        (["universal", "budget", "--d", str(10**400), "--eps", "0.1"], "index-sized integer"),
        (["distance", "--n", "3", "--alpha", "4"], "alpha must lie in [0, pi]"),
        # zero probes would report all_passed with no evidence
        (["universal", "verify", "--d", "2", "--eps", "0.2", "--trials", "0"], "need --trials >= 1, got 0"),
    ],
)
def test_universal_and_landscape_invalid_input_exit_code(argv, named, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: validation:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", range(1, 6))
def test_lowerbound_twirl_d2_matches_separate_entropy_and_rank(n, capsys):
    from reflectron.repthy import (
        build_probe_d2,
        ensemble_entropy,
        ensemble_entropy_rank,
        solve_q_d2,
    )

    code, out, _ = run(["lowerbound", "twirl", "--n", str(n), "--d", "2"], capsys)
    payload = json.loads(out)
    probe = build_probe_d2(n, solve_q_d2(n)[0])
    assert code == 0
    assert payload["entropy"] == ensemble_entropy(n, 2, probe)
    assert payload["rank"] == ensemble_entropy_rank(n, 2, probe)[1]


@pytest.mark.parametrize(
    "argv, largest, what",
    [
        (["landscape", "--n", "4", "--grid", "{k}"], 31, "landscape grid of dimension 1024"),
        (
            ["universal", "verify", "--d", "2", "--eps", "0.2", "--trials", "{k}", "--targets", "1"],
            250,
            "diamond probes of dimension 1004",
        ),
        (
            ["lowerbound", "solve-q", "--n", "{k}"],
            61,
            "d = 2 conjecture system of dimension 32x32",
        ),
        (["distance", "--n", "2", "--d", "{k}"], 5, "phi_p block stack of dimension 36x36"),
        (
            # at eps 0.2 even a phase-pi rotation's 9 (d - 1) pi / eps + 1 coefficients
            # fit the budget at d = 6, so the channel matrix binds for any target
            ["universal", "verify", "--d", "{k}", "--eps", "0.2", "--trials", "1", "--targets", "1"],
            5,
            "effective channel matrix of dimension 36x36",
        ),
    ],
    ids=["landscape", "universal-verify", "solve-q", "distance", "universal-verify-d"],
)
def test_dense_allocation_budget(argv, largest, what, capsys, monkeypatch):
    # grid^2 landscape rows, trials * d^2 probe amplitudes, an (n//2 + 1)^2 system,
    # d^4 phi_p blocks, a d^2 x d^2 effective channel
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    code, out, _ = run([a.format(k=largest) for a in argv], capsys)
    assert code == 0 and out
    code, out, err = run([a.format(k=largest + 1) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: budget: {what}")
    assert "Traceback" not in err


def test_mr_builds_nothing_of_size_d(capsys, monkeypatch):
    # the sector formula reads only n and d, so a d far past any d^4 budget runs
    monkeypatch.setenv("REFLECTRON_BUDGET", "1000")
    code, out, err = run(["mr", "--n", "64", "--d", "1000"], capsys)
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["lower_bound"] < payload["value"] <= 2.0
    assert 0.0 < payload["argmax_p"] < 1.0


def test_lowerbound_twirl_d3_regression_pin(capsys):
    code, out, _ = run(["lowerbound", "twirl", "--n", "2", "--d", "3"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["entropy"] - 5.062621016504507) < 1e-12
    assert abs(payload["trivial_sector_weight"] - 1 / 9) < 1e-12
    assert abs(payload["q"]["(1, 1)"] - 1 / 7) < 1e-6
    assert abs(payload["q"]["(2,)"] - 6 / 7) < 1e-6
    assert payload["basis"] == "highest-weight"


@pytest.mark.parametrize(
    "argv",
    [
        ["lmr", "--n", "{n}", "--alpha", "1"],
        ["distance", "--n", "{n}", "--alpha", "1", "--algo", "lmr"],
        ["distance", "--n", "{n}", "--alpha", "1", "--algo", "optimal"],
        ["distance", "--n", "{n}", "--alpha", "pi", "--algo", "theta", "--theta", "2"],
    ],
)
def test_coefficient_vector_budget(argv, capsys, monkeypatch):
    # n + 1 coefficients: n = 63 fills a 64-entry budget, n = 64 exceeds it
    monkeypatch.setenv("REFLECTRON_BUDGET", "64")
    code, out, _ = run([a.format(n=63) for a in argv], capsys)
    assert code == 0 and json.loads(out)["n"] == 63
    code, out, err = run([a.format(n=64) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: budget: cyclic element coefficients of dimension 65")
    assert "Traceback" not in err


def _series_close(value: float, n: int, alpha: float, theta: float) -> bool:
    want = lmr_series_distance(n, alpha, theta)
    return abs(value - want) <= 1e-13 * want


def test_lmr_distance_at_the_largest_n_exits_0(capsys):
    # past n ~ 9e5 a cumulative product of the cosines once drifted past
    # UNITARY_TOL and these exited 1; the invariants now come from the
    # log-cosines in closed form, and the tolerance is unchanged
    for n, alpha in (("4000000", "1"), ("4194303", "pi")):
        code, out, err = run(["distance", "--n", n, "--alpha", alpha, "--algo", "lmr"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert _series_close(payload["value"], int(n), payload["alpha"], payload["theta"])


@pytest.mark.parametrize("alpha", ["1", "pi/2", "pi"])
def test_lmr_distances_equal_the_series_oracle(alpha, capsys, monkeypatch):
    # n = 2^22 takes 2^22 + 1 coefficients, one past the default budget
    monkeypatch.setenv("REFLECTRON_BUDGET", str(2**23))
    for n in [2**k for k in range(12, 23)] + [4194303]:
        argv = ["--n", str(n), "--alpha", alpha]
        code, out, _ = run(["distance", *argv, "--algo", "lmr"], capsys)
        distance = json.loads(out)
        assert code == 0 and _series_close(distance["value"], n, distance["alpha"], distance["theta"])
        code, out, _ = run(["lmr", *argv], capsys)
        lmr = json.loads(out)
        assert code == 0 and _series_close(lmr["distance_equal_angle"], n, lmr["alpha"], lmr["alpha"] / n)
        assert _series_close(lmr["distance_improved"], n, lmr["alpha"], lmr["theta_prime"])


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--n", "3", "--alpha", "pi", "--out", "{path}"],
        ["landscape", "--n", "2", "--grid", "3", "--boundary-out", "{path}"],
        ["landscape", "--n", "2", "--grid", "3", "--out", "{path}"],
        ["mr", "--n", "3", "--d", "2", "--out", "{path}"],
        ["selftest", "--out", "{path}"],
    ],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_path_exit_code(argv, where, tmp_path, capsys):
    path = str(tmp_path / "missing" / "out.txt") if where == "missing-dir" else str(tmp_path)
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: validation: cannot write {path}: ")
    assert "Traceback" not in err


def test_landscape_boundary_file(tmp_path, capsys):
    from reflectron.optima import boundary_curve

    boundary = tmp_path / "boundary.csv"
    code, out, _ = run(["landscape", "--n", "3", "--grid", "9", "--boundary-out", str(boundary)], capsys)
    assert code == 0 and out.startswith("r,u,value\n") and len(out.splitlines()) == 82
    rows = boundary.read_text().splitlines()
    assert rows[0] == "r,u"
    assert [tuple(map(float, row.split(","))) for row in rows[1:]] == [
        (float(r), float(u)) for r, u in boundary_curve(3)
    ]


def test_selftest_out_writes_the_battery_to_file(tmp_path, capsys):
    code, printed, _ = run(["selftest"], capsys)
    target = tmp_path / "selftest.txt"
    code_file, out, err = run(["selftest", "--out", str(target)], capsys)
    assert code == code_file == 0
    assert out == "" and err == ""
    assert target.read_text() == printed
    assert printed.count("[PASS]") == len(printed.splitlines()) > 1


# --- argv fuzzing ------------------------------------------------------------

_INT = st.integers(min_value=-3, max_value=8).map(str)
_REAL = st.sampled_from(
    ["pi", "pi/2", "-pi/4", "0", "1.1", "nan", "inf", "-inf", "1e308", "5e-324", "two pies"]
)
# every flag of every subcommand except --out and --boundary-out, which write files
_FLAGS = {
    ("distance",): {
        "--n": _INT,
        "--d": _INT,
        "--alpha": _REAL,
        "--algo": st.sampled_from(["optimal", "theta", "lmr"]),
        "--theta": _REAL,
    },
    ("landscape",): {"--n": _INT, "--grid": _INT},
    ("theta-star",): {"--n": _INT, "--alpha-min": _REAL, "--alpha-max": _REAL, "--num": _INT},
    ("lmr",): {"--n": _INT, "--alpha": _REAL},
    ("mr",): {"--n": _INT, "--d": _INT},
    ("lowerbound", "solve-q"): {"--n": _INT},
    ("lowerbound", "twirl"): {"--n": _INT, "--d": _INT, "--restarts": _INT},
    ("lowerbound", "fd"): {"--eps": _REAL, "--d": _INT},
    ("universal", "budget"): {"--d": _INT, "--eps": _REAL},
    ("universal", "verify"): {"--d": _INT, "--eps": _REAL, "--trials": _INT, "--targets": _INT},
    ("circuit", "emit"): {"--n": _INT, "--theta": _REAL},
    ("circuit", "verify"): {"--n": _INT},
    ("selftest",): {},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_FLAGS[command], "--seed": _INT}
    argv = list(command)
    for flag in draw(st.permutations(sorted(flags))):
        value = draw(flags[flag])
        # "--flag=-pi/4" reaches the parser's value check; "--flag -pi/4" is a usage error
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_argv_fuzz_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REFLECTRON_BUDGET": "4096"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
