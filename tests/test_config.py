import pytest

from reflectron.config import (
    DEFAULT_BUDGET_ENTRIES,
    DimensionBudgetError,
    budget_entries,
    ensure_operator_budget,
)
from reflectron.tensor_core import symmetric_projector


def test_default_budget():
    assert budget_entries() == DEFAULT_BUDGET_ENTRIES == 2**22


def test_env_override(monkeypatch):
    monkeypatch.setenv("REFLECTRON_BUDGET", "63")
    assert budget_entries() == 63
    ensure_operator_budget(7)
    with pytest.raises(DimensionBudgetError):
        ensure_operator_budget(8)
    with pytest.raises(DimensionBudgetError, match="symmetric projector of dimension 8x8"):
        symmetric_projector(3, 2)
    monkeypatch.setenv("REFLECTRON_BUDGET", "-5")
    with pytest.raises(ValueError):
        budget_entries()


def test_every_size_check_reads_one_message():
    # config._check_n and config._check_d are the one home of these two checks
    import numpy as np

    from reflectron.cyclic import r_theta_coeffs
    from reflectron.distances import mr_diamond_distance
    from reflectron.optima import boundary_curve, landscape, lmr_equal_angle_distance, theta_star
    from reflectron.repthy import (
        build_probe,
        conjecture_system_d2,
        final_lower_bound,
        lower_bound_fd,
        maximize_entropy_over_q,
        twirl,
    )
    from reflectron.universal import budget

    calls = {
        "need n >= 1, got n = 0": [
            lambda: r_theta_coeffs(0, 1.0),
            lambda: mr_diamond_distance(0, 2),
            lambda: theta_star(0, 1.0),
            lambda: lmr_equal_angle_distance(0, 1.0),
            lambda: landscape(0),
            lambda: boundary_curve(0),
            lambda: conjecture_system_d2(0),
            lambda: build_probe(0, 3, {(): 1.0}),
        ],
        "need d >= 2, got d = 1": [
            lambda: mr_diamond_distance(2, 1),
            lambda: budget(1, 0.1, []),
            lambda: twirl(np.eye(1), 1, 1),
            lambda: maximize_entropy_over_q(1, 1),
            lambda: lower_bound_fd(0.1, 1, 1),
            lambda: final_lower_bound(0.1, 1),
        ],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=message):
                call()
