import numpy as np
import pytest

from cosetlab import decision_theory as dt


def test_worked_example():
    # posterior (0.9, 0.1) at both observations
    prob = dt.DecisionProblem(np.array([[0.45, 0.45], [0.05, 0.05]]))
    assert dt.rule_error(prob, dt.posterior_rule(prob)) == pytest.approx(0.18, abs=1e-12)
    rule = dt.map_rule(prob)
    assert np.array_equal(rule.table, np.eye(2)[[0, 0]])
    assert dt.rule_error(prob, rule) == pytest.approx(0.1, abs=1e-12)
    report = dt.verify_factor2(prob)
    assert report.passed and report.ratio == pytest.approx(1.8, abs=1e-12)


def test_uniform_posterior_every_rule_errs_half():
    prob = dt.DecisionProblem(np.full((2, 2), 0.25))
    assert dt.rule_error(prob, dt.map_rule(prob)) == pytest.approx(0.5, abs=1e-12)
    assert dt.rule_error(prob, dt.posterior_rule(prob)) == pytest.approx(0.5, abs=1e-12)
    swapped = dt.DecisionRule(np.eye(2)[[1, 1]])
    assert dt.rule_error(prob, swapped) == pytest.approx(0.5, abs=1e-12)


def test_deterministic_posterior_is_errorless():
    prob = dt.DecisionProblem(np.array([[0.5, 0.0], [0.0, 0.5]]))
    report = dt.verify_factor2(prob)
    assert report.err_map == 0.0 and report.err_posterior == 0.0 and report.passed


def test_point_mass_posterior():
    prob = dt.DecisionProblem(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert dt.rule_error(prob, dt.map_rule(prob)) == 0.0


def test_map_tie_breaks_to_smallest_index():
    prob = dt.DecisionProblem(np.full((3, 2), 1 / 6))
    assert np.array_equal(dt.map_rule(prob).table, np.eye(3)[[0, 0]])


def test_posterior_error_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        prob = dt.random_problem(rng)
        closed = sum(prob.p_v[v] * (1.0 - float((prob.posterior[:, v] ** 2).sum()))
                     for v in range(prob.v_size))
        assert dt.rule_error(prob, dt.posterior_rule(prob)) == pytest.approx(closed, abs=1e-12)


def test_factor_two_holds_on_thousand_problems():
    for prob in dt.random_problems(1000, seed=99):
        assert dt.verify_factor2(prob).passed


def test_map_is_optimal_among_random_rules():
    rng = np.random.default_rng(123)
    for prob in dt.random_problems(100, seed=7):
        best = dt.rule_error(prob, dt.map_rule(prob))
        for _ in range(5):
            table = rng.random((prob.v_size, prob.u_size))
            table /= table.sum(axis=1, keepdims=True)
            rule = dt.DecisionRule(table)
            assert best <= dt.rule_error(prob, rule) + 1e-12


def test_rule_validation():
    prob = dt.DecisionProblem(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="rule table"):
        dt.DecisionRule(np.array([[0.5, 0.6], [0.5, 0.5]]))
    # one observation's row against a problem with two
    with pytest.raises(ValueError, match="alphabets"):
        dt.rule_error(prob, dt.DecisionRule(np.array([[1.0, 0.0]])))


def test_problem_validation():
    with pytest.raises(ValueError):
        dt.DecisionProblem(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        dt.DecisionProblem(np.array([[-0.1, 1.1]]))
