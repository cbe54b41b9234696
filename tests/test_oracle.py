import math

import numpy as np
import pytest

from orthoproj.errors import (ConfigurationError, DimensionError, NumericError,
                              PreconditionError)
from orthoproj.linalg import OrthonormalBasis, gram_schmidt, project_complement
from orthoproj.models import Batch, LossKind, ModelSpec, gradient
from orthoproj.oracle import (fd_gradient, gradient_agreement, steepest_check,
                              taylor_scaling)
from orthoproj.subspace import estimate_subspace


def steepest(g, basis, n_samples, rng):
    """steepest_check on g and its projection by the library."""
    return steepest_check(g, project_complement(g, basis), basis, n_samples, rng)


def step_directions(family):
    """The naive step direction (the safety gradient at theta0) and the
    projected one (its projection against a fresh capability subspace)."""
    g_safe = family.tasks["safety"].gradient(family.theta0)
    sub = estimate_subspace(family.theta0, family.capability_tasks, 1,
                            np.random.default_rng(0), 1e-6, 0)
    return g_safe, project_complement(g_safe, sub.basis)


class TestFdGradient:
    def test_quadratic_exact(self):
        spec = ModelSpec("quadratic", (2,))
        batch = Batch(np.eye(2), np.zeros(2))
        fd = fd_gradient(spec, LossKind("squared_error"), [1.0, 2.0], batch)
        np.testing.assert_allclose(fd, [1.0, 2.0], atol=1e-10)

    def test_dpo_zero_margin(self):
        rng = np.random.default_rng(0)
        spec = ModelSpec("softmax_policy", (4, 6))
        theta = rng.standard_normal(24)
        tokens = np.column_stack([rng.integers(0, 3, 5), 3 + rng.integers(0, 3, 5)])
        batch = Batch(rng.standard_normal((5, 4)), tokens, ref_params=theta.copy())
        kind = LossKind("dpo_pairwise", beta=0.2)
        analytic = gradient(spec, kind, theta, batch)
        fd = fd_gradient(spec, kind, theta, batch)
        assert np.abs(analytic - fd).max() <= 1e-6

    def test_mlp_agreement(self):
        rng = np.random.default_rng(1)
        spec = ModelSpec("mlp2", (3, 6, 1))
        theta = 0.5 * rng.standard_normal(spec.param_dim)
        batch = Batch(rng.standard_normal((12, 3)), rng.standard_normal(12))
        kind = LossKind("squared_error")
        assert gradient_agreement(gradient(spec, kind, theta, batch),
                                  spec, kind, theta, batch) <= 1e-4

    def test_agreement_judges_the_gradient_it_is_handed(self):
        rng = np.random.default_rng(2)
        spec = ModelSpec("quadratic", (5,))
        batch = Batch(rng.standard_normal((4, 5)), rng.standard_normal(4))
        kind = LossKind("squared_error")
        theta = rng.standard_normal(5)
        wrong = gradient(spec, kind, theta, batch)
        wrong[2] += 0.1
        assert gradient_agreement(wrong, spec, kind, theta, batch) > 1e-2
        with pytest.raises(DimensionError):
            gradient_agreement(wrong[:4], spec, kind, theta, batch)


class TestSteepestCheck:
    def test_planar_case(self):
        basis = OrthonormalBasis(np.array([[1.0, 0.0]]))
        report = steepest([1.0, 1.0], basis, 100, np.random.default_rng(0))
        assert report.bound == pytest.approx(-1.0, abs=1e-12)
        assert report.attained == pytest.approx(-1.0, abs=1e-12)
        assert report.violations == 0

    def test_empty_basis_unconstrained(self):
        g = np.array([3.0, 4.0])
        report = steepest(g, OrthonormalBasis.empty(2), 100, np.random.default_rng(0))
        assert report.bound == pytest.approx(-5.0, abs=1e-12)
        assert report.attainment_error <= 1e-12

    def test_in_span_precondition(self):
        basis = OrthonormalBasis(np.array([[1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            steepest([2.0, 0.0], basis, 10, np.random.default_rng(0))

    def test_seeded_monte_carlo_no_violation(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal(50)
        basis = gram_schmidt(rng.standard_normal((3, 50)), delta=1e-8)
        report = steepest(g, basis, 10_000, np.random.default_rng(5))
        assert report.violations == 0
        assert report.min_directional >= report.bound - 1e-9
        assert report.attainment_error <= 1e-12

    def test_bound_tightens_with_rank(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(30)
        bounds = []
        for m in (0, 2, 5):
            basis = (gram_schmidt(rng.standard_normal((m, 30)), delta=1e-8)
                     if m else OrthonormalBasis.empty(30))
            bounds.append(steepest(g, basis, 10, np.random.default_rng(7)).bound)
        assert bounds[0] <= bounds[1] <= bounds[2]  # less room, weaker descent

    def test_unprojected_gradient_claims_an_infeasible_bound(self):
        # handed g itself as the projection, the report's bound and
        # attainment are those of the unconstrained step; no feasible
        # sample reaches that bound
        basis = OrthonormalBasis(np.array([[1.0, 0.0]]))
        report = steepest_check([1.0, 1.0], [1.0, 1.0], basis, 100, np.random.default_rng(0))
        assert report.bound == pytest.approx(-math.sqrt(2.0), abs=1e-12)
        assert report.attainment_error <= 1e-12
        assert report.min_directional == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(DimensionError):
            steepest_check([1.0, 1.0], [1.0, 1.0, 0.0], basis, 100, np.random.default_rng(0))


class TestTaylorScaling:
    def test_projected_step_is_second_order(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        _, g_perp = step_directions(fam)
        report = taylor_scaling(fam, (1e-2, 1e-3, 1e-4), g_perp)
        assert abs(report.slope - 2.0) <= 0.2
        assert not report.all_zero
        assert report.max_remainder_mismatch <= 1e-6

    def test_naive_step_is_first_order(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        g_safe, _ = step_directions(fam)
        report = taylor_scaling(fam, (1e-2, 1e-3, 1e-4), g_safe)
        assert abs(report.slope - 1.0) <= 0.2
        assert report.max_remainder_mismatch <= 1e-6

    def test_orthogonal_naive_hits_all_zero_branch(self, quadratic_family):
        # at alpha = pi/2 the naive step lies in the capability null space:
        # every loss change is exactly zero and the curvature-only branch
        # reports slope 2
        fam = quadratic_family(math.pi / 2)
        g_safe, _ = step_directions(fam)
        report = taylor_scaling(fam, (1e-2, 1e-3, 1e-4), g_safe)
        assert report.all_zero
        assert report.slope == 2.0
        assert report.loss_changes == (0.0, 0.0, 0.0)

    def test_validation(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        g_safe, _ = step_directions(fam)
        with pytest.raises(ConfigurationError):
            taylor_scaling(fam, (1e-3, 1e-2, 1e-4), g_safe)  # not decreasing
        with pytest.raises(ConfigurationError):
            taylor_scaling(fam, (1e-2, 1e-3), g_safe)  # too few
        with pytest.raises(NumericError):
            taylor_scaling(fam, (1e-2, 1e-3, 1e-4), np.full(g_safe.size, np.nan))
        with pytest.raises(DimensionError):
            taylor_scaling(fam, (1e-2, 1e-3, 1e-4), g_safe[:-1])


def test_oracle_shares_no_gradient_code():
    # each oracle stays independent of the code it checks: the module calls
    # loss, never the gradient, projection, subspace or training code, and
    # imports nothing from the subspace module
    import ast
    import inspect

    import orthoproj.oracle as oracle_module
    tree = ast.parse(inspect.getsource(oracle_module))
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))}
    assert not called & {"gradient", "project_complement", "estimate_subspace",
                         "gram_schmidt", "train"}
    assert "loss" in called
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "subspace" not in imported
