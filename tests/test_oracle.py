import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoproj import oracle
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
        with pytest.raises(ConfigurationError, match="n_samples must be >= 1, got 0"):
            steepest([0.0, 2.0], basis, 0, np.random.default_rng(0))

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

    def test_no_surviving_sample_raises(self):
        # handed a nonzero g_perp against a full-rank basis, every sample
        # projects to exactly zero and there is no direction to score
        basis = OrthonormalBasis(np.eye(2))
        with pytest.raises(ValueError):
            steepest_check([1.0, 1.0], [1.0, 1.0], basis, 10, np.random.default_rng(0))

    def test_memory_is_set_by_the_block_not_the_sample_count(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(50)
        basis = gram_schmidt(rng.standard_normal((3, 50)), delta=1e-8)
        g_perp = project_complement(g, basis)
        peaks = []
        for n_samples in (10_000, 40_000):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                steepest_check(g, g_perp, basis, n_samples, np.random.default_rng(9))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        # about three (SAMPLE_BLOCK, 50) float64 blocks, 400 KiB each
        assert abs(peaks[0] - peaks[1]) <= 64 * 1024
        assert max(peaks) < 2 * 1024 * 1024


# steepest_check as one (n_samples, d) array, the form the blocks must match
# bit for bit: verify's 10 (d, rank) cells at seeds 0-2, demo 01's call, and
# sample counts around the block size. Each line is a label and whether every
# report field and the generator's state after the call agree.
_BLOCK_BITS_SCRIPT = """
from dataclasses import astuple

import numpy as np
from orthoproj.linalg import OrthonormalBasis, dot, gram_schmidt, norm, project_complement
from orthoproj.oracle import SteepestReport, steepest_check


def whole_array(g, g_perp, basis, n_samples, rng, slack=1e-9):
    gv = np.asarray(g, dtype=np.float64)
    bound = -norm(g_perp)
    z = rng.standard_normal((n_samples, gv.size))
    if basis.rank:
        u = basis.vectors
        z = z - (z @ u.T) @ u
    norms = np.sqrt((z * z).sum(axis=1))
    keep = norms > 0
    v = z[keep] / norms[keep, None]
    directional = v @ gv
    return SteepestReport(bound=bound, min_directional=float(directional.min()),
                          attained=dot(gv, -g_perp / norm(g_perp)),
                          n_samples=int(keep.sum()),
                          violations=int(np.count_nonzero(directional < bound - slack)))


def bits(report):
    return [x.hex() if isinstance(x, float) else x for x in astuple(report)]


def cases():
    for seed in (0, 1, 2):
        children = iter(np.random.SeedSequence(seed + 3).spawn(12))
        for d in (2, 10, 50):
            for m in (0, 1, 3, 5):
                child = next(children)
                if m >= d:
                    continue
                rng = np.random.default_rng(child)
                g = rng.standard_normal(d)
                basis = (gram_schmidt(rng.standard_normal((m, d)), delta=1e-8) if m
                         else OrthonormalBasis.empty(d))
                yield f"verify seed={seed} d={d} rank={m}", g, basis, 10_000, child
    rng = np.random.default_rng(0)
    base = rng.standard_normal((3, 40))
    candidates = [base[0], base[1], 0.7 * base[0] - 1.2 * base[1], base[2], np.zeros(40)]
    basis = gram_schmidt(candidates, delta=1e-6 * max(norm(c) for c in candidates))
    yield "demo 01", rng.standard_normal(40), basis, 10_000, 1
    rng = np.random.default_rng(11)
    g = rng.standard_normal(50)
    for m in (0, 3):
        basis = (gram_schmidt(rng.standard_normal((m, 50)), delta=1e-8) if m
                 else OrthonormalBasis.empty(50))
        for n in (1, 1023, 1024, 1025, 10_000):
            yield f"n_samples={n} rank={m}", g, basis, n, 12


for label, g, basis, n, seed in cases():
    g_perp = project_complement(g, basis)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    same = (bits(steepest_check(g, g_perp, basis, n, rng))
            == bits(whole_array(g, g_perp, basis, n, ref_rng)))
    print(label, same and rng.bit_generator.state == ref_rng.bit_generator.state)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_samples_give_the_whole_array_bits(threads):
    # the thread count is fixed before numpy loads, so it needs a fresh process
    src = str(Path(oracle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", _BLOCK_BITS_SCRIPT], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * 10 + 1 + 2 * 5
    assert [line for line in lines if not line.endswith(" True")] == []


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

    def test_validation(self, quadratic_family, regression_family):
        fam = quadratic_family(math.pi / 4)
        g_safe, _ = step_directions(fam)
        mlp = regression_family()
        with pytest.raises(ConfigurationError, match="needs the quadratic family"):
            taylor_scaling(mlp, (1e-2, 1e-3, 1e-4), mlp.tasks["safety"].gradient(mlp.theta0))
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
