import contextlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from orthoproj import linalg
from orthoproj.errors import ConfigurationError, DimensionError, NumericError
from orthoproj.linalg import (BLOCK, OrthonormalBasis, _seqdot, all_finite,
                              angle_between, dot, dots, gram_schmidt, norm, project_complement)


def _row_fold(g, rows) -> np.ndarray:
    """((g - c0 u0) - c1 u1) - ..., one row at a time, with each c_j one
    left-to-right accumulation of u_j * g: the order every projection keeps."""
    out = np.array(g, dtype=np.float64)
    coeffs = [np.add.accumulate(u * out)[-1] if out.size else 0.0 for u in rows]
    for c, u in zip(coeffs, rows):
        out = out - c * u
    return out


def _row_by_row_gram_schmidt(cands, delta) -> np.ndarray:
    """The rows gram_schmidt accepts, formed by two row folds per candidate
    and a division by the fixed-order norm."""
    def fixed_norm(r):
        return math.sqrt(np.add.accumulate(r * r)[-1]) if r.size else 0.0

    want = []
    for g in cands:
        residual = _row_fold(g, want)
        if fixed_norm(residual) < delta:
            continue
        residual = _row_fold(residual, want)
        want.append(residual / fixed_norm(residual))
    return np.array(want)


def kahan_dot(a, b):
    """Compensated-summation oracle, independent of the library path."""
    total = 0.0
    comp = 0.0
    for x, y in zip(a, b):
        term = x * y - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return total


ERROR_STATES = ("default", "raise", "warnings as errors")


@contextlib.contextmanager
def numpy_error_state(name):
    """numpy's default error state with its warnings ignored, every floating
    point error raised, or the default state with warnings as errors."""
    with warnings.catch_warnings():
        if name == "raise":
            with np.errstate(all="raise"):
                yield
            return
        warnings.simplefilter("error" if name == "warnings as errors" else "ignore")
        with np.errstate(divide="warn", over="warn", invalid="warn", under="ignore"):
            yield


def raises_in_every_error_state(exc, call, match=None):
    for state in ERROR_STATES:
        with numpy_error_state(state), pytest.raises(exc, match=match):
            call()


class TestDot:
    def test_hand_computed(self):
        assert dot([1, 2, 3], [4, 5, 6]) == 32.0

    def test_zero_vector(self):
        z = np.zeros(5)
        assert dot(z, z) == 0.0

    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        expected = kahan_dot(a, b)
        assert abs(dot(a, b) - expected) <= 1e-9 * abs(expected)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            dot([1, 2], [1, 2, 3])

    def test_non_finite(self):
        # inf - inf raises under a strict error state before the sum is read
        for a, b in (([1, np.nan], [1, 2]), ([np.inf, -np.inf], [1, 1])):
            raises_in_every_error_state(NumericError, lambda: dot(a, b), "a contains non-finite")

    def test_size_mismatch_with_non_finite_reports_the_entry(self):
        # the finiteness of a is checked before the lengths, as before
        raises_in_every_error_state(NumericError, lambda: dot([1, np.nan], [1, 2, 3]),
                                    "a contains non-finite")

    def test_inf_against_zero_raises(self):
        # inf * 0 is nan, so the sum shows the bad entry
        raises_in_every_error_state(NumericError, lambda: dot([1.0, 0.0], [2.0, np.inf]),
                                    "b contains")

    def test_overflow_from_finite_inputs_is_returned(self):
        with np.errstate(over="ignore"):
            assert norm([1e200, 1e200]) == math.inf
            assert dot([1e200, 1e200], [1e200, 1e200]) == math.inf

    def test_norm_rejects_non_finite_and_matrices(self):
        raises_in_every_error_state(NumericError, lambda: norm([1.0, np.inf]))
        raises_in_every_error_state(NumericError, lambda: norm([np.inf, -np.inf, np.nan]))
        with pytest.raises(DimensionError):
            norm(np.eye(2))

    def test_deterministic_accumulation(self):
        # same inputs twice must give identical bits
        rng = np.random.default_rng(7)
        a = rng.standard_normal(333)
        b = rng.standard_normal(333)
        assert dot(a, b) == dot(a.copy(), b.copy())


class TestGramSchmidt:
    def test_hand_orthogonalization(self):
        basis = gram_schmidt([[1, 0, 0], [1, 1, 0]], delta=1e-6)
        np.testing.assert_array_equal(basis.vectors, [[1, 0, 0], [0, 1, 0]])

    def test_collinear_pair_discarded(self):
        basis = gram_schmidt([[2, 0], [4, 0]], delta=1e-6)
        assert basis.rank == 1
        np.testing.assert_array_equal(basis.vectors, [[1.0, 0.0]])

    def test_gram_matrix_oracle(self):
        rng = np.random.default_rng(3)
        cands = [rng.standard_normal(100) for _ in range(5)]
        basis = gram_schmidt(cands, delta=1e-8)
        assert basis.rank == 5
        gram = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                gram[i, j] = kahan_dot(basis.vectors[i], basis.vectors[j])
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

    def test_zero_candidate_discarded_not_normalized(self):
        basis = gram_schmidt([np.zeros(4), [0, 0, 3, 0]], delta=1e-6)
        assert basis.rank == 1
        np.testing.assert_array_equal(basis.vectors, [[0, 0, 1, 0]])

    def test_empty_candidates(self):
        assert gram_schmidt([], delta=1e-6).rank == 0
        assert OrthonormalBasis.empty(3).orthonormality_defect() == 0.0

    def test_span_preservation(self):
        rng = np.random.default_rng(11)
        cands = [rng.standard_normal(30) for _ in range(6)]
        basis = gram_schmidt(cands, delta=1e-8)
        for c in cands:
            recon = sum(dot(c, u) * u for u in basis.vectors)
            assert norm(c - recon) <= 1e-8 * norm(c)

    @pytest.mark.parametrize("true_rank", [1, 2, 3, 4, 5])
    def test_rank_filtering_exact(self, true_rank):
        rng = np.random.default_rng(100 + true_rank)
        span = rng.standard_normal((true_rank, 40))
        cands = rng.standard_normal((8, true_rank)) @ span
        cands /= np.sqrt((cands * cands).sum(axis=1))[:, None]
        assert gram_schmidt(cands, delta=1e-6).rank == true_rank

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            gram_schmidt([[1.0, 0.0]], delta=0.0)
        with pytest.raises(DimensionError):
            gram_schmidt([[1.0, 0.0], [1.0, 0.0, 0.0]], delta=1e-6)
        raises_in_every_error_state(NumericError, lambda: gram_schmidt([[np.inf, 0.0]], delta=1e-6))

    def test_built_basis_is_not_scanned_again(self, monkeypatch):
        # every row is a finite residual over its positive norm; only a basis
        # built directly from given vectors scans them
        scans = []
        real = linalg.all_finite
        monkeypatch.setattr(linalg, "all_finite", lambda a: scans.append(a.shape) or real(a))
        rng = np.random.default_rng(5)
        cands = rng.standard_normal((3, 50))
        for kept in (cands, [cands[0], 2.0 * cands[0], cands[1]], [np.zeros(50)]):
            basis = gram_schmidt(kept, delta=1e-8)
            assert np.isfinite(basis.vectors).all()
        assert scans == []
        with pytest.raises(NumericError, match="basis contains non-finite"):
            OrthonormalBasis(np.array([[np.inf, 0.0]]))
        with pytest.raises(DimensionError, match="basis must be 2-D"):
            OrthonormalBasis(np.zeros(3))  # the shape is checked before the scan
        assert scans == [(1, 2)]

    @pytest.mark.parametrize("d", [3, 40, 16387, 2 * BLOCK + 3,
                                   0, 1, 10, BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("true_rank", [1, 2, 3])
    def test_rows_match_the_out_of_place_normalization(self, true_rank, d):
        # candidates 2 and 4 repeat earlier ones, so every set has a
        # discarded candidate in the middle
        rng = np.random.default_rng(d + true_rank)
        span = rng.standard_normal((true_rank, d))
        cands = rng.standard_normal((5, true_rank)) @ span
        cands[2], cands[4] = 3.0 * cands[0], -cands[1]
        want = _row_by_row_gram_schmidt(cands, 1e-6)
        basis = gram_schmidt(cands, delta=1e-6)
        assert basis.vectors.tobytes() == want.tobytes()
        assert basis.rank == len(want)
        assert basis.rank == min(true_rank, d)
        assert basis.vectors.base is None  # a basis holds no unused rows


class TestProjectComplement:
    def test_axis_projection(self):
        basis = OrthonormalBasis(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(project_complement([1.0, 1.0], basis), [0.0, 1.0])

    def test_fully_inside_span(self):
        basis = OrthonormalBasis(np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(project_complement([3.0, 0.0], basis), [0.0, 0.0])

    def test_empty_basis_returns_copy(self):
        g = np.array([1.0, 2.0, 3.0])
        out = project_complement(g, OrthonormalBasis.empty(3))
        np.testing.assert_array_equal(out, g)
        assert out is not g

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project_complement([1.0, 2.0], OrthonormalBasis(np.eye(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_g_raises_even_off_the_basis(self, bad):
        # the bad entry meets a zero in the first basis vector; the first
        # coefficient still comes out non-finite (inf * 0 raises under a
        # strict error state, as does inf - inf)
        basis = OrthonormalBasis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        for g in ([1.0, 2.0, bad], [bad, -bad, 0.0]):
            raises_in_every_error_state(NumericError, lambda: project_complement(g, basis),
                                        "g contains")

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(50)
        basis = gram_schmidt([rng.standard_normal(50) for _ in range(3)], delta=1e-8)
        proj = project_complement(g, basis)
        assert max(abs(dot(proj, u)) for u in basis.vectors) <= 1e-9 * norm(g)
        recon = proj + sum(dot(g, u) * u for u in basis.vectors)
        assert np.abs(recon - g).max() <= 1e-12

    @pytest.mark.parametrize("d", [10, 100, 1000])
    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_idempotence(self, d, m):
        rng = np.random.default_rng(d + m)
        basis = gram_schmidt(rng.standard_normal((m, d)), delta=1e-8)
        g = rng.standard_normal(d)
        once = project_complement(g, basis)
        twice = project_complement(once, basis)
        assert np.abs(twice - once).max() <= 1e-12

    def test_norm_contraction_and_equality(self):
        rng = np.random.default_rng(9)
        basis = gram_schmidt(rng.standard_normal((3, 20)), delta=1e-8)
        g = rng.standard_normal(20)
        assert norm(project_complement(g, basis)) < norm(g)
        # exactly orthogonal input (disjoint support): equality, bitwise
        basis2 = OrthonormalBasis(np.array([[1.0, 0.0, 0.0, 0.0]]))
        g2 = np.array([0.0, 1.0, 2.0, 3.0])
        out = project_complement(g2, basis2)
        assert norm(out) == norm(g2)

    def test_pythagoras(self):
        rng = np.random.default_rng(13)
        basis = gram_schmidt(rng.standard_normal((4, 60)), delta=1e-8)
        g = rng.standard_normal(60)
        proj = project_complement(g, basis)
        coeffs_sq = sum(dot(g, u) ** 2 for u in basis.vectors)
        assert abs(norm(g) ** 2 - (norm(proj) ** 2 + coeffs_sq)) <= 1e-9 * norm(g) ** 2


# hypothesis property checks over small random instances
vectors = st.integers(2, 24).flatmap(
    lambda d: st.lists(
        st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=d, max_size=d),
        min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_projection_properties_hypothesis(rows):
    arrays = [np.array(r) for r in rows]
    g = arrays[0]
    cands = arrays[1:]
    norms = [norm(c) for c in cands]
    max_norm = max(norms, default=0.0)
    delta = 1e-6 * max_norm if max_norm > 0 else 1e-6
    basis = gram_schmidt(cands, delta=delta)
    proj = project_complement(g, basis)
    assert norm(proj) <= norm(g) * (1 + 1e-12) + 1e-12
    twice = project_complement(proj, basis)
    assert np.abs(twice - proj).max() <= 1e-12 * max(1.0, norm(g))
    coeffs_sq = sum(dot(g, u) ** 2 for u in basis.vectors)
    assert abs(norm(g) ** 2 - (norm(proj) ** 2 + coeffs_sq)) <= 1e-9 * max(1.0, norm(g) ** 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_gram_schmidt_orthonormal_hypothesis(d, seed):
    rng = np.random.default_rng(seed)
    basis = gram_schmidt(rng.standard_normal((min(d, 5), d)), delta=1e-8)
    assert basis.orthonormality_defect() <= 1e-10


SEQDOT_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SEQDOT_SIZES), st.integers(0, 2 ** 32 - 1), st.integers(0, 150))
def test_blocked_seqdot_matches_one_accumulate(n, seed, spread):
    # magnitudes spread over up to 10^(2*spread) so rounding depends on the
    # summation order; blocking must not change a single bit
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
    b = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
    b[rng.random(n) < 0.05] = -0.0
    want = float(np.add.accumulate(a * b)[-1]) if n else 0.0
    assert np.float64(_seqdot(a, b)).tobytes() == np.float64(want).tobytes()


def test_seqdot_keeps_a_lone_negative_zero():
    assert math.copysign(1.0, _seqdot(np.array([-0.0]), np.array([1.0]))) == -1.0


def _one_accumulate(a, b) -> bytes:
    # the reference order: one np.add.accumulate over all products
    return np.float64(np.add.accumulate(a * b)[-1] if a.size else 0.0).tobytes()


# the fixed sizes 8192 and 16389 (and 8190, 8197, 16387 below) are within
# one block; written as numbers, their case names stay put when BLOCK changes
@pytest.mark.parametrize("n", [1, 9, 8192, 16389, BLOCK, 2 * BLOCK + 5])
@pytest.mark.parametrize("step", [3, -1, -2])
def test_strided_inputs_match_one_accumulate(n, step):
    rng = np.random.default_rng(n)
    a = (rng.standard_normal(abs(step) * n) * 10.0 ** rng.integers(-40, 41, abs(step) * n))[::step]
    b = rng.standard_normal(abs(step) * n)[::step]
    assert not a.flags.c_contiguous or n == 1
    assert np.float64(dot(a, b)).tobytes() == _one_accumulate(a, b)
    assert np.float64(norm(a)).tobytes() == np.sqrt(np.frombuffer(_one_accumulate(a, a))).tobytes()


@pytest.mark.parametrize("pad", [0, 8190, BLOCK - 2])
def test_signed_zeros_and_exact_cancellation_match_one_accumulate(pad):
    # every sequence of up to four products from {+-0, +-1}, including
    # [1, -1, 0, -0]; the -0.0 padding moves them across a block boundary
    # without changing the sum
    for length in range(1, 5):
        for products in itertools.product([0.0, -0.0, 1.0, -1.0], repeat=length):
            a = np.concatenate([np.full(pad, -0.0), products])
            b = np.ones_like(a)
            assert np.float64(dot(a, b)).tobytes() == _one_accumulate(a, b), products


def test_empty_sum_is_positive_zero():
    empty = np.zeros(0)
    for s in (_seqdot(empty, empty), dot([], []), norm([])):
        assert np.float64(s).tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 8197, BLOCK + 5])
def test_non_finite_inputs_raise_as_an_upfront_check(bad, at):
    rng = np.random.default_rng(at)
    good = rng.standard_normal(2 * BLOCK + 3)
    worse = good.copy()
    worse[at] = bad
    basis = gram_schmidt([rng.standard_normal(good.size)], delta=1e-8)
    zero = np.zeros_like(good)  # bad * 0 is nan: the invalid operation of a strict error state
    for call, message in [(lambda: dot(worse, good), "a contains non-finite"),
                          (lambda: dot(good, worse), "b contains non-finite"),
                          (lambda: dot(zero, worse), "b contains non-finite"),
                          (lambda: norm(worse), "a contains non-finite"),
                          (lambda: project_complement(worse, basis), "g contains non-finite"),
                          (lambda: dots(np.stack([good, worse]), good), "rows contains non-finite"),
                          (lambda: dots(np.stack([zero, good]), worse), "v contains non-finite")]:
        raises_in_every_error_state(NumericError, call, message)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("d", [10, 2 * BLOCK + 3])
@pytest.mark.parametrize("which", [0, 2])
def test_gram_schmidt_names_a_non_finite_candidate(bad, d, which):
    # candidate 2 comes after two accepted rows; a non-finite entry at the
    # start, middle or end of it is read off its threshold norm
    rng = np.random.default_rng(d + which)
    for at in (0, d // 2, d - 1):
        cands = rng.standard_normal((4, d))
        cands[which, at] = bad
        raises_in_every_error_state(NumericError, lambda: gram_schmidt(cands, delta=1e-8),
                                    f"^candidate {which} contains non-finite")


def test_gram_schmidt_checks_every_shape_before_finiteness():
    with pytest.raises(DimensionError, match="candidate 1 has length 3"):
        gram_schmidt([[np.nan, 0.0], [1.0, 0.0, 0.0]], delta=1e-6)
    with pytest.raises(DimensionError, match="candidate 1 must be 1-D"):
        gram_schmidt([[np.nan, 0.0], [[1.0, 0.0]]], delta=1e-6)


def test_gram_schmidt_with_overflowing_finite_candidates():
    # squares that overflow give an inf threshold norm, which accepts the
    # candidate and normalizes it to zeros; a coefficient that overflows
    # makes the residual itself non-finite, which norm reports as before
    with np.errstate(over="ignore", invalid="ignore"):
        basis = gram_schmidt([[1e200, 1e200]], delta=1e-6)
        assert basis.vectors.tobytes() == np.zeros((1, 2)).tobytes()
        basis = gram_schmidt([[1.0, 0.0, 0.0], [1e200, 1e200, 1e200]], delta=1e-6)
        assert basis.vectors.tobytes() == np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]).tobytes()
        with pytest.raises(NumericError, match="^a contains non-finite"):
            gram_schmidt([[1.0, 1.0], [1.7e308, 1.7e308]], delta=1e-6)


def test_overflow_from_finite_inputs_matches_one_accumulate():
    # inf, then inf - inf = nan, both returned rather than raised
    big = np.array([1e200, 1e200, 1e200])
    with np.errstate(over="ignore", invalid="ignore"):
        for b in (big, big * [1.0, 1.0, -1.0]):
            assert np.float64(dot(big, b)).tobytes() == _one_accumulate(big, b)


def test_overflow_from_finite_inputs_follows_a_strict_error_state():
    big = np.array([1e200, 1e200])
    basis = OrthonormalBasis(np.array([[0.6, -0.8]]))  # 1.02e308 + 1.36e308 overflows
    with np.errstate(over="raise"):
        for call in (lambda: dot(big, big), lambda: dots(big[None, :], big), lambda: norm(big),
                     lambda: project_complement([1.7e308, -1.7e308], basis),
                     lambda: gram_schmidt([big], delta=1e-6)):
            with pytest.raises(FloatingPointError):
                call()


def _row_accumulates(rows, v) -> bytes:
    return b"".join(_one_accumulate(u, v) for u in rows)


DOTS_SIZES = [0, 1, 10, BLOCK - 1, BLOCK, BLOCK + 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, 8]), st.sampled_from(DOTS_SIZES),
       st.sampled_from(["as is", "leading rows", "strided"]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 150))
def test_dots_is_a_dot_per_row(k, n, view, seed, spread):
    rng = np.random.default_rng(seed)

    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-spread, spread + 1, shape)

    rows = {"as is": lambda: draw((k, n)),
            "leading rows": lambda: draw((k + 3, n))[:k],  # as gram_schmidt passes block[:k]
            "strided": lambda: draw((2 * k, 2 * n))[::2, ::-2]}[view]()
    v = draw(n)
    v[rng.random(n) < 0.05] = -0.0
    got = dots(rows, v)
    assert got.dtype == np.float64 and got.shape == (k,)
    assert got.tobytes() == np.array([dot(u, v) for u in rows], dtype=np.float64).tobytes()
    assert got.tobytes() == _row_accumulates(rows, v)


@pytest.mark.parametrize("view", ["as is", "strided"])
@pytest.mark.parametrize("n", DOTS_SIZES)
@pytest.mark.parametrize("k", [1, 2, 8])
def test_projections_fold_row_by_row(k, n, view):
    # rows of at most BLOCK elements and the longer ones take different
    # paths; both must subtract the components one row at a time
    rng = np.random.default_rng(10 * n + k)

    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)

    rows = draw((k, n)) if view == "as is" else draw((2 * k, 2 * n))[::2, ::-2]
    g = draw(n)
    g[rng.random(n) < 0.05] = -0.0
    got = project_complement(g, OrthonormalBasis(rows))
    assert got.tobytes() == _row_fold(g, rows).tobytes()
    basis = gram_schmidt(rows, delta=1e-8)
    want = _row_by_row_gram_schmidt(rows, 1e-8)
    assert basis.vectors.tobytes() == want.tobytes()
    assert basis.rank == len(want)


@pytest.mark.parametrize("pad", [0, 8190, BLOCK - 2])
def test_dots_signed_zeros_and_exact_cancellation(pad):
    # one row per sequence of up to four products from {+-0, +-1}; the
    # -0.0 padding takes the longest rows past BLOCK
    for length in range(1, 5):
        seqs = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0], repeat=length)))
        rows = np.concatenate([np.full((len(seqs), pad), -0.0), seqs], axis=1)
        v = np.ones(rows.shape[1])
        assert dots(rows, v).tobytes() == _row_accumulates(rows, v)
    # an empty row sums to +0.0, as _seqdot's does
    assert dots(np.zeros((3, 0)), np.zeros(0)).tobytes() == np.zeros(3).tobytes()


def test_dots_checks_shapes_before_finiteness():
    for rows, v, message in [(np.ones(3), np.ones(3), r"rows must have shape \(k, 3\)"),
                             (np.ones((2, 3, 1)), np.ones(3), "rows must have shape"),
                             ([[np.nan, 1.0]], [1.0, 2.0, 3.0], r"got \(1, 2\)"),
                             (np.ones((2, 3)), np.ones((3, 1)), "v must be 1-D")]:
        with pytest.raises(DimensionError, match=message):
            dots(rows, v)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [3, BLOCK + 2])
def test_dots_names_a_non_finite_input(bad, n):
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, n))
    v = rng.standard_normal(n)
    bad_rows, bad_v = rows.copy(), v.copy()
    bad_rows[2, n // 2], bad_v[n - 1] = bad, bad
    for r, w, message in [(bad_rows, v, "^rows contains non-finite"),
                          (rows, bad_v, "^v contains non-finite"),
                          (bad_rows, bad_v, "^rows contains non-finite")]:
        raises_in_every_error_state(NumericError, lambda: dots(r, w), message)


def test_dots_overflow_from_finite_inputs_is_returned():
    # inf, then inf - inf = nan, as dot returns them
    big = np.array([1e200, 1e200, 1e200])
    rows = np.stack([big, big * [1.0, 1.0, -1.0], np.ones(3)])
    with np.errstate(over="ignore", invalid="ignore"):
        got = dots(rows, big)
        assert got.tobytes() == _row_accumulates(rows, big)
    assert math.isinf(got[0]) and math.isnan(got[1]) and got[2] == 3e200


_VIEWS = {
    "as is": lambda a: a,
    "strided": lambda a: a[..., ::2],
    "reversed": lambda a: a[..., ::-1],
    "transposed": lambda a: a.T,
}


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9),
                  elements=st.floats(allow_nan=True, allow_infinity=True)),
       st.sampled_from(sorted(_VIEWS)))
def test_all_finite_is_the_entry_mask(a, view):
    v = _VIEWS[view](a)
    with np.errstate(over="ignore", invalid="ignore"):
        assert all_finite(v) == bool(np.isfinite(v).all())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1,), (5,), (0,), (BLOCK + 3,), (4, 6), (0, 3)]), st.sampled_from(sorted(_VIEWS)),
       st.sampled_from([None, math.nan, math.inf, -math.inf]), st.sampled_from([0, 0.5, 1]),
       st.sampled_from([1.0, 1.4e154, 1e300]), st.integers(0, 2 ** 32 - 1))
def test_all_finite_with_planted_entries(shape, view, bad, where, scale, seed):
    # at scale 1.4e154 and up a finite entry's square overflows, so the sum
    # of squares is inf and the decision falls to the mask
    rng = np.random.default_rng(seed)
    a = _VIEWS[view](rng.standard_normal(shape[:-1] + (2 * shape[-1],)) * scale)
    if bad is not None and a.size:
        a[np.unravel_index(round(where * (a.size - 1)), a.shape)] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        got = all_finite(a)
    assert got == bool(np.isfinite(a).all())
    assert got == (bad is None or a.size == 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 8, 9, 17, 100, BLOCK + 1]), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 150))
def test_subtract_reduce_is_a_left_fold(n, seed, spread):
    # _seqdot rests on numpy folding a subtract reduction left to right; a
    # numpy that reassociated it (as add.reduce is, pairwise) fails here
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-spread, spread + 1, n)
    want = carry = float(rng.standard_normal() * 10.0 ** rng.integers(-spread, spread + 1))
    for v in x.tolist():
        want = want - v
    assert np.float64(np.subtract.reduce(x, initial=carry)).tobytes() == np.float64(want).tobytes()


_LINALG_BYTES_SCRIPT = """
import hashlib
import numpy as np
from orthoproj.linalg import dot, dots, gram_schmidt, norm, project_complement
rng = np.random.default_rng(5)
for d, m in ((100_000, 4), (1000, 8)):
    cands = rng.standard_normal((m, d)) * 10.0 ** rng.integers(-20, 21, (m, d))
    g = rng.standard_normal(d) * 10.0 ** rng.integers(-20, 21, d)
    basis = gram_schmidt(cands, delta=1e-8)
    rank3 = gram_schmidt(cands[:3], delta=1e-8)
    for out in (dot(cands[0], g), dots(cands, g), norm(g), project_complement(g, basis),
                project_complement(g, rank3), basis.vectors):
        print(hashlib.sha256(np.asarray(out).tobytes()).hexdigest())
"""


def test_linalg_bytes_at_each_blas_thread_count(at_each_blas_thread_count):
    outputs = at_each_blas_thread_count(_LINALG_BYTES_SCRIPT)
    assert len(outputs[0]) == 2 * 6
    assert outputs[0] == outputs[1]


_ALL_FINITE_SCRIPT = """
import numpy as np
from orthoproj.linalg import all_finite
rng = np.random.default_rng(9)
for n in (1, 100, 200_000):
    plants = [(None, 0)] + [(bad, at) for bad in (np.nan, np.inf, -np.inf)
                            for at in (0, n // 2, n - 1)]
    for scale in (1.0, 1e160):
        for bad, at in plants:
            a = rng.standard_normal(n) * scale
            if bad is not None:
                a[at] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                got = all_finite(a)
            print(n, scale, bad, at, got, got == bool(np.isfinite(a).all()))
"""


def test_all_finite_decisions_at_each_blas_thread_count(at_each_blas_thread_count):
    # a BLAS sum of squares at d = 200,000 is split across threads at two;
    # at scale 1e160 every square overflows and the mask decides
    outputs = at_each_blas_thread_count(_ALL_FINITE_SCRIPT)
    assert len(outputs[0]) == 3 * 2 * (1 + 3 * 3)
    assert all(line.endswith("True") for line in outputs[0])
    assert outputs[0] == outputs[1]


def test_angle_between_exact_cases():
    assert angle_between([1.0, 0.0], [0.0, 2.0]) == pytest.approx(math.pi / 2, abs=1e-15)
    assert angle_between([1.0, 0.0], [3.0, 0.0]) == 0.0
    with pytest.raises(NumericError):
        angle_between([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DimensionError, match="length mismatch: 2 vs 3"):
        angle_between([1.0, 0.0], [1.0, 0.0, 0.0])
