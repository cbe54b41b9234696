"""Dense float64 vector arithmetic and thresholded Gram-Schmidt.

Inner products accumulate strictly left to right, so every result here is
independent of BLAS build and thread count. The model passes use BLAS gemm,
whose rounding can depend on both, so a whole training run is bitwise
reproducible from a seed only for a fixed BLAS build and thread count.

:func:`dot` and :func:`norm` form the products in blocks of ``BLOCK``
elements in one small buffer and fold each block into the running sum with
``np.subtract.reduce``, starting from +0.0: numpy folds a subtract
reduction left to right with the sum in a register (only ``add`` reduces
pairwise), so no partial sum is stored and no full-length temporary is
made. The fold gives t = 0 - p0 - p1 - ..., and the result is -t.
Round-to-nearest treats both signs alike, so each partial of t is the
negated partial of the sum p0 + p1 + ... taken from -0.0, the exact
additive identity; that is the same sequence of roundings as
``np.add.accumulate`` over all the products. Two cases break the symmetry,
and each has its own rule:

- A zero t does not carry the sign of the sum. A sum from -0.0 is -0.0
  exactly when every product is -0.0 (any other term makes it +0.0 or
  nonzero), so a zero t is settled by one more pass over the products,
  through the same buffer, asking whether all of them have the sign bit.
- A nan that the fold itself makes (inf - inf, after finite products
  overflowed) is the same default nan in both folds, so it is returned
  un-negated. A nan that comes from a non-finite input may differ in sign
  from the one ``np.add.accumulate`` gives, but every public function
  raises on such input instead of returning it.

:func:`dots` sums each row of a basis against one vector. Rows of at most
``BLOCK`` elements go through one multiply, one in-place negate and one
``np.subtract.reduce`` along the rows from -0.0, which folds every row
left to right with the same roundings; longer rows are summed one at a
time as above. ``project_complement`` and ``gram_schmidt`` take their
coefficients this way, then subtract the components one basis row after
another, ``((g - c0 u0) - c1 u1) - ...``: for two or more rows of at most
``BLOCK`` elements as one product block folded down its columns by one
subtract reduction, otherwise row by row, so that a wide basis allocates
no (rank, d) block.

Finiteness is read off sums. A non-finite entry always makes the
fixed-order sum non-finite (inf * 0 and inf - inf are nan), so ``dot``,
``dots``, ``norm``, ``project_complement`` and ``gram_schmidt`` validate
their inputs only when a sum comes out non-finite or a shape check fails;
they then raise exactly what an upfront check would have raised. Under a
strict numpy error state (``np.errstate(all="raise")``, or warnings as
errors) the arithmetic on a non-finite input can raise first (squares
never do, so ``norm`` cannot); the others catch that, validate their
inputs and raise the same ``NumericError``. A
sum that overflows from finite inputs is returned as inf under numpy's
default error state and follows a strict one (a ``FloatingPointError`` or
warning). The upfront check, :func:`all_finite`, is a sum too: the BLAS
sum of squares, with an entry-by-entry mask only when that sum overflows,
so its decision is exact at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ConfigurationError

__all__ = [
    "all_finite",
    "as_vector",
    "dot",
    "dots",
    "norm",
    "OrthonormalBasis",
    "gram_schmidt",
    "project_complement",
    "angle_between",
]

BLOCK = 32768  # products formed and summed per pass of _seqdot (256 KiB)

# what numpy raises from arithmetic on inf or nan under a strict error state
_ERROR_STATE = (FloatingPointError, RuntimeWarning)


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a float array, mostly without the mask.

    A nan or infinite entry makes the sum of squares nan or +inf in any
    order and at any BLAS thread count, so a finite sum proves every entry
    finite; only a sum that overflows from finite entries needs the mask.
    """
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _as_1d(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, validating on the way in."""
    v = _as_1d(x, name)
    if not all_finite(v):
        raise NumericError(f"{name} contains non-finite entries")
    return v


def _seqdot(a: np.ndarray, b: np.ndarray) -> float:
    # Left-to-right sum of a * b over equal-length 1-D arrays, BLOCK products
    # at a time: 0.0 - p0 - p1 - ... is -(p0 + p1 + ...) rounding for
    # rounding, except for the sign of a zero sum and of a nan that the fold
    # itself makes (see the module docstring).
    n = a.size
    if n == 0:
        return 0.0
    # one block needs no slices; they are a tenth of a short sum's time
    buf = np.multiply(a, b) if n <= BLOCK else np.multiply(a[:BLOCK], b[:BLOCK])
    part, carry, lo = buf, 0.0, BLOCK
    while True:
        carry = np.subtract.reduce(part, initial=carry)
        if lo >= n:
            break
        part = buf[:n - lo]
        np.multiply(a[lo:lo + BLOCK], b[lo:lo + BLOCK], out=part)
        lo += BLOCK
    s = float(carry)
    if s == 0.0:
        return -0.0 if _all_negative_zero(a, b, buf) else 0.0
    return s if s != s else -s


def _all_negative_zero(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> bool:
    # For products whose fold is zero: all of them are -0.0 iff all have
    # the sign bit set, since negative terms never sum to zero.
    for lo in range(0, a.size, BLOCK):
        part = np.multiply(a[lo:lo + BLOCK], b[lo:lo + BLOCK], out=buf[:min(BLOCK, a.size - lo)])
        if not np.bitwise_and.reduce(part.view(np.uint64)) >> 63:
            return False
    return True


def _seqdots(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    # [_seqdot(u, v) for u in rows] over a (k, n) array and an n-vector. A
    # subtract reduction along axis 1 folds each row of the fresh product
    # array left to right from -0.0, as _seqdot does with one block.
    n = v.size
    if n > BLOCK:  # row by row, a block at a time: one pass was no faster here
        return np.array([_seqdot(u, v) for u in rows])
    if n == 0:  # the fold would give -0.0; an empty sum is +0.0
        return np.zeros(len(rows))
    part = np.multiply(rows, v)
    np.negative(part, out=part)
    return np.subtract.reduce(part, axis=1, initial=-0.0)


def _check_pair(av: np.ndarray, bv: np.ndarray) -> None:
    as_vector(av, "a")
    as_vector(bv, "b")
    if av.size != bv.size:
        raise DimensionError(f"length mismatch: {av.size} vs {bv.size}")


def dot(a, b) -> float:
    """Inner product with a fixed left-to-right accumulation order."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    s = math.nan
    try:
        if av.ndim == 1 and bv.ndim == 1 and av.size == bv.size:
            s = _seqdot(av, bv)
    except _ERROR_STATE:
        _check_pair(av, bv)
        raise
    if not math.isfinite(s):  # a bad input, or finite products that overflowed
        _check_pair(av, bv)
    return s


def _check_rows(rv: np.ndarray, vv: np.ndarray) -> None:
    if not all_finite(rv):
        raise NumericError("rows contains non-finite entries")
    as_vector(vv, "v")


def dots(rows, v) -> np.ndarray:
    """``[dot(u, v) for u in rows]`` bit for bit, as one float64 array.

    ``rows`` is a (k, n) array and ``v`` an n-vector; shapes are checked
    first, then finiteness is read off the k sums. Rows of at most ``BLOCK``
    elements are summed in one pass over all of them.
    """
    rv = np.asarray(rows, dtype=np.float64)
    vv = _as_1d(v, "v")
    if rv.ndim != 2 or rv.shape[1] != vv.size:
        raise DimensionError(f"rows must have shape (k, {vv.size}), got {rv.shape}")
    try:
        s = _seqdots(rv, vv)
    except _ERROR_STATE:
        _check_rows(rv, vv)
        raise
    if not all_finite(s):  # a bad input, or finite products that overflowed
        _check_rows(rv, vv)
    return s


def norm(a) -> float:
    """Euclidean norm built on the same fixed-order accumulation as dot."""
    av = np.asarray(a, dtype=np.float64)
    s = _seqdot(av, av) if av.ndim == 1 else math.nan
    if not math.isfinite(s):  # a bad input, or finite squares that overflowed
        as_vector(av, "a")
    return math.sqrt(s)


def _subtract_components(g: np.ndarray, coeffs, rows, out=None) -> np.ndarray:
    # ((g - c0 u0) - c1 u1) - ..., each entry folded in basis order, into
    # ``out`` if given: g itself, or an array overlapping neither g nor rows.
    # Two or more rows of at most BLOCK elements take one product block,
    # whose first row becomes g - c0 u0, folded down its columns by one
    # subtract reduction. A single row, or longer rows, go one at a time.
    if len(rows) > 1 and g.size <= BLOCK:
        part = np.multiply(rows, coeffs[:, None])
        np.subtract(g, part[0], out=part[0])
        return np.subtract.reduce(part, axis=0, out=out)
    first = 0
    if out is not g:  # the first product is formed in the output array itself
        out = np.multiply(rows[0], coeffs[0], out=out)
        np.subtract(g, out, out=out)
        first = 1
    for c, u in zip(coeffs[first:], rows[first:]):
        out -= c * u
    return out


def _remove_components(g: np.ndarray, rows, out=None) -> np.ndarray:
    # One classical pass: all coefficients taken from the incoming vector,
    # then subtracted in basis order. No rows returns g itself.
    if len(rows) == 0:
        return g
    rows = np.asarray(rows)
    return _subtract_components(g, _seqdots(rows, g), rows, out)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal set stored row-wise: ``vectors[j]`` is the j-th direction.

    Invariants (guaranteed by :func:`gram_schmidt`): every row has unit norm
    to 1e-10 and distinct rows have inner products below 1e-10 in magnitude.
    """

    vectors: np.ndarray  # (rank, dim) float64

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"basis must be 2-D, got shape {v.shape}")
        if not all_finite(v):
            raise NumericError("basis contains non-finite entries")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def _of(cls, vectors: np.ndarray) -> "OrthonormalBasis":
        # a basis of a 2-D float64 array already known finite, not scanned again
        basis = object.__new__(cls)
        object.__setattr__(basis, "vectors", vectors)
        return basis

    @classmethod
    def empty(cls, dim: int = 0) -> "OrthonormalBasis":
        return cls._of(np.zeros((0, dim)))

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def orthonormality_defect(self) -> float:
        """max |U U^T - I|, zero rank gives 0."""
        if self.rank == 0:
            return 0.0
        return float(np.abs(self.vectors @ self.vectors.T - np.eye(self.rank)).max())


def gram_schmidt(candidates, delta: float) -> OrthonormalBasis:
    """Orthonormalize candidates in order, discarding near-collinear ones.

    A candidate is accepted iff the norm of its residual, after removing
    projections onto the previously accepted directions, is at least
    ``delta``. Accepted residuals get one extra re-orthogonalization pass
    and are then divided by their own norm, which the threshold keeps well
    away from zero; a single classical pass loses orthogonality on nearly
    collinear inputs, and the extra pass does not change which candidates
    are accepted.

    ``delta`` is an absolute threshold here. Callers that want the
    scale-invariant default should pass ``delta_rel * max(candidate norms)``
    as :func:`orthoproj.subspace.estimate_subspace` does. A zero candidate is
    always discarded by the threshold, never normalized.

    Candidates are checked for finiteness through the threshold norm: a
    non-finite candidate raises ``NumericError`` naming it when its turn
    comes, after the shape checks of every candidate.

    Each residual is formed in the next free row of one (candidates, dim)
    block, and an accepted one is normalized back into it after its second
    pass; that block is the basis's storage. Only
    when a candidate was discarded are the used rows copied out, so that a
    basis never holds rows it does not use.
    """
    if not math.isfinite(delta) or delta <= 0:
        raise ConfigurationError(f"delta must be positive and finite, got {delta}")
    vs = [_as_1d(c, f"candidate {i}") for i, c in enumerate(candidates)]
    if not vs:
        return OrthonormalBasis.empty(0)
    dim = vs[0].size
    for i, v in enumerate(vs):
        if v.size != dim:
            raise DimensionError(f"candidate {i} has length {v.size}, expected {dim}")

    block = np.empty((len(vs), dim))
    k = 0  # rows accepted so far, block[:k]
    for i, g in enumerate(vs):
        try:
            residual = _remove_components(g, block[:k], out=block[k])
            threshold_norm = norm(residual)
        except (NumericError, *_ERROR_STATE):  # a non-finite candidate has a non-finite residual
            as_vector(g, f"candidate {i}")
            raise
        if threshold_norm < delta:
            continue
        residual = _remove_components(residual, block[:k], out=residual)
        n = norm(residual)
        if n <= 0.0:
            raise NumericError("residual collapsed to zero during re-orthogonalization")
        np.divide(residual, n, out=block[k])
        k += 1
    if k == 0:
        return OrthonormalBasis.empty(dim)
    # every row is a finite residual over its positive norm, so the block is
    # handed over without a finiteness scan; a basis holds no unused rows
    return OrthonormalBasis._of(block[:k].copy() if k < len(vs) else block)


def project_complement(g, basis: OrthonormalBasis) -> np.ndarray:
    """Component of g orthogonal to the basis span.

    Coefficients are taken from g itself, so
    ``g == result + sum_j dot(g, u_j) * u_j`` holds to rounding, the result
    never exceeds g in norm, and re-projecting is idempotent. An empty basis
    returns g unchanged (as a copy).
    """
    gv = np.asarray(g, dtype=np.float64)
    if gv.ndim != 1 or basis.rank == 0 or basis.dim != gv.size:
        as_vector(gv, "g")
        if basis.rank == 0:
            return gv.copy()
        raise DimensionError(f"g has length {gv.size}, basis dimension is {basis.dim}")
    rows = basis.vectors
    try:
        coeffs = _seqdots(rows, gv)
        if not math.isfinite(coeffs[0]):  # a bad g, or finite products that overflowed
            as_vector(gv, "g")
        return _subtract_components(gv, coeffs, rows)
    except _ERROR_STATE:
        as_vector(gv, "g")
        raise


def angle_between(a, b) -> float:
    """Angle in radians between two nonzero vectors.

    Uses atan2 of the transverse and parallel components, which stays
    accurate near 0 and pi where acos(cos) loses half the digits.
    """
    av = as_vector(a, "a")
    bv = as_vector(b, "b")
    if av.size != bv.size:
        raise DimensionError(f"length mismatch: {av.size} vs {bv.size}")
    na = norm(av)
    nb = norm(bv)
    if na == 0.0 or nb == 0.0:
        raise NumericError("angle undefined for zero vectors")
    ua = av / na
    parallel = _seqdot(ua, bv)
    transverse = norm(bv - parallel * ua)
    return float(np.arctan2(transverse, parallel))
