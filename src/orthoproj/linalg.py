"""Dense float64 vector arithmetic and thresholded Gram-Schmidt.

Inner products accumulate strictly left to right, so every result here is
independent of BLAS build and thread count. The model passes use BLAS gemm,
whose rounding can depend on both, so a whole training run is bitwise
reproducible from a seed only for a fixed BLAS build and thread count.

The products are formed in blocks of ``BLOCK`` elements in one small
buffer, negated in place and subtracted from the running sum with
``np.subtract.reduce``. IEEE 754 defines x - y as x + (-y), so s - (-p)
rounds exactly as s + p, signed zeros included, and numpy folds a subtract
reduction left to right with the sum in a register (only ``add`` reduces
pairwise). The sum starts at -0.0, the exact additive identity. That is
the same sequence of roundings as ``np.add.accumulate`` over all the
products, with no partial sums stored and no full-length temporaries.

Finiteness is read off sums. A non-finite entry always makes the
fixed-order sum non-finite (inf * 0 and inf - inf are nan), so ``dot``,
``norm``, ``project_complement`` and ``gram_schmidt`` validate their inputs
only when a sum comes out non-finite or a shape check fails; they then
raise exactly what an upfront check would have raised. A sum that overflows
from finite inputs is returned as inf, not raised. The upfront check,
:func:`all_finite`, is a sum too: the BLAS sum of squares, with an
entry-by-entry mask only when that sum overflows, so its decision is exact
at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NumericError, ConfigurationError

__all__ = [
    "all_finite",
    "as_vector",
    "dot",
    "norm",
    "OrthonormalBasis",
    "gram_schmidt",
    "project_complement",
    "angle_between",
]

BLOCK = 32768  # products formed and summed per pass of _seqdot (256 KiB)


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
    # at a time: carry - (-p0) - (-p1) - ... rounds as carry + p0 + p1 + ...
    # The carry starts at -0.0, so every block runs the same body and a lone
    # -0.0 product stays -0.0.
    n = a.size
    if n == 0:
        return 0.0
    # one block needs no slices; they are a tenth of a short sum's time
    part = np.multiply(a, b) if n <= BLOCK else np.multiply(a[:BLOCK], b[:BLOCK])
    carry = -0.0
    lo = BLOCK
    while True:
        np.negative(part, out=part)
        carry = np.subtract.reduce(part, initial=carry)
        if lo >= n:
            return float(carry)
        part = part[:n - lo]
        np.multiply(a[lo:lo + BLOCK], b[lo:lo + BLOCK], out=part)
        lo += BLOCK


def dot(a, b) -> float:
    """Inner product with a fixed left-to-right accumulation order."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    s = math.nan
    if av.ndim == 1 and bv.ndim == 1 and av.size == bv.size:
        s = _seqdot(av, bv)
    if not math.isfinite(s):  # a bad input, or finite products that overflowed
        as_vector(av, "a")
        as_vector(bv, "b")
        if av.size != bv.size:
            raise DimensionError(f"length mismatch: {av.size} vs {bv.size}")
    return s


def norm(a) -> float:
    """Euclidean norm built on the same fixed-order accumulation as dot."""
    av = np.asarray(a, dtype=np.float64)
    s = _seqdot(av, av) if av.ndim == 1 else math.nan
    if not math.isfinite(s):  # a bad input, or finite squares that overflowed
        as_vector(av, "a")
    return math.sqrt(s)


def _subtract_components(g: np.ndarray, coeffs, rows) -> np.ndarray:
    # g - sum_j coeffs[j] * rows[j], subtracted in basis order; the first
    # product is formed in the output array itself, so a rank-1 basis
    # allocates one full-length array.
    out = np.multiply(rows[0], coeffs[0])
    np.subtract(g, out, out=out)
    for c, u in zip(coeffs[1:], rows[1:]):
        out -= c * u
    return out


def _remove_components(g: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    # One classical pass: all coefficients taken from the incoming vector,
    # then subtracted in basis order. No rows returns g itself.
    if len(rows) == 0:
        return g
    return _subtract_components(g, [_seqdot(g, u) for u in rows], rows)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal set stored row-wise: ``vectors[j]`` is the j-th direction.

    Invariants (guaranteed by :func:`gram_schmidt` with epsilon=0): every row
    has unit norm to 1e-10 and distinct rows have inner products below 1e-10
    in magnitude.
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
    def empty(cls, dim: int = 0) -> "OrthonormalBasis":
        return cls(np.zeros((0, dim)))

    @property
    def rank(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def gram(self) -> np.ndarray:
        """Explicit Gram matrix U U^T, used by orthonormality checks."""
        return self.vectors @ self.vectors.T

    def orthonormality_defect(self) -> float:
        """max |U U^T - I|, zero rank gives 0."""
        if self.rank == 0:
            return 0.0
        return float(np.abs(self.gram() - np.eye(self.rank)).max())


def gram_schmidt(candidates, delta: float, epsilon: float = 0.0) -> OrthonormalBasis:
    """Orthonormalize candidates in order, discarding near-collinear ones.

    A candidate is accepted iff the norm of its residual, after removing
    projections onto the previously accepted directions, is at least
    ``delta``. Accepted residuals get one extra re-orthogonalization pass
    before normalizing by (norm + epsilon); a single classical pass loses
    orthogonality on nearly collinear inputs, and the extra pass does not
    change which candidates are accepted.

    ``delta`` is an absolute threshold here. Callers that want the
    scale-invariant default should pass ``delta_rel * max(candidate norms)``
    as :func:`orthoproj.subspace.estimate_subspace` does. A zero candidate is
    always discarded by the threshold, never normalized.

    Candidates are checked for finiteness through the threshold norm: a
    non-finite candidate raises ``NumericError`` naming it when its turn
    comes, after the shape checks of every candidate.

    Each accepted residual is normalized straight into the next row of one
    (candidates, dim) block, and that block is the basis's storage. Only
    when a candidate was discarded are the used rows copied out, so that a
    basis never holds rows it does not use.
    """
    if not np.isfinite(delta) or delta <= 0:
        raise ConfigurationError(f"delta must be positive and finite, got {delta}")
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ConfigurationError(f"epsilon must be non-negative, got {epsilon}")
    vs = [_as_1d(c, f"candidate {i}") for i, c in enumerate(candidates)]
    if not vs:
        return OrthonormalBasis.empty(0)
    dim = vs[0].size
    for i, v in enumerate(vs):
        if v.size != dim:
            raise DimensionError(f"candidate {i} has length {v.size}, expected {dim}")

    block = np.empty((len(vs), dim))
    accepted: list[np.ndarray] = []  # views of block's leading rows
    for i, g in enumerate(vs):
        residual = _remove_components(g, accepted)
        try:
            threshold_norm = norm(residual)
        except NumericError:  # a non-finite candidate always has a non-finite residual
            as_vector(g, f"candidate {i}")
            raise
        if threshold_norm < delta:
            continue
        residual = _remove_components(residual, accepted)
        n = norm(residual)
        if n + epsilon <= 0.0:
            raise NumericError("residual collapsed to zero during re-orthogonalization")
        accepted.append(np.divide(residual, n + epsilon, out=block[len(accepted)]))
    if not accepted:
        return OrthonormalBasis.empty(dim)
    if len(accepted) < len(vs):  # a basis holds no unused rows
        return OrthonormalBasis(block[:len(accepted)].copy())
    return OrthonormalBasis(block)


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
    coeffs = [_seqdot(gv, u) for u in rows]
    if not math.isfinite(coeffs[0]):  # a bad g, or finite products that overflowed
        as_vector(gv, "g")
    return _subtract_components(gv, coeffs, rows)


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
