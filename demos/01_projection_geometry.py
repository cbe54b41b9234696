"""Walk through the geometric core: thresholded Gram-Schmidt, projection
onto the orthogonal complement, and the steepest-feasible-descent bound.

Run:  python demos/01_projection_geometry.py
"""

import numpy as np

from orthoproj import (OrthonormalBasis, dot, gram_schmidt, norm,
                       project_complement, steepest_check)

rng = np.random.default_rng(0)

print("== building an orthonormal basis from noisy, partly redundant candidates")
d = 40
base_directions = rng.standard_normal((3, d))
candidates = [
    base_directions[0],
    base_directions[1],
    0.7 * base_directions[0] - 1.2 * base_directions[1],   # in-span: redundant
    base_directions[2],
    np.zeros(d),                                           # degenerate
]
basis = gram_schmidt(candidates, delta=1e-6 * max(norm(c) for c in candidates))
print(f"candidates: {len(candidates)}, accepted rank: {basis.rank}")
print(f"orthonormality defect |U U^T - I|: {basis.orthonormality_defect():.2e}")

print("\n== projecting a gradient onto the orthogonal complement")
g = rng.standard_normal(d)
g_perp = project_complement(g, basis)
print(f"|g| = {norm(g):.4f}, |projected| = {norm(g_perp):.4f}")
print(f"removed fraction of squared norm: {1 - (norm(g_perp) / norm(g)) ** 2:.4f}")
print("residual inner products against the basis:",
      [f"{dot(g_perp, u):.1e}" for u in basis.vectors])

recon = g_perp + sum(dot(g, u) * u for u in basis.vectors)
print(f"reconstruction error |g - (g_perp + projection)|: {np.abs(recon - g).max():.2e}")

print("\n== no feasible direction descends faster than the projected gradient")
report = steepest_check(g, g_perp, basis, n_samples=10_000, rng=np.random.default_rng(1))
print(f"analytic bound on <g, v> over feasible unit v: {report.bound:.4f}")
print(f"best of {report.n_samples} random feasible directions: {report.min_directional:.4f}")
print(f"the direction -projected/|projected| attains the bound within "
      f"{report.attainment_error:.1e}")
print(f"violations of the bound: {report.violations}")

print("\n== an empty basis leaves gradients untouched")
empty = OrthonormalBasis.empty(d)
print("max |difference|:", np.abs(project_complement(g, empty) - g).max())
