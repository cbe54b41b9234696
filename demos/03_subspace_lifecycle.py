"""How the capability subspace is estimated, refreshed, and goes stale.

Run:  python demos/03_subspace_lifecycle.py
"""

import dataclasses

import numpy as np

from orthoproj import NO_REFRESH, build_family, estimate_subspace, train
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax

EXP = DEFAULTS["policy"]
fam = build_family(EXP.family_kind, EXP.family_seed, **EXP.family_params_dict())

print("== estimation: one gradient per reference facet, orthonormalized")
sub = estimate_subspace(fam.theta0, list(fam.capability_tasks), batch_size=200,
                        rng=np.random.default_rng(0), delta=1e-6, step=0)
print(f"{sub.candidate_count} facets -> rank {sub.rank} basis, built at step {sub.built_at_step}")

print("\n== duplicated facets add no rank (the threshold discards them)")
doubled = estimate_subspace(fam.theta0, list(fam.capability_tasks) * 2, 200,
                            np.random.default_rng(0), 1e-6, 0)
print(f"{doubled.candidate_count} candidates -> rank {doubled.rank}")

print("\n== refresh period: fresh bases track the moving loss geometry")
for period in (2, 5, 10, NO_REFRESH):
    # the tax and the removed fraction need no per-step probe losses
    cfg = dataclasses.replace(EXP.train.with_refresh(period), probes=False)
    result = train(cfg, fam)
    report = alignment_tax(result, fam)
    removed = sum(r.removed_fraction for r in result.records) / len(result.records)
    label = "never (static)" if period == NO_REFRESH else f"every {period}"
    print(f"refresh {label:15s}: rebuilds={len(result.subspace_history):3d} "
          f"tax={report.total_tax:+.4f} gain={report.safety_gain:+.3f} "
          f"mean removed fraction={removed:.3f}")

print("\na static basis protects the directions that mattered at step 0; as the")
print("parameters move it stops intersecting the real interference directions")
print("(see the removed fraction collapse) and retention degrades sharply.")
