"""Desk-scale ablations: refresh period, subspace width, reference budget.

Same sweeps the command line exposes (orthoproj sweep --axis K|M|refsize),
driven through the library here so the numbers print inline.

Run:  python demos/06_ablations.py
"""

import dataclasses

from orthoproj import NO_REFRESH, build_family, train
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax

EXP = DEFAULTS["policy"]
fam = build_family(EXP.family_kind, EXP.family_seed, **EXP.family_params_dict())


def run(refresh=None, **overrides):
    # without a refresh override, the shipped schedule: coarse refresh for
    # the likelihood stage, fine for the preference stage. The tax reads
    # only the endpoints, so the runs skip the per-step probes.
    cfg = dataclasses.replace(EXP.train, probes=False)
    if refresh is not None:
        cfg = cfg.with_refresh(refresh)
    return alignment_tax(train(dataclasses.replace(cfg, **overrides), fam), fam)


print("== refresh period: dynamic beats static")
for k in (2, 5, 10, NO_REFRESH):
    label = "inf" if k == NO_REFRESH else str(k)
    print(f"  refresh {label:>3s}: total tax {run(refresh=k).total_tax:+.4f}")

print("\n== subspace width: both facets beat either alone")
for label, count, facets in (("none", 0, None), ("facet a", 1, (0,)),
                             ("facet b", 1, (1,)), ("both", 2, None)):
    print(f"  {label:8s}: total tax {run(ref_count=count, ref_facets=facets).total_tax:+.4f}")

print("\n== reference sample budget on the policy family: the tax moves less than 2x")
for n in (50, 100, 200):
    print(f"  {n:3d} samples/facet: total tax {run(ref_batch=n).total_tax:+.4f}")
