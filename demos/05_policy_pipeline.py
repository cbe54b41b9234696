"""Two-stage safety pipeline on the softmax policy: likelihood tuning on
safe labels, then pairwise preference tuning against a frozen reference.

The preference stage's reference policy is re-frozen at the stage boundary,
so its probe loss starts at exactly log 2 and falls as the margin grows.

Run:  python demos/05_policy_pipeline.py  (writes out/policy_curves.svg)
"""

import dataclasses
import math
from pathlib import Path

from orthoproj import build_family, train
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax
from orthoproj.plots import line_chart

EXP = DEFAULTS["policy"]

curves = {}
for method in ("naive", "ortho"):
    fam = build_family(EXP.family_kind, EXP.family_seed, **EXP.family_params_dict())
    result = train(dataclasses.replace(EXP.train, method=method), fam)
    report = alignment_tax(result, fam)
    curves[f"{method} capability"] = [sum(r.ref_losses) for r in result.records]
    curves[f"{method} safety"] = [r.safety_loss for r in result.records]
    dpo_losses = [r.safety_loss for r in result.records if r.stage == "dpo"]
    print(f"{method:6s}: capability tax {[f'{t:+.4f}' for t in report.tax]}, "
          f"safety-probe gain {report.safety_gain:+.3f}, "
          f"preference loss log2 -> {dpo_losses[-1]:.4f}")

print(f"\n(log 2 = {math.log(2):.4f}; the preference stage starts there by "
      "construction because the reference policy is the stage-entry snapshot)")

out = Path("out")
out.mkdir(exist_ok=True)
(out / "policy_curves.svg").write_text(
    line_chart(list(range(EXP.train.steps)), curves,
               "two-stage pipeline: per-stage probe losses", "step", "loss"))
print(f"wrote {out / 'policy_curves.svg'}")
