"""Forgetting curves on the MLP regression family, three methods compared.

The safety teacher rewrites a feature mapping the two capability facets
rely on. Naive descent forgets, replay partially repairs at the price of
extra gradient computations, projected descent mostly never damages.

Run:  python demos/04_regression_forgetting.py  (writes out/regression_curves.svg)
"""

import dataclasses
from pathlib import Path

from orthoproj import build_family, train
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax, summary_table
from orthoproj.plots import line_chart

EXP = DEFAULTS["regression"]
fam = build_family(EXP.family_kind, EXP.family_seed, **EXP.family_params_dict())

rows = []
curves = {}
for method in ("naive", "replay", "ortho"):
    result = train(dataclasses.replace(EXP.train, method=method), fam)
    report = alignment_tax(result, fam)
    rows.append((method, result, report))
    curves[f"{method} cap_a"] = [r.ref_losses[0] for r in result.records]
    print(f"{method:7s}: safety {report.safety_pre:.3f} -> {report.safety_post:.3f} "
          f"(gain {report.safety_gain:+.3f}) | capability tax per probe "
          f"{[f'{t:+.4f}' for t in report.tax]}")

print("\n== summary table (stable column order)")
print(summary_table("method", sorted(rows, key=lambda row: row[0])).to_csv(), end="")

out = Path("out")
out.mkdir(exist_ok=True)
steps = list(range(EXP.train.steps))
(out / "regression_curves.svg").write_text(
    line_chart(steps, curves, "capability probe (facet a) during safety tuning",
               "step", "probe loss"))
print(f"\nwrote {out / 'regression_curves.svg'}")
