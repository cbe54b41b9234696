"""The quadratic pair: interference you can dial in radians.

The capability and safety objectives are quadratics whose gradients at the
start point meet at an exact, chosen angle. That makes every claim about
projection checkable in closed form: at pi/2 the projection never binds, at
0 it removes the whole update, and in between the projected step's
capability cost is purely second order.

Run:  python demos/02_quadratic_interference.py
"""

import dataclasses
import math

import numpy as np

from orthoproj import (angle_between, build_family, estimate_subspace, project_complement,
                       taylor_scaling, train)
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax

EXP = DEFAULTS["quadratic"]


def family_at(alpha):
    """The shipped quadratic pair with its gradient angle set to alpha."""
    return build_family(EXP.family_kind, EXP.family_seed, **dict(EXP.family_params, alpha=alpha))


print("== the constructed angle is exact")
for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
    fam = family_at(alpha)
    cap, safety = fam.tasks["capability"], fam.tasks["safety"]
    measured = angle_between(cap.gradient(fam.theta0), safety.gradient(fam.theta0))
    print(f"requested {alpha:.6f} rad, measured {measured:.6f} rad")

print("\n== one-step reference-loss change scales differently per method")
fam = family_at(math.pi / 4)
g_safe = fam.tasks["safety"].gradient(fam.theta0)
sub = estimate_subspace(fam.theta0, fam.capability_tasks, batch_size=1,
                        rng=np.random.default_rng(0), delta=1e-6, step=0)
for method, direction in (("ortho", project_complement(g_safe, sub.basis)), ("naive", g_safe)):
    report = taylor_scaling(fam, (1e-2, 1e-3, 1e-4), direction)
    print(f"{method:6s}: log-log slope {report.slope:.3f} "
          f"(changes: {[f'{c:.2e}' for c in report.loss_changes]})")
print("the projected step kills the first-order term, leaving the quadratic")
print("remainder; the naive step pays a first-order capability cost.")

print("\n== full runs at three angles")
for alpha, label in ((0.0, "collinear"), (math.pi / 3, "conflicted"),
                     (math.pi / 2, "orthogonal")):
    fam = family_at(alpha)
    row = []
    for method in ("naive", "replay", "ortho"):
        result = train(dataclasses.replace(EXP.train, method=method), fam)
        r = alignment_tax(result, fam)
        row.append(f"{method}: gain={r.safety_gain:+.3f} tax={r.total_tax:+.4f}")
    print(f"alpha={alpha:.3f} ({label}):  " + " | ".join(row))

print("\ncollinear: projection removes everything, the run stalls honestly;")
print("orthogonal: nothing to remove, projected training equals naive training;")
print("in between: projected training keeps most of the safety progress at a")
print("fraction of the capability tax.")
