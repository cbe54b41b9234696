"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Each test calls the check that ``orthoproj verify`` runs, with seed 0 where
the check takes a seed, and passes no gate: every tolerance and sample size
is bound once, inside its check in orthoproj.verify, so the command and
these tests gate on the same values. The golden margins live in
orthoproj.goldens and were recorded from the first full run of this
implementation; the tax-mitigation check holds new runs to them on top of
the qualitative gates.
"""

import dataclasses
import subprocess
import sys
import time

from orthoproj import verify
from orthoproj.config import DEFAULTS
from orthoproj.metrics import alignment_tax
from orthoproj.optimizer import train


def _report(number, name, result):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if result.passed else 'FAIL'} - {result.details}")
    assert result.passed, result.details


def test_criterion_1_orthogonality_suite():
    result = verify.check_orthogonality_suite(seed=0)
    _report(1, "orthogonality suite", result)


def test_criterion_2_rank_filtering():
    result = verify.check_rank_filtering(seed=0)
    _report(2, "rank filtering", result)


def test_criterion_3_gradient_correctness():
    result = verify.check_gradient_correctness(seed=0)
    _report(3, "gradient correctness", result)


def test_criterion_4_steepest_feasible_descent():
    result = verify.check_steepest_bound(seed=0)
    _report(4, "steepest feasible descent", result)


def test_criterion_5_first_order_preservation():
    result = verify.check_first_order(seed=0)
    _report(5, "first-order preservation", result)


def test_criterion_6_reduction_identities():
    result = verify.check_reduction_identities(seed=0)
    _report(6, "reduction identities", result)


def test_criterion_7_tax_mitigation():
    result = verify.check_tax_mitigation()
    _report(7, f"tax mitigation on seeds {verify.MITIGATION_SEEDS}", result)


def test_criterion_7_supplement_every_single_facet_dominated(policy_family):
    # the combined-subspace run must weakly dominate each single-facet run,
    # not just the first one (facet choice via ref_facets)
    fam = policy_family(seed=0)
    taxes = {}
    for label, count, facets in (("both", 2, None), ("a", 1, (0,)), ("b", 1, (1,))):
        cfg = dataclasses.replace(DEFAULTS["policy"].train, ref_count=count,
                                  ref_facets=facets)
        taxes[label] = alignment_tax(train(cfg, fam), fam).total_tax
    passed = taxes["both"] <= taxes["a"] and taxes["both"] <= taxes["b"]
    print(f"\nACCEPTANCE 7b facet dominance: {'PASS' if passed else 'FAIL'} - {taxes}")
    assert passed


def test_criterion_8_ablation_trends():
    result = verify.check_ablation_trends()
    _report(8, "ablation trends", result)


def test_criterion_9_run_determinism():
    result = verify.check_determinism(seed=0)
    _report(9, "run determinism", result)


def test_criterion_10_verify_command_under_budget():
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orthoproj.cli", "verify"],
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    passed = proc.returncode == 0 and elapsed < 120.0
    print(f"\nACCEPTANCE 10 verify command: {'PASS' if passed else 'FAIL'} - "
          f"exit={proc.returncode}, elapsed={elapsed:.1f}s < 120s")
    if not passed:
        print(proc.stdout)
    assert passed
