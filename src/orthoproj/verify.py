"""The full property-check suite behind the verify command.

Every check returns a :class:`CheckResult` with its observed margins, so a
failure says how far off the implementation is, not just that it is off.
Each check binds its gates and sample sizes once, in its body, and prints
them from there. It takes no parameter but ``seed`` and, for the two
projector checks, ``inject``; the tax-mitigation and ablation checks run at
pinned seeds and take neither. So ``orthoproj verify`` and the acceptance
tests gate on the same values.

``inject_skip_projection`` routes the checks that exercise the projector
through an identity function instead, simulating an implementation that
forgets to project; the orthogonality and steepest-descent checks must then
fail.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, tasks
from .config import DEFAULTS
from .goldens import GOLDEN_MARGINS
from .linalg import OrthonormalBasis, dots, gram_schmidt, norm, project_complement
from .metrics import alignment_tax, records_to_csv, tax_report_to_csv
from .models import Batch, LossKind, ModelSpec, gradient
from .optimizer import NO_REFRESH, Stage, train
from .subspace import estimate_subspace

__all__ = ["CheckResult", "run_all", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float


def _identity_projector(g, basis):
    return np.asarray(g, dtype=np.float64).copy()


def _projector(inject: bool):
    return _identity_projector if inject else project_complement


# ---------------------------------------------------------------------------
# criterion 1: orthogonality suite
# ---------------------------------------------------------------------------

def check_orthogonality_suite(seed: int = 0, inject: bool = False) -> CheckResult:
    dims, max_cands, seeds_per_cell = (10, 100, 1000), 8, 100
    tol_gram, tol_residual, tol_idem, tol_pyth, budget_s = 1e-10, 1e-8, 1e-12, 1e-9, 10.0
    start = time.perf_counter()
    project = _projector(inject)
    worst_gram = worst_resid = worst_idem = worst_pyth = 0.0
    contraction_violations = 0
    root = np.random.SeedSequence(seed)
    for d in dims:
        for m in range(1, max_cands + 1):
            rngs = [np.random.default_rng(s) for s in root.spawn(seeds_per_cell)]
            for rng in rngs:
                cands = rng.standard_normal((m, d))
                basis = gram_schmidt(cands, delta=1e-6 * max(norm(c) for c in cands))
                worst_gram = max(worst_gram, basis.orthonormality_defect())
                g = rng.standard_normal(d)
                g_norm = norm(g)
                proj = project(g, basis)
                resid = max((abs(c) for c in dots(basis.vectors, proj).tolist()), default=0.0)
                worst_resid = max(worst_resid, resid / g_norm)
                proj_norm = norm(proj)
                if proj_norm > g_norm:
                    contraction_violations += 1
                twice = project(proj, basis)
                worst_idem = max(worst_idem, float(np.abs(twice - proj).max()))
                coeffs_sq = sum(c ** 2 for c in dots(basis.vectors, g).tolist())
                pyth = abs(g_norm ** 2 - (proj_norm ** 2 + coeffs_sq)) / g_norm ** 2
                worst_pyth = max(worst_pyth, pyth)
    elapsed = time.perf_counter() - start
    passed = (worst_gram <= tol_gram and worst_resid <= tol_residual
              and worst_idem <= tol_idem and worst_pyth <= tol_pyth
              and contraction_violations == 0 and elapsed < budget_s)
    details = (f"gram={worst_gram:.2e}<={tol_gram:g} residual={worst_resid:.2e}<={tol_residual:g} "
               f"idem={worst_idem:.2e}<={tol_idem:g} pythagoras={worst_pyth:.2e}<={tol_pyth:g} "
               f"contraction_violations={contraction_violations} elapsed={elapsed:.2f}s<{budget_s:g}s")
    return CheckResult("orthogonality_suite", passed, details, elapsed)


# ---------------------------------------------------------------------------
# criterion 2: rank filtering
# ---------------------------------------------------------------------------

def check_rank_filtering(seed: int = 0) -> CheckResult:
    d, ranks, n_candidates, n_seeds = 50, (1, 2, 3, 4, 5), 8, 50
    start = time.perf_counter()
    failures = 0
    trials = 0
    root = np.random.SeedSequence(seed + 1)
    for r in ranks:
        for child in root.spawn(n_seeds):
            rng = np.random.default_rng(child)
            span = rng.standard_normal((r, d))
            coeffs = rng.standard_normal((n_candidates, r))
            cands = coeffs @ span
            cands /= np.sqrt((cands * cands).sum(axis=1))[:, None]  # O(1) norms
            basis = gram_schmidt(cands, delta=1e-6)
            trials += 1
            if basis.rank != r:
                failures += 1
    elapsed = time.perf_counter() - start
    return CheckResult("rank_filtering", failures == 0,
                       f"{trials} candidate sets, rank mismatches={failures}", elapsed)


# ---------------------------------------------------------------------------
# criterion 3: gradient correctness (finite differences)
# ---------------------------------------------------------------------------

def _fd_cases(rng: np.random.Generator):
    """One seeded configuration per supported (model, loss) pair."""
    cases = []

    spec = ModelSpec("quadratic", (12,))
    a = rng.standard_normal((6, 12))
    b = rng.standard_normal(6)
    cases.append((spec, LossKind("squared_error"), rng.standard_normal(12), Batch(a, b)))

    spec = ModelSpec("mlp2", (4, 8, 1))
    x = rng.standard_normal((16, 4))
    y = rng.standard_normal(16)
    cases.append((spec, LossKind("squared_error"), 0.5 * rng.standard_normal(spec.param_dim),
                  Batch(x, y)))

    spec = ModelSpec("softmax_policy", (6, 8))
    x = rng.standard_normal((16, 6))
    y = rng.integers(0, 8, size=16)
    cases.append((spec, LossKind("nll_sft"), 0.5 * rng.standard_normal(48), Batch(x, y)))

    x = rng.standard_normal((10, 6))
    tokens = np.column_stack([rng.integers(0, 4, 10), 4 + rng.integers(0, 4, 10)])
    cases.append((spec, LossKind("dpo_pairwise", beta=0.2),
                  0.5 * rng.standard_normal(48),
                  Batch(x, tokens, ref_params=0.5 * rng.standard_normal(48))))
    return cases


def check_gradient_correctness(seed: int = 0) -> CheckResult:
    n_configs, tol = 20, 1e-4
    start = time.perf_counter()
    worst = 0.0
    worst_case = ""
    cases = []
    root = np.random.SeedSequence(seed + 2)
    for child in root.spawn(n_configs):
        cases = _fd_cases(np.random.default_rng(child))
        for spec, kind, theta, batch in cases:
            err = oracle.gradient_agreement(gradient(spec, kind, theta, batch),
                                            spec, kind, theta, batch, rel_tol=tol)
            if err > worst:
                worst, worst_case = err, f"{spec.kind}/{kind.tag}"
    elapsed = time.perf_counter() - start
    return CheckResult("gradient_correctness", worst <= tol,
                       f"max per-coordinate rel err={worst:.2e}<= {tol:g} (worst: {worst_case}), "
                       f"{n_configs} configs x {len(cases)} pairs", elapsed)


# ---------------------------------------------------------------------------
# criterion 4: steepest feasible descent
# ---------------------------------------------------------------------------

def check_steepest_bound(seed: int = 0, inject: bool = False) -> CheckResult:
    dims, ranks, n_samples = (2, 10, 50), (0, 1, 3, 5), 10_000
    slack, tol_attain, tol_feasible = 1e-9, 1e-12, 1e-9
    start = time.perf_counter()
    project = _projector(inject)
    violations = 0
    worst_attain = 0.0
    worst_feasible = 0.0
    cells = 0
    children = iter(np.random.SeedSequence(seed + 3).spawn(len(dims) * len(ranks)))
    for d in dims:
        for m in ranks:
            child = next(children)
            if m >= d:
                continue  # the bound assumes a nonzero orthogonal complement
            rng = np.random.default_rng(child)
            g = rng.standard_normal(d)
            if m:
                basis = gram_schmidt(rng.standard_normal((m, d)), delta=1e-8)
            else:
                basis = OrthonormalBasis.empty(d)
            g_perp = project(g, basis)  # the (possibly injected) projector's claim
            report = oracle.steepest_check(g, g_perp, basis, n_samples, rng, slack=slack)
            cells += 1
            violations += report.violations
            worst_attain = max(worst_attain, report.attainment_error)
            v_star = -g_perp / norm(g_perp)
            feas = max((abs(c) for c in dots(basis.vectors, v_star).tolist()), default=0.0)
            worst_feasible = max(worst_feasible, feas)
    elapsed = time.perf_counter() - start
    passed = violations == 0 and worst_attain <= tol_attain and worst_feasible <= tol_feasible
    return CheckResult("steepest_descent_bound", passed,
                       f"{cells} (d, rank) cells x {n_samples} samples: violations={violations}, "
                       f"attainment err={worst_attain:.2e}<={tol_attain:g}, "
                       f"v* feasibility={worst_feasible:.2e}<={tol_feasible:g}", elapsed)


# ---------------------------------------------------------------------------
# criterion 5: first-order preservation
# ---------------------------------------------------------------------------

def check_first_order(seed: int = 0) -> CheckResult:
    etas, slope_tol, remainder_tol, quarter_tol = (1e-2, 1e-3, 1e-4), 0.2, 1e-6, 1e-6
    start = time.perf_counter()
    fam = _default_family("quadratic", seed)
    # the projected step against a fresh subspace of the first capability
    # task's gradient, and the naive step along the safety gradient itself
    g_safe = fam.tasks["safety"].gradient(fam.theta0)
    sub = estimate_subspace(fam.theta0, fam.capability_tasks[:1], 1,
                            np.random.default_rng(0), 1e-6, 0)
    g_perp = project_complement(g_safe, sub.basis)
    rep_orth = oracle.taylor_scaling(fam, etas, g_perp)
    rep_naive = oracle.taylor_scaling(fam, etas, g_safe)
    ok_slopes = (abs(rep_orth.slope - 2.0) <= slope_tol
                 and abs(rep_naive.slope - 1.0) <= slope_tol)
    ok_remainder = rep_orth.max_remainder_mismatch <= remainder_tol

    # eta -> eta/2 must shrink the projected step's reference-loss change 4x
    eta = etas[0]
    change_full, change_half, _ = oracle.taylor_scaling(
        fam, (eta, eta / 2, eta / 4), g_perp).loss_changes
    quarter_err = abs(change_full / change_half - 4.0) / 4.0
    ok_quarter = quarter_err <= quarter_tol

    elapsed = time.perf_counter() - start
    passed = ok_slopes and ok_remainder and ok_quarter
    return CheckResult("first_order_preservation", passed,
                       f"slope(ortho)={rep_orth.slope:.3f} in 2.0+-{slope_tol:g}, "
                       f"slope(naive)={rep_naive.slope:.3f} in 1.0+-{slope_tol:g}, "
                       f"remainder mismatch={rep_orth.max_remainder_mismatch:.2e}"
                       f"<={remainder_tol:g}, "
                       f"eta/2 quartering err={quarter_err:.2e}<={quarter_tol:g}", elapsed)


# ---------------------------------------------------------------------------
# criterion 6: reduction identities
# ---------------------------------------------------------------------------

def _bitwise_equal(a, b) -> bool:
    return (a.theta_final.tobytes() == b.theta_final.tobytes()
            and records_to_csv(a.records) == records_to_csv(b.records))


def check_reduction_identities(seed: int = 0) -> CheckResult:
    steps = 100
    start = time.perf_counter()
    fam = _default_family("regression", seed)
    base = replace(DEFAULTS["regression"].train, steps=steps, seed=seed,
                   stages=(Stage("safety", "squared_error", steps),))
    naive = train(replace(base, method="naive"), fam)
    ortho_m0 = train(replace(base, method="ortho", ref_count=0), fam)
    replay_l0 = train(replace(base, method="replay", replay_lambda=0.0), fam)
    ok_m0 = _bitwise_equal(naive, ortho_m0)
    ok_l0 = _bitwise_equal(naive, replay_l0)
    elapsed = time.perf_counter() - start
    return CheckResult("reduction_identities", ok_m0 and ok_l0,
                       f"{steps}-step runs bitwise: ortho(M=0)==naive: {ok_m0}, "
                       f"replay(lambda=0)==naive: {ok_l0}", elapsed)


# ---------------------------------------------------------------------------
# criterion 7: tax mitigation with recorded goldens
# ---------------------------------------------------------------------------

MITIGATION_STEMS = ("regression", "policy")  # the DEFAULTS the goldens record
MITIGATION_SEEDS = (0, 1, 2)  # the seeds they record


@functools.cache
def _default_family(stem: str, seed: int):
    """The shipped family of a stem; families are immutable, so the checks
    of one pass share each build (:func:`run_all` starts every pass afresh)."""
    exp = DEFAULTS[stem]
    return tasks.build_family(exp.family_kind, seed, **exp.family_params_dict())


def _mitigation_margins(stem: str, seed: int):
    """Per-seed mitigation measurements on a shipped experiment. They read
    only a run's endpoints (the DPO drop reads the last DPO-stage record),
    so the legs skip the per-step probes."""
    fam = _default_family(stem, seed)
    out = {}
    for method in ("ortho", "naive", "replay"):
        result = train(replace(DEFAULTS[stem].train, method=method, seed=seed,
                               probes=False), fam)
        report = alignment_tax(result, fam)
        out[method] = (result, report)
    o, n, p = out["ortho"][1], out["naive"][1], out["replay"][1]
    margins = {
        "tax_ortho": list(o.tax),
        "tax_naive": list(n.tax),
        "tax_replay": list(p.tax),
        "gain_ratio": o.safety_gain / n.safety_gain,
    }
    if fam.kind == "policy_sft_dpo":
        drops = {}
        for method in ("ortho", "naive"):
            records = out[method][0].records
            dpo_losses = [r.safety_loss for r in records if r.stage == "dpo"]
            drops[method] = math.log(2.0) - dpo_losses[-1]
        margins["dpo_drop_ratio"] = drops["ortho"] / drops["naive"]
    return margins


def check_tax_mitigation() -> CheckResult:
    ratio_floor, golden_tol = 0.70, 0.05
    start = time.perf_counter()
    problems = []
    summary = []
    for stem in MITIGATION_STEMS:
        kind = DEFAULTS[stem].family_kind
        for seed in MITIGATION_SEEDS:
            m = _mitigation_margins(stem, seed)
            for i, (to, tn) in enumerate(zip(m["tax_ortho"], m["tax_naive"])):
                if not to < tn:
                    problems.append(f"{kind}/seed{seed}: tax probe {i} {to:.4g} !< {tn:.4g}")
            if not m["gain_ratio"] >= ratio_floor:
                problems.append(f"{kind}/seed{seed}: gain ratio {m['gain_ratio']:.3f} < {ratio_floor}")
            if "dpo_drop_ratio" in m and not m["dpo_drop_ratio"] >= ratio_floor:
                problems.append(f"{kind}/seed{seed}: dpo drop ratio "
                                f"{m['dpo_drop_ratio']:.3f} < {ratio_floor}")
            golden = GOLDEN_MARGINS.get(kind, {}).get(str(seed))
            if golden is not None:
                for key in ("gain_ratio", "dpo_drop_ratio"):
                    if key in golden:
                        rel = abs(m[key] - golden[key]) / abs(golden[key])
                        if rel > golden_tol:
                            problems.append(f"{kind}/seed{seed}: {key} {m[key]:.4f} departs "
                                            f"{rel:.1%} from recorded {golden[key]:.4f}")
                for key in ("tax_ortho", "tax_naive", "tax_replay"):
                    for i, (got, want) in enumerate(zip(m[key], golden[key])):
                        denom = max(abs(want), 1e-6)
                        if abs(got - want) / denom > golden_tol:
                            problems.append(f"{kind}/seed{seed}: {key}[{i}] {got:.4g} departs "
                                            f"from recorded {want:.4g}")
            summary.append(f"{kind[:10]}/s{seed}: ratio={m['gain_ratio']:.2f}")
    elapsed = time.perf_counter() - start
    details = "; ".join(summary)
    if problems:
        details = " | ".join(problems[:4]) + (f" (+{len(problems)-4} more)" if len(problems) > 4 else "")
    return CheckResult("tax_mitigation", not problems, details, elapsed)


# ---------------------------------------------------------------------------
# criterion 8: ablation trends
# ---------------------------------------------------------------------------

def check_ablation_trends() -> CheckResult:
    seed, refsize_spread = 0, 2.0
    start = time.perf_counter()
    fam = _default_family("policy", seed)
    base = replace(DEFAULTS["policy"].train, seed=seed, probes=False)  # taxes read endpoints only
    problems = []

    def tax_with(config=base, **overrides):
        result = train(replace(config, **overrides), fam)
        return alignment_tax(result, fam).total_tax

    k_taxes = {k: tax_with(base.with_refresh(k)) for k in (2, 5, 10, NO_REFRESH)}
    best_finite = max(v for k, v in k_taxes.items() if k != NO_REFRESH)
    if not k_taxes[NO_REFRESH] > best_finite:
        problems.append(f"K=inf tax {k_taxes[NO_REFRESH]:.4g} not worse than finite {best_finite:.4g}")

    m_taxes = {
        "0": tax_with(ref_count=0),
        "1a": tax_with(ref_count=1, ref_facets=(0,)),
        "1b": tax_with(ref_count=1, ref_facets=(1,)),
        "2": tax_with(ref_count=2),
    }
    if not (m_taxes["2"] <= m_taxes["1a"] and m_taxes["2"] <= m_taxes["1b"]):
        problems.append(f"M=2 tax {m_taxes['2']:.4g} does not dominate "
                        f"1a={m_taxes['1a']:.4g} 1b={m_taxes['1b']:.4g}")

    ref_taxes = {n: tax_with(ref_batch=n) for n in (50, 100, 200)}
    spread = max(ref_taxes.values()) / min(ref_taxes.values())
    if not spread < refsize_spread:
        problems.append(f"refsize tax spread {spread:.2f}x >= {refsize_spread}x")

    elapsed = time.perf_counter() - start
    details = (f"K taxes={{{', '.join(f'{k}: {v:.3g}' for k, v in k_taxes.items())}}}; "
               f"M taxes={{{', '.join(f'{k}: {v:.3g}' for k, v in m_taxes.items())}}}; "
               f"refsize spread={spread:.2f}x")
    if problems:
        details = " | ".join(problems)
    return CheckResult("ablation_trends", not problems, details, elapsed)


# ---------------------------------------------------------------------------
# criterion 9: run determinism
# ---------------------------------------------------------------------------

def check_determinism(seed: int = 0) -> CheckResult:
    start = time.perf_counter()
    exp = DEFAULTS["quadratic"]
    config = replace(exp.train, seed=seed)
    payloads = []
    for _ in range(2):  # a fresh build each time, so the family is rebuilt too
        fam = tasks.build_family(exp.family_kind, seed, **exp.family_params_dict())
        result = train(config, fam)
        payloads.append((records_to_csv(result.records),
                         tax_report_to_csv(alignment_tax(result, fam))))
    same = payloads[0] == payloads[1]
    elapsed = time.perf_counter() - start
    return CheckResult("determinism", same,
                       f"repeated run CSVs bitwise identical: {same}", elapsed)


CHECKS = (
    check_orthogonality_suite,
    check_rank_filtering,
    check_gradient_correctness,
    check_steepest_bound,
    check_first_order,
    check_reduction_identities,
    check_tax_mitigation,
    check_ablation_trends,
    check_determinism,
)


def run_all(seed: int = 0, inject_skip_projection: bool = False) -> list[CheckResult]:
    """Run the whole suite.

    ``seed`` reseeds the sampled test matrices of the property checks
    without changing any gate. The benchmark-trend checks (tax mitigation,
    ablation orderings) always run at their pinned seeds: their goldens and
    orderings are recorded properties of those specific runs. Each check
    gets the arguments, of ``seed`` and ``inject``, that its signature names.
    """
    _default_family.cache_clear()
    args = {"seed": seed, "inject": inject_skip_projection}
    return [fn(**{k: v for k, v in args.items() if k in inspect.signature(fn).parameters})
            for fn in CHECKS]
