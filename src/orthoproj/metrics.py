"""Per-step records, capability-tax reports, and comparison tables.

Conventions: the capability score of a task is phi = -loss on its fixed
probe, so the tax of a run is
tax = phi(theta0) - phi(theta_final) = loss(theta_final) - loss(theta0),
positive exactly when the probe loss went up. The safety gain is the drop in
the family's canonical safety-probe loss over the run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = [
    "RunRecord",
    "TaxReport",
    "ComparisonTable",
    "alignment_tax",
    "summary_table",
    "records_header",
    "records_to_csv",
]


@dataclass(frozen=True)
class RunRecord:
    """One training step: probe losses plus projection diagnostics.

    ``removed_fraction`` is 1 - (g_tilde_norm / g_norm)^2, the share of
    squared gradient norm eliminated by projection (0 when the raw gradient
    is zero, or for methods that do not project). ``age`` is steps since the
    active subspace was built; methods without a subspace record rank 0 and
    age 0.
    """

    step: int
    stage: str
    safety_loss: float
    ref_losses: tuple[float, ...]
    g_norm: float
    g_tilde_norm: float
    removed_fraction: float
    rank: int
    age: int


@dataclass(frozen=True)
class TaxReport:
    """Capability tax per reference probe plus the safety-gain summary."""

    ref_names: tuple[str, ...]
    phi_pre: tuple[float, ...]
    phi_post: tuple[float, ...]
    tax: tuple[float, ...]
    safety_pre: float
    safety_post: float
    safety_gain: float

    @property
    def total_tax(self) -> float:
        return float(sum(self.tax))


def alignment_tax(result, family) -> TaxReport:
    """Evaluate the run's endpoints on the family's fixed probes."""
    if result.family_fingerprint != family.fingerprint:
        raise ConfigurationError("result does not belong to this family")
    theta0 = family.theta0
    theta_final = result.theta_final
    names, pre, post, tax = [], [], [], []
    for task in family.capability_tasks:
        l0 = task.loss(theta0)
        l1 = task.loss(theta_final)
        names.append(task.name)
        pre.append(-l0)
        post.append(-l1)
        tax.append(l1 - l0)
    safety = family.tasks[family.safety_metric_task]
    s0 = safety.loss(theta0)
    s1 = safety.loss(theta_final)
    return TaxReport(tuple(names), tuple(pre), tuple(post), tuple(tax),
                     s0, s1, s0 - s1)


# ---------------------------------------------------------------------------
# CSV emission (exact, stable headers)
# ---------------------------------------------------------------------------

def records_header(n_ref: int) -> str:
    refs = ",".join(f"ref_loss_{i}" for i in range(n_ref))
    return f"step,stage,safety_loss,{refs},g_norm,g_tilde_norm,removed_fraction,rank,age"


def records_to_csv(records) -> str:
    """Render step records with the documented stable header."""
    if not records:
        raise ConfigurationError("no records to render")
    n_ref = len(records[0].ref_losses)
    lines = [records_header(n_ref)]
    for r in records:
        refs = ",".join(repr(v) for v in r.ref_losses)
        lines.append(f"{r.step},{r.stage},{r.safety_loss!r},{refs},"
                     f"{r.g_norm!r},{r.g_tilde_norm!r},{r.removed_fraction!r},{r.rank},{r.age}")
    return "\n".join(lines) + "\n"


def tax_report_to_csv(report: TaxReport) -> str:
    """Long-format tax report: quantity,task,value."""
    lines = ["quantity,task,value"]
    for name, pre, post, tax in zip(report.ref_names, report.phi_pre,
                                    report.phi_post, report.tax):
        lines.append(f"phi_pre,{name},{pre!r}")
        lines.append(f"phi_post,{name},{post!r}")
        lines.append(f"tax,{name},{tax!r}")
    lines.append(f"safety_pre,,{report.safety_pre!r}")
    lines.append(f"safety_post,,{report.safety_post!r}")
    lines.append(f"safety_gain,,{report.safety_gain!r}")
    lines.append(f"total_tax,,{report.total_tax!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonTable:
    """Per-method summary rows with a stable column order."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(v if isinstance(v, str) else repr(v) for v in row))
        return "\n".join(lines) + "\n"


def summary_table(key: str, labelled) -> ComparisonTable:
    """One row per (label, result, report) triple, in the order given:
    label, safety gain, per-probe tax, total tax, projection stats."""
    columns = (key, "safety_gain",
               *[f"tax_{n}" for n in labelled[0][2].ref_names],
               "total_tax", "mean_removed_fraction", "mean_rank")
    rows = []
    for label, result, report in labelled:
        n = len(result.records)
        mean_removed = sum(rec.removed_fraction for rec in result.records) / n
        mean_rank = sum(rec.rank for rec in result.records) / n
        rows.append((label, report.safety_gain, *report.tax,
                     report.total_tax, mean_removed, mean_rank))
    return ComparisonTable(columns, tuple(rows))
