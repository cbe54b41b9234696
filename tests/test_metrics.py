import math

import numpy as np
import pytest

from orthoproj.errors import ConfigurationError
from orthoproj.metrics import (RunRecord, alignment_tax, records_header,
                               records_to_csv, summary_table, tax_report_to_csv)
from orthoproj.optimizer import Stage, TrainConfig, TrainResult, train

QUAD_BASE = dict(eta=0.05, steps=100, refresh_every=5, ref_count=1,
                 safety_batch=1, ref_batch=1, seed=0,
                 stages=(Stage("safety", "squared_error", 100),))


def _result_with_theta(fam, theta, config=None):
    record = RunRecord(0, "safety", 0.0, (0.0,), 1.0, 1.0, 0.0, 0, 0)
    return TrainResult(theta_final=np.asarray(theta, dtype=np.float64),
                       records=(record,),
                       config=config or TrainConfig(**QUAD_BASE),
                       subspace_history=(),
                       family_fingerprint=fam.fingerprint)


class TestAlignmentTax:
    def test_unmoved_parameters_give_zero_tax(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        report = alignment_tax(_result_with_theta(fam, fam.theta0), fam)
        assert report.tax == (0.0,)
        assert report.safety_gain == 0.0
        assert report.total_tax == 0.0

    def test_sign_identity(self, quadratic_family):
        fam = quadratic_family(math.pi / 3)
        result = train(TrainConfig(method="naive", **QUAD_BASE), fam)
        report = alignment_tax(result, fam)
        for name, pre, post, tax in zip(report.ref_names, report.phi_pre,
                                        report.phi_post, report.tax):
            task = fam.tasks[name]
            assert tax == task.loss(result.theta_final) - task.loss(fam.theta0)
            assert tax == pre - post  # phi = -loss convention
            assert (tax > 0) == (task.loss(result.theta_final) > task.loss(fam.theta0))

    def test_orthogonal_single_step_tax_is_exact_remainder(self, quadratic_family):
        fam = quadratic_family(math.pi / 2)
        base = dict(QUAD_BASE, steps=1, stages=(Stage("safety", "squared_error", 1),))
        result = train(TrainConfig(method="ortho", **base), fam)
        cap = fam.capability_tasks[0]
        image = cap.train.inputs @ (result.theta_final - fam.theta0)
        remainder = 0.5 * float(image @ image)
        assert alignment_tax(result, fam).tax[0] == pytest.approx(remainder, abs=1e-15)

    def test_rejects_foreign_family(self, quadratic_family):
        fam_a = quadratic_family(math.pi / 4)
        fam_b = quadratic_family(math.pi / 3)
        result = train(TrainConfig(method="naive", **QUAD_BASE), fam_a)
        with pytest.raises(ConfigurationError):
            alignment_tax(result, fam_b)


class TestSummaryTable:
    def test_single_result_echoes_report(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        report = alignment_tax(result, fam)
        table = summary_table("method", [("ortho", result, report)])
        assert table.columns == ("method", "safety_gain", "tax_capability",
                                 "total_tax", "mean_removed_fraction", "mean_rank")
        assert table.rows[0][0] == "ortho"
        assert table.rows[0][1] == report.safety_gain
        assert table.rows[0][2] == report.tax[0]

    def test_collinear_stall_row_is_all_zero(self, quadratic_family):
        fam = quadratic_family(0.0)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        table = summary_table("method", [("ortho", result, alignment_tax(result, fam))])
        row = table.rows[0]
        assert abs(row[1]) <= 1e-9   # safety gain
        assert abs(row[2]) <= 1e-9   # tax
        naive = train(TrainConfig(method="naive", **QUAD_BASE), fam)
        naive_report = alignment_tax(naive, fam)
        assert naive_report.safety_gain > 0.1
        assert naive_report.total_tax > 0.1


class TestRecordsCsv:
    def test_exact_header(self):
        assert records_header(2) == ("step,stage,safety_loss,ref_loss_0,ref_loss_1,"
                                     "g_norm,g_tilde_norm,removed_fraction,rank,age")

    def test_row_count_and_determinism(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        text = records_to_csv(result.records)
        assert len(text.splitlines()) == 101
        again = records_to_csv(train(TrainConfig(method="ortho", **QUAD_BASE), fam).records)
        assert text == again

    def test_no_records_raise(self):
        with pytest.raises(ConfigurationError, match="no records to render"):
            records_to_csv(())

    def test_removed_fraction_identity(self, regression_family):
        fam = regression_family()
        cfg = TrainConfig(method="ortho", eta=0.02, steps=30, refresh_every=5,
                          ref_count=2, safety_batch=64, ref_batch=200, seed=0,
                          stages=(Stage("safety", "squared_error", 30),))
        for record in train(cfg, fam).records:
            assert 0.0 <= record.removed_fraction <= 1.0
            if record.g_norm > 0:
                expected = 1.0 - (record.g_tilde_norm / record.g_norm) ** 2
                assert abs(record.removed_fraction - expected) <= 1e-9

    def test_tax_csv_layout(self, quadratic_family):
        fam = quadratic_family(math.pi / 4)
        result = train(TrainConfig(method="ortho", **QUAD_BASE), fam)
        text = tax_report_to_csv(alignment_tax(result, fam))
        lines = text.splitlines()
        assert lines[0] == "quantity,task,value"
        quantities = {line.split(",")[0] for line in lines[1:]}
        assert quantities == {"phi_pre", "phi_post", "tax", "safety_pre",
                              "safety_post", "safety_gain", "total_tax"}
