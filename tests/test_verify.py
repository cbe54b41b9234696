"""The verify legs that read only a run's endpoints skip the per-step
probes; their margins and details must be those of fully probed runs."""

import dataclasses
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from orthoproj import cli, verify
from orthoproj.metrics import TaxReport
from orthoproj.optimizer import TrainConfig, train
from orthoproj.tasks import TaskFamily


def probed_train(config, family):
    return train(dataclasses.replace(config, probes=True), family)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stem", verify.MITIGATION_STEMS)
def test_mitigation_margins_equal_probed_runs(monkeypatch, stem, seed):
    endpoint_only = verify._mitigation_margins(stem, seed)
    monkeypatch.setattr(verify, "train", probed_train)
    assert endpoint_only == verify._mitigation_margins(stem, seed)


def test_ablation_details_equal_probed_runs(monkeypatch):
    endpoint_only = verify.check_ablation_trends()
    monkeypatch.setattr(verify, "train", probed_train)
    probed = verify.check_ablation_trends()
    assert endpoint_only.passed and probed.passed
    assert endpoint_only.details == probed.details


def test_tax_mitigation_names_taxes_that_depart_from_the_record(monkeypatch):
    # every recorded tax 10% high: each of the 36 measured taxes departs by
    # more than the 5% tolerance, and the details name the first four
    scaled = {kind: {seed: {key: [1.1 * t for t in v] if key.startswith("tax_") else v
                            for key, v in golden.items()}
                     for seed, golden in seeds.items()}
              for kind, seeds in verify.GOLDEN_MARGINS.items()}
    monkeypatch.setattr(verify, "GOLDEN_MARGINS", scaled)
    result = verify.check_tax_mitigation()
    assert not result.passed
    assert result.details.count("departs from recorded") == 4
    assert result.details.endswith(" (+32 more)")


def test_tax_mitigation_names_ratios_that_depart_from_the_record(monkeypatch):
    # every recorded gain ratio and DPO drop ratio 10% high: the six gain
    # ratios and three drop ratios each depart by 9.1%, past the 5% tolerance
    scaled = {kind: {seed: {key: 1.1 * v if key.endswith("_ratio") else v
                            for key, v in golden.items()}
                     for seed, golden in seeds.items()}
              for kind, seeds in verify.GOLDEN_MARGINS.items()}
    monkeypatch.setattr(verify, "GOLDEN_MARGINS", scaled)
    result = verify.check_tax_mitigation()
    assert not result.passed
    assert len(re.findall(r"_ratio \S+ departs [\d.]+% from recorded", result.details)) == 4
    assert result.details.endswith(" (+5 more)")


def test_ablation_trends_names_every_failed_ordering(monkeypatch):
    # a leg's tax is ref_count * ref_batch: every K leg ties, M = 2 costs
    # twice M = 1, and the reference sizes spread 4x, so all three fail
    def total_tax(config):
        tax = float(config.ref_count * config.ref_batch)
        return TaxReport((), (), (), (tax,), 0.0, 0.0, 0.0)

    monkeypatch.setattr(verify, "train", lambda config, family: config)
    monkeypatch.setattr(verify, "alignment_tax", lambda config, family: total_tax(config))
    result = verify.check_ablation_trends()
    assert not result.passed
    problems = result.details.split(" | ")
    assert [p.split(" tax ")[0] for p in problems] == ["K=inf", "M=2", "refsize"]
    assert problems[2] == "refsize tax spread 4.00x >= 2.0x"


def test_legs_call_train_with_config_and_family_only(monkeypatch):
    # benchmark hooks stand in for verify.train with a two-argument
    # function, so a leg must pass nothing else; no leg goes through the CLI
    calls = {"verify": [], "cli": []}

    def recorder(where):
        def hooked(*args, **kwargs):
            calls[where].append((args, kwargs))
            return train(*args, **kwargs)
        return hooked

    monkeypatch.setattr(verify, "train", recorder("verify"))
    monkeypatch.setattr(cli, "train", recorder("cli"))
    assert all(r.passed for r in verify.run_all(0))
    assert calls["cli"] == []
    for args, kwargs in calls["verify"]:
        assert kwargs == {} and len(args) == 2
        assert isinstance(args[0], TrainConfig) and isinstance(args[1], TaskFamily)
    configs = [args[0] for args, _ in calls["verify"]]
    # 18 tax_mitigation legs and 11 ablation_trends legs go without probes;
    # reduction_identities (3) and determinism (2) compare records, so keep them
    assert len(configs) == 34
    assert sum(not c.probes for c in configs) == 18 + 11


def test_determinism_check_loads_no_cli():
    code = ("import sys; from orthoproj import verify; "
            "assert verify.check_determinism(0).passed; print('orthoproj.cli' in sys.modules)")
    src = str(Path(verify.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_goldens_regenerate_unchanged(tmp_path):
    # the recorded margins are what this tree measures: regenerating them
    # in a copy of the package leaves goldens.py byte for byte as committed
    package = Path(verify.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "orthoproj",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "-m", "orthoproj.goldens"], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    regenerated = (tmp_path / "orthoproj" / "goldens.py").read_bytes()
    assert regenerated == (package / "goldens.py").read_bytes()


def test_checks_take_no_gate():
    # gates and sample sizes are bound inside each check; a parameter other
    # than the seed or the fault injection would let a caller loosen one
    for fn in verify.CHECKS:
        assert set(inspect.signature(fn).parameters) <= {"seed", "inject"}, fn.__name__


def test_run_all_passes_each_check_the_arguments_it_names(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", (lambda: "none", lambda inject: inject,
                                           lambda seed: seed, lambda seed, inject: (seed, inject)))
    assert verify.run_all(7, inject_skip_projection=True) == ["none", True, 7, (7, True)]
