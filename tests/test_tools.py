import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_differences_name_each_changed_or_missing_output():
    parent = {"exit code": b"0", "stdout": b"a\nb\n", "file out/x.csv": b"1\n"}
    change = {"exit code": b"0", "stdout": b"a\nc\n", "file out/y.csv": b"1\n"}
    assert same_outputs.differences(parent, parent) == []
    assert same_outputs.differences(parent, change) == [
        "file out/x.csv: only in PARENT",
        "file out/y.csv: only in CHANGE",
        "stdout: differs at line 2: b'b' != b'c'",
    ]
    longer = dict(parent, stdout=b"a\nb\nextra\n")
    assert same_outputs.differences(parent, longer) == [
        "stdout: differs at line 3: b'<end>' != b'extra'"]


def test_only_verify_timings_are_masked():
    line = (b"[PASS] orthogonality_suite (0.27s): gram=3.11e-15<=1e-10 elapsed=0.27s<10s\n"
            b"9/9 checks passed in 0.8s\n")
    assert same_outputs.TIMING.sub(b"#s", line) == (
        b"[PASS] orthogonality_suite (#s): gram=3.11e-15<=1e-10 elapsed=#s<10s\n"
        b"9/9 checks passed in #s\n")
    masked = {name: m for name, _, _, m in same_outputs.jobs(Path("."))}
    assert [name for name, m in masked.items() if m] == [
        "verify --seed 0", "verify --seed 1", "verify --seed 5", "verify --inject-skip-projection"]


def test_a_sweep_draws_through_every_branch_of_sample_batch():
    # reference batches below, equal to and above regression.cfg's 200
    # capability rows
    argvs = {name: argv for name, _, argv, _ in same_outputs.jobs(Path("."))}
    assert argvs["sweep regression refsize"][3:] == [
        "sweep", "--config", "regression.cfg", "--axis", "refsize", "--values", "50,200,400",
        "--out", "out"]
    cfg = (_PATH.parents[1] / "configs" / "regression.cfg").read_text()
    assert "n_capability = 200" in cfg


def test_jobs_move_the_seed_and_sweep_the_m_axis():
    argvs = {name: argv for name, _, argv, _ in same_outputs.jobs(Path("."))}
    assert argvs["run policy --seed 3"][3:] == [
        "run", "--config", "policy.cfg", "--seed", "3", "--out", "out"]
    cfg = (_PATH.parents[1] / "configs" / "policy.cfg").read_text()
    assert "[family]\nkind = policy_sft_dpo\n" in cfg and "\nseed" not in cfg.split("[train]")[0]
    assert argvs["sweep quadratic M"][3:] == [
        "sweep", "--config", "quadratic.cfg", "--axis", "M", "--values", "0,1", "--out", "out"]


def test_a_job_fingerprints_families_at_non_shipped_sizes():
    argvs = {name: argv for name, _, argv, _ in same_outputs.jobs(Path("."))}
    argv = argvs["fingerprints non-shipped sizes"]
    assert argv[:2] == [sys.executable, "-c"]
    src = str(_PATH.parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6 and len(set(lines)) == 6
    assert all(len(line) == 64 and set(line) <= set("0123456789abcdef") for line in lines)


def test_a_job_runs_replay_over_two_facets_at_a_weight_other_than_1():
    configs = {name: config for name, config, _, _ in same_outputs.jobs(Path("."))}
    name, edits = configs["run regression replay 0.5"]
    text = same_outputs.edited((_PATH.parents[1] / "configs" / name).read_text(), edits)
    train = text.split("[train]\n", 1)[1]
    assert "\nmethod = replay\n" in train and "replay_lambda = 0.5\n" in train
    assert "\nref_count = 2\n" in train and "ortho" not in text
    assert same_outputs.edited(text, {}) == text
