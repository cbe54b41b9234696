import dataclasses
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthoproj import cli, config
from orthoproj.cli import main
from orthoproj.config import DEFAULTS, render_config, train_value
from orthoproj.optimizer import train
from orthoproj.tasks import build_family


def _config_text(stem, **family):
    """A shipped experiment as config text, with family parameters overridden."""
    exp = DEFAULTS[stem]
    params = tuple(sorted(dict(exp.family_params, **family).items()))
    return render_config(dataclasses.replace(exp, family_params=params))


@pytest.fixture
def quad_config(tmp_path):
    def write(alpha=math.pi / 4, **edits):
        text = _config_text("quadratic", alpha=alpha)
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path
    return write


@pytest.fixture
def trained(monkeypatch):
    """The arguments of each ``cli.train`` call, which still trains."""
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args: calls.append(args) or train(*args))
    return calls


class TestRun:
    def test_outputs_present(self, quad_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(quad_config()), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"records.csv", "tax.csv", "config_resolved.cfg", "curves.svg"}
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 101

    def test_rerun_is_bitwise_identical(self, quad_config, tmp_path):
        cfg = quad_config()
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("records.csv", "tax.csv", "config_resolved.cfg", "curves.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_refresh_schedule_in_records(self, quad_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(quad_config()), "--out", str(out)])
        rows = (out / "records.csv").read_text().splitlines()[1:]
        ages = [int(r.split(",")[-1]) for r in rows]
        steps = [int(r.split(",")[0]) for r in rows]
        refreshed = [s for s, a in zip(steps, ages) if a == 0]
        assert refreshed == list(range(0, 100, 5))

    def test_config_echo_round_trips(self, quad_config, tmp_path):
        from orthoproj.config import parse_config_file
        out = tmp_path / "out"
        cfg = quad_config()
        main(["run", "--config", str(cfg), "--out", str(out)])
        echoed = parse_config_file(out / "config_resolved.cfg")
        original = parse_config_file(cfg)
        assert echoed.train == original.train
        assert echoed.family_params == original.family_params

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[experiment]\nversion = 1\n[family]\nkind = nope\n")
        assert main(["run", "--config", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, quad_config, tmp_path, capsys):
        cfg = quad_config(**{"eta = 0.05": "eta = 1e3"})
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "step" in capsys.readouterr().err
        # the directory is made before training, so a failed run leaves it empty
        assert list((tmp_path / "o").iterdir()) == []

    def test_seed_override_changes_outputs(self, quad_config, tmp_path):
        # no [family] seed: the family follows the train seed, so --seed moves both
        cfg = quad_config(**{"\nseed = 0\nalpha": "\nalpha"})
        outs = [tmp_path / "s0", tmp_path / "s9"]
        main(["run", "--config", str(cfg), "--out", str(outs[0])])
        main(["run", "--config", str(cfg), "--seed", "9", "--out", str(outs[1])])
        assert (outs[0] / "records.csv").read_bytes() != (outs[1] / "records.csv").read_bytes()
        assert "[family]\nkind = quadratic_pair\nseed = 9\n" in (
            outs[1] / "config_resolved.cfg").read_text()

    def test_seed_override_keeps_a_given_family_seed(self, quad_config, tmp_path):
        # [family] seed = 0 equals the train seed; --seed must still leave it
        cfg = quad_config()
        assert "[family]\nkind = quadratic_pair\nseed = 0\n" in cfg.read_text()
        outs = [tmp_path / "s0", tmp_path / "s7"]
        main(["run", "--config", str(cfg), "--out", str(outs[0])])
        main(["run", "--config", str(cfg), "--seed", "7", "--out", str(outs[1])])
        resolved = (outs[1] / "config_resolved.cfg").read_text()
        assert "[family]\nkind = quadratic_pair\nseed = 0\n" in resolved
        assert "\nseed = 7\nstages" in resolved
        # the quadratic pair's batches are the whole system, so only the
        # family seed could move its records
        assert (outs[0] / "records.csv").read_bytes() == (outs[1] / "records.csv").read_bytes()

    def test_no_temp_files_left(self, quad_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(quad_config()), "--out", str(out)])
        assert not [p for p in out.iterdir() if ".tmp" in p.name]


def test_atomic_writers_to_one_path_do_not_collide(tmp_path, monkeypatch):
    # a second write to the same path lands between the outer write and its
    # rename; with a shared temp name the outer rename finds no file
    target = tmp_path / "out" / "table.csv"
    real_replace = os.replace
    nested = []

    def replace(src, dst):
        if not nested:
            nested.append(src)
            cli.atomic_write_text(target, "inner\n")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    cli.atomic_write_text(target, "outer\n")
    assert target.read_text() == "outer\n"
    assert [p.name for p in target.parent.iterdir()] == ["table.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


@pytest.mark.parametrize("umask", [0o077, 0o002], ids=oct)
def test_atomic_write_follows_the_umask_in_force(tmp_path, umask):
    # the umask is set after the module was imported; at least one of the
    # two differs from the one in force at import
    before = os.umask(umask)
    try:
        cli.atomic_write_text(tmp_path / "atomic.csv", "x\n")
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(before)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic.csv", "plain.csv")}
    assert modes == {0o666 & ~umask}


def test_import_loads_no_network_stack():
    # xml.sax.saxutils pulls in urllib, http, ssl, socket and email; the
    # SVG writer needs one escape function from it and defines its own
    code = ("import sys; before = set(sys.modules); import orthoproj.cli, orthoproj.verify; "
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "orthoproj.cli" in loaded
    heavy = ("xml.sax", "urllib.request", "http.client", "ssl", "email")
    assert [m for m in loaded if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


@pytest.mark.parametrize("command", [["run"], ["compare"],
                                     ["sweep", "--axis", "M", "--values", "1"]])
def test_family_rejected_by_constructor_exits_2(command, tmp_path, capsys):
    # d = 1 parses but the quadratic constructor rejects it
    cfg = tmp_path / "d1.cfg"
    cfg.write_text(_config_text("quadratic", d=1))
    code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe[experiment]\n", None, "directory"],
                         ids=["undecodable", "missing", "directory"])
def test_unreadable_config_exits_2_naming_the_file(content, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    if content == "directory":
        cfg.mkdir()
    elif content is not None:
        cfg.write_bytes(content)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read {str(cfg)!r}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"], ["compare"],
                                     ["sweep", "--axis", "M", "--values", "0,1"]])
def test_unwritable_output_exits_2_naming_the_path(command, quad_config, tmp_path, capsys,
                                                   trained):
    # --out under a regular file: no output directory can be made there
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([*command, "--config", str(quad_config()), "--out", str(blocker / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: cannot write '{blocker / 'out'}")
    assert "Traceback" not in err
    assert trained == []  # every command makes its root before anything trains


@pytest.mark.parametrize("values, first, second", [
    ("1,1", "1", "1"), ("1,01", "1", "01"), ("0,bogus,1,01", "1", "01"),
    ("inf,2,inf", "inf", "inf")])
def test_sweep_rejects_values_giving_the_same_setting(values, first, second, quad_config,
                                                      tmp_path, capsys, trained):
    out = tmp_path / "sweep"
    axis, key = ("K", "refresh_every") if "inf" in values else ("M", "ref_count")
    code = main(["sweep", "--config", str(quad_config()), "--axis", axis, "--values", values,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: --values {first!r} and {second!r} give the same {key}\n")
    assert trained == []
    assert not out.exists()


def test_sweep_rejects_empty_values(quad_config, tmp_path, capsys, trained):
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(quad_config()), "--axis", "M", "--values", " , ",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "config error: --values is empty\n"
    assert trained == []
    assert not out.exists()


@pytest.mark.parametrize("stem, key, value, message", [
    ("policy", "n_capability", "0", "n_capability must be >= 1, got 0"),
    ("policy", "vocab", "3", "vocab must be >= 4 for the policy family, got 3"),
    ("regression", "hidden", "0", "hidden must be >= 1, got 0"),
    ("quadratic", "d", "1", "d must be >= 2 for a quadratic pair, got 1")])
def test_family_rejection_points_at_its_key(stem, key, value, message, tmp_path, capsys):
    # a shipped config file with one [family] value the constructor rejects,
    # written in the shipped style and without spaces
    text = (Path(__file__).resolve().parents[1] / "configs" / f"{stem}.cfg").read_text()
    lines = text.splitlines()
    (line_no,) = [i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = ")]
    for assignment in (f"{key} = {value}", f"{key}={value}"):
        lines[line_no - 1] = assignment
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        column = len(assignment) - len(value) + 1  # the value's first character
        assert capsys.readouterr().err == (
            f"config error: line {line_no}, column {column}: [family] invalid: {message}\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("stem, key, value", [
    ("regression", "n_capability", "0"), ("policy", "n_capability", "0"),
    ("regression", "n_safety", "0"), ("policy", "n_safety", "0"),
    ("regression", "n_capability", "-5"), ("policy", "n_safety", "-1"),
    ("regression", "noise_sigma", "inf"), ("regression", "eta", "inf"),
    ("regression", "delta", "inf"), ("regression", "replay_lambda", "inf")])
def test_bad_family_size_or_train_float_exits_2(stem, key, value, tmp_path, capsys):
    # rejected by name before any step runs, not by numpy or a diverged step
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", _config_text(stem), flags=re.MULTILINE)
    if key == "replay_lambda":
        text = text.replace("method = ortho", "method = replay")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert f"\n{key} = {value}\n" in text
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"], ["verify"], ["compare"],
                                     ["sweep", "--axis", "M", "--values", "1"]])
def test_negative_seed_option_exits_2(command, quad_config, capsys):
    # numpy takes only non-negative seeds; argparse refuses the value first
    argv = [*command, "--seed", "-1"]
    if command != ["verify"]:
        argv += ["--config", str(quad_config())]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # each line of the README's command block, its [...] optionals dropped,
    # run from the repo root
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Command line\n", 1)[1]
    lines = re.search(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL)[1].splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["orthoproj", "run"], ["orthoproj", "verify"], ["orthoproj", "sweep"],
        ["orthoproj", "compare"]]
    monkeypatch.chdir(root)
    for i, line in enumerate(lines):
        argv = shlex.split(re.sub(r"\[[^]]*\]", "", line))[1:]
        if "[--out DIR]" in line:
            argv += ["--out", str(tmp_path / str(i))]
        assert main(argv) == 0, line


class TestSweep:
    def test_k_sweep_static_basis_is_worst(self, tmp_path):
        cfg = tmp_path / "policy.cfg"
        cfg.write_text(_config_text("policy"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--axis", "K",
                     "--values", "2,5,10,inf", "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("K,safety_gain,")
        assert len(lines) == 5
        taxes = {row.split(",")[0]: float(row.split(",")[4]) for row in lines[1:]}
        finite_worst = max(v for k, v in taxes.items() if k != "inf")
        assert taxes["inf"] > finite_worst
        assert (out / "sweep.svg").exists()
        assert {p.name for p in out.iterdir() if p.is_dir()} == \
            {"K=2", "K=5", "K=10", "K=inf"}

    def test_bad_value_leaves_manifest_and_partial_results(self, tmp_path, quad_config):
        cfg = quad_config()
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--axis", "M",
                     "--values", "0,1,bogus", "--out", str(out)])
        assert code == 2
        [record] = json.loads((out / "failures.json").read_text())
        assert record["value"] == "bogus"
        assert record["kind"] == "ConfigurationError"
        assert record["error"].startswith("axis value 'bogus':")
        assert (out / "summary.csv").exists()  # the good legs survive
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_numeric_leg_failure_is_recorded(self, tmp_path, capsys):
        exp = DEFAULTS["regression"]
        exp = dataclasses.replace(exp, train=dataclasses.replace(
            exp.train, method="replay", replay_lambda=1e300))
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(render_config(exp))
        out = tmp_path / "sweep"
        with np.errstate(over="ignore"):
            code = main(["sweep", "--config", str(cfg), "--axis", "M",
                         "--values", "0,2", "--out", str(out)])
        assert code == 3
        assert "numeric failure: 1 sweep leg(s) failed" in capsys.readouterr().err
        assert json.loads((out / "failures.json").read_text()) == [
            {"value": "2", "error": "step 0: non-finite mlp loss", "kind": "NumericError"}]
        assert len((out / "summary.csv").read_text().splitlines()) == 2
        assert not (out / "M=2").exists()

    def test_refsize_axis(self, quad_config, tmp_path):
        out = tmp_path / "rs"
        assert main(["sweep", "--config", str(quad_config()), "--axis", "refsize",
                     "--values", "1,2", "--out", str(out)]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_family_is_built_once(self, quad_config, tmp_path, monkeypatch):
        # the legs differ only in [train], so they share one family
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_family(*args, **kwargs)

        monkeypatch.setattr(config, "build_family", counted)
        assert main(["sweep", "--config", str(quad_config()), "--axis", "K",
                     "--values", "2,5,10,inf", "--out", str(tmp_path / "k")]) == 0
        assert len(calls) == 1

    def test_each_value_is_read_once(self, quad_config, tmp_path, monkeypatch):
        # one read gives each entry its setting or its error
        reads = []

        def counted(key, value):
            reads.append(value)
            return train_value(key, value)

        monkeypatch.setattr(cli, "train_value", counted)
        out = tmp_path / "m"
        assert main(["sweep", "--config", str(quad_config()), "--axis", "M",
                     "--values", "0,bogus,1", "--out", str(out)]) == 2
        assert reads == ["0", "bogus", "1"]
        [record] = json.loads((out / "failures.json").read_text())
        assert record["value"] == "bogus"
        assert record["error"].startswith("axis value 'bogus': invalid literal for int()")

    def test_unknown_axis_rejected(self, quad_config):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--config", str(quad_config()), "--axis", "Q", "--values", "1"])
        assert err.value.code == 2


class TestCompare:
    def _summary(self, tmp_path, alpha):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(_config_text("quadratic", alpha=alpha))
        out = tmp_path / f"cmp_{alpha:.3f}"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        rows = {}
        for line in lines[1:]:
            parts = line.split(",")
            rows[parts[0]] = {"gain": float(parts[1]), "tax": float(parts[3])}
        return rows, out

    def test_orthogonal_family_methods_coincide(self, tmp_path):
        rows, out = self._summary(tmp_path, math.pi / 2)
        # with exactly orthogonal objectives the projection never binds:
        # ortho and naive coincide on both axes, and replay's safety
        # progress matches too (its capability mixing acts only off-axis)
        assert abs(rows["ortho"]["gain"] - rows["naive"]["gain"]) <= 1e-9
        assert abs(rows["ortho"]["tax"] - rows["naive"]["tax"]) <= 1e-9
        assert abs(rows["replay"]["gain"] - rows["naive"]["gain"]) <= 1e-9
        assert {p.name for p in out.iterdir() if p.is_dir()} == {"naive", "ortho", "replay"}

    def test_collinear_family_stalls_ortho_only(self, tmp_path):
        rows, _ = self._summary(tmp_path, 0.0)
        assert abs(rows["ortho"]["gain"]) <= 1e-9
        assert abs(rows["ortho"]["tax"]) <= 1e-9
        assert rows["naive"]["gain"] > 0.1
        assert rows["naive"]["tax"] > 0.1


    def test_failed_method_leaves_records_of_the_others(self, tmp_path, capsys):
        # a huge replay weight makes only the replay leg overflow
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(_config_text("regression").replace("replay_lambda = 1.0",
                                                          "replay_lambda = 1e300"))
        out = tmp_path / "cmp"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert "numeric failure: 1 method(s) failed" in capsys.readouterr().err
        (failure,) = json.loads((out / "failures.json").read_text())
        assert failure["method"] == "replay" and failure["kind"] == "NumericError"
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["naive", "ortho"]
        for method in ("naive", "ortho"):
            assert len((out / method / "records.csv").read_text().splitlines()) == 301
        assert not (out / "replay").exists()


class TestVerifyCommand:
    def test_injected_fault_fails(self, capsys):
        assert main(["verify", "--inject-skip-projection"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] orthogonality_suite" in out
        assert "[FAIL] steepest_descent_bound" in out

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_seed_override_changes_samples_not_verdicts(self, seed, capsys):
        # reseeding the sampled test matrices must not change any gate
        assert main(["verify", "--seed", str(seed)]) == 0



_COMPARE_DIGESTS_SCRIPT = """
import contextlib, hashlib, io, sys, tempfile
from pathlib import Path
from orthoproj.cli import main
with tempfile.TemporaryDirectory() as tmp:
    for cfg in sorted(Path(sys.argv[1]).glob("*.cfg")):
        out = Path(tmp) / cfg.stem
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        for f in sorted(out.rglob("*.csv")):
            print(cfg.stem, f.relative_to(out).as_posix(), hashlib.sha256(f.read_bytes()).hexdigest())
"""


def test_compare_outputs_at_each_blas_thread_count(at_each_blas_thread_count):
    # whole runs at the shipped sizes, model passes included, give the same
    # bytes at one and two OpenBLAS threads
    configs = Path(__file__).resolve().parents[1] / "configs"
    one, two = at_each_blas_thread_count(_COMPARE_DIGESTS_SCRIPT, str(configs))
    stems = sorted(p.stem for p in configs.glob("*.cfg"))
    assert stems == ["policy", "quadratic", "regression"]
    files = ["naive/records.csv", "ortho/records.csv", "replay/records.csv", "summary.csv"]
    assert [line.rsplit(" ", 1)[0] for line in one] == [f"{s} {f}" for s in stems for f in files]
    assert one == two
