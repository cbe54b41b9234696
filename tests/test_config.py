import dataclasses
import math
import re
from pathlib import Path

import pytest

from orthoproj.config import (_TRAIN_KEYS, DEFAULTS, ConfigParseError, parse_config,
                              parse_config_file, render_config)
from orthoproj.optimizer import NO_REFRESH, Stage, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

MINIMAL = """
[experiment]
version = 1

[family]
kind = quadratic_pair
d = 12
alpha = 0.7853981633974483

[train]
stages = safety:squared_error:100

[output]
dir = out/here
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        exp = parse_config(MINIMAL)
        assert exp.family_kind == "quadratic_pair"
        assert exp.family_params_dict() == {"d": 12, "alpha": math.pi / 4}
        assert exp.train.method == "ortho"
        assert exp.train.eta == 1e-3
        assert exp.train.steps == 100          # inferred from stages
        assert exp.train.refresh_every == 5
        assert exp.train.ref_count == 2
        assert exp.train.seed == 0
        assert exp.family_seed == 0            # defaults to the train seed
        assert exp.out_dir == "out/here"
        no_output = MINIMAL.split("[output]")[0]
        assert parse_config(no_output, name="configs/exp.cfg").out_dir == "runs/exp"

    def test_round_trip(self):
        exp = parse_config(MINIMAL)
        assert parse_config(render_config(exp)) == exp

    def test_round_trip_with_everything(self):
        text = """
[experiment]
version = 1

[family]
kind = policy_sft_dpo
seed = 3
context_dim = 8
vocab = 10
n_capability = 200
n_safety = 2000

[train]
method = replay
eta = 0.2
steps = 100
refresh_every = inf
ref_count = 2
delta = 1e-7
safety_batch = 32
ref_batch = 100
replay_lambda = 0.5
seed = 11
stages = sft:nll_sft:60:30, dpo:dpo_pairwise:40:5

[output]
dir = runs/x
"""
        exp = parse_config(text)
        assert exp.train.refresh_every == NO_REFRESH
        assert exp.train.stages == (Stage("sft", "nll_sft", 60, 30),
                                    Stage("dpo", "dpo_pairwise", 40, 5))
        assert exp.family_seed == 3
        assert parse_config(render_config(exp)) == exp

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n; another\n" + MINIMAL
        assert parse_config(text).family_kind == "quadratic_pair"


class TestRejection:
    def _expect(self, text, fragment, line=None):
        with pytest.raises(ConfigParseError) as err:
            parse_config(text)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_unknown_key_with_position(self):
        bad = MINIMAL.replace("d = 12", "d = 12\nwobble = 3")
        self._expect(bad, "wobble", line=8)
        # the quadratic pair's residuals are fixed, not keys
        bad = MINIMAL.replace("d = 12", "d = 12\ncap_residual = 0.3")
        self._expect(bad, "unknown key 'cap_residual' for family quadratic_pair", line=8)
        # every config_resolved.cfg written while gram_schmidt took an
        # epsilon carries this line
        bad = MINIMAL.replace("[train]\n", "[train]\nepsilon = 0.0\n")
        self._expect(bad, "unknown key 'epsilon' in [train]", line=11)
        bad = MINIMAL.replace("version = 1", "version = 1\nrevision = 2")
        self._expect(bad, "unknown key 'revision' in [experiment]", line=4)
        self._expect(MINIMAL.replace("dir =", "path ="), "unknown key 'path' in [output]", line=14)

    def test_unknown_section(self):
        self._expect(MINIMAL + "\n[extra]\nx = 1\n", "unknown section")
        self._expect(MINIMAL.replace("[train]", "[train"), "unterminated section header", line=10)

    def test_duplicate_key(self):
        self._expect(MINIMAL.replace("d = 12", "d = 12\nd = 13"), "duplicate")

    def test_bad_number(self):
        self._expect(MINIMAL.replace("d = 12", "d = twelve"), "cannot parse")
        bad = MINIMAL.replace("alpha = 0.7853981633974483", "alpha = nan")
        self._expect(bad, "cannot parse 'nan'", line=8)

    def test_missing_version(self):
        self._expect(MINIMAL.replace("version = 1", "version = 2"), "version")
        self._expect(MINIMAL.replace("version = 1", ""), "missing 'version' in [experiment]")
        self._expect(MINIMAL.replace("[experiment]\nversion = 1", ""),
                     "missing [experiment] section")

    def test_unknown_family(self):
        self._expect(MINIMAL.replace("quadratic_pair", "transformer"), "family kind")
        self._expect(MINIMAL.replace("kind = quadratic_pair", ""), "missing 'kind' in [family]")

    def test_missing_required_family_key(self):
        self._expect(MINIMAL.replace("alpha = 0.7853981633974483", ""), "alpha")

    def test_bad_stage_syntax(self):
        self._expect(MINIMAL.replace("safety:squared_error:100", "safety"), "stage")

    def test_stage_sum_mismatch(self):
        bad = MINIMAL.replace("stages = safety:squared_error:100",
                              "steps = 90\nstages = safety:squared_error:100")
        self._expect(bad, "invalid")

    def test_key_outside_section(self):
        self._expect("version = 1\n", "outside")
        self._expect(MINIMAL.replace("d = 12", "d 12"), "expected 'key = value'", line=7)

    def test_missing_stages(self):
        self._expect(MINIMAL.replace("stages = safety:squared_error:100", ""), "stages")

    def test_negative_family_seed_at_its_line(self):
        bad = MINIMAL.replace("d = 12", "d = 12\nseed = -3")
        self._expect(bad, "[family] invalid: seed must be >= 0, got -3", line=8)

    def test_empty_output_dir_at_its_line(self):
        for empty in ("dir =", "dir =   "):
            self._expect(MINIMAL.replace("dir = out/here", empty), "[output] dir must not be empty",
                         line=14)


@pytest.mark.parametrize("key, old, new, fragment", [
    ("delta", "eta = ", "delta = inf\neta = ", "delta must be positive and finite, got inf"),
    ("safety_batch", "safety_batch = 64", "safety_batch = 0", "safety_batch must be positive, got 0"),
    ("steps", "steps = 300", "steps = 200", "steps is 200, but the stages sum to 300"),
    ("seed", "seed = 0", "seed = -2", "seed must be >= 0, got -2"),
    ("steps", "steps = 300", "steps = 0", "steps must be >= 1, got 0"),
    ("ref_count", "ref_count = 2", "ref_count = -1", "ref_count must be >= 0, got -1"),
    ("ref_batch", "ref_batch = 200", "ref_batch = 0", "ref_batch must be positive, got 0"),
    ("stages", "squared_error:300", "squared_error:0", "every stage needs at least one step"),
], ids=["delta", "safety_batch", "steps", "seed", "steps_below_1", "ref_count", "ref_batch",
        "stage_steps"])
def test_train_error_points_at_the_failing_key(key, old, new, fragment):
    # a [train] value that validation rejects is reported on its own line,
    # not on the stages line
    text = (CONFIGS / "regression.cfg").read_text().replace(old, new)
    [line] = [i for i, row in enumerate(text.splitlines(), start=1)
              if row.startswith(f"{key} = ")]
    with pytest.raises(ConfigParseError, match=re.escape(fragment)) as err:
        parse_config(text)
    assert err.value.line == line


@pytest.mark.parametrize("stem", sorted(DEFAULTS))
def test_shipped_config_file_matches_defaults(stem):
    # configs/*.cfg restate the package's shipped experiments; keep them equal
    assert parse_config_file(CONFIGS / f"{stem}.cfg") == DEFAULTS[stem]


def test_readme_config_blocks_parse():
    blocks = re.findall(r"^```.*?\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    configs = [b for b in blocks if b.startswith("[experiment]\n")]
    assert configs
    for text in configs:
        parse_config(text, name="README.md")


# TrainConfig fields that only library callers set; every other field is a
# [train] key
LIBRARY_ONLY = ("ref_facets", "probes")


def test_train_keys_are_the_config_fields():
    fields = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in LIBRARY_ONLY]
    assert set(_TRAIN_KEYS) == set(fields)
    for key in LIBRARY_ONLY:
        with pytest.raises(ConfigParseError, match=f"unknown key '{key}'"):
            parse_config(MINIMAL.replace("[train]\n", f"[train]\n{key} = 1\n"))
    for exp in DEFAULTS.values():
        section = render_config(exp).split("[train]\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split(" = ", 1)[0] for line in section.splitlines()] == fields


@pytest.mark.parametrize("period", [2, NO_REFRESH])
def test_with_refresh_sets_the_run_and_every_stage(period):
    policy = DEFAULTS["policy"].train
    by_hand = dataclasses.replace(policy, refresh_every=period, stages=(
        Stage("sft", "nll_sft", 60, period), Stage("dpo", "dpo_pairwise", 40, period)))
    assert policy.with_refresh(period) == by_hand
