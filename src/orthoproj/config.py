"""Experiment config files: a strict sectioned key=value format.

Layout::

    [experiment]
    version = 1

    [family]
    kind = regression_mlp
    d = 16
    ...

    [train]
    method = ortho
    stages = safety:squared_error:300
    ...

    [output]
    dir = runs/regression

Full-line comments start with '#' or ';'. Unknown sections or keys are
rejected, every numeric field is validated, and parse errors carry the line
and column they point at. ``render_config`` echoes a resolved config that
parses back to the same experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .optimizer import NO_REFRESH, Stage, TrainConfig
from .tasks import FAMILIES, family_schema

__all__ = ["ExperimentFile", "ConfigParseError", "parse_config", "parse_config_file",
           "render_config", "CONFIG_VERSION", "DEFAULTS"]

CONFIG_VERSION = 1


class ConfigParseError(ConfigurationError):
    """Config-file rejection with position information."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ExperimentFile:
    """A fully resolved experiment: family construction + training config.

    ``family_seed_given`` records whether the file set ``[family] seed``
    (else the family seed is the train seed, and ``--seed`` moves both). It
    decides only how a seed override applies, so equality ignores it: a
    rendered config, which always writes the seed, parses back equal.
    ``family_positions`` holds the ``(key, line, column)`` of each
    ``[family]`` key in the file, so that a rejection by the family
    constructor can point at its key; equality ignores it too.
    """

    family_kind: str
    family_seed: int
    family_params: tuple[tuple[str, float | int], ...]
    train: TrainConfig
    out_dir: str
    family_seed_given: bool = field(default=False, compare=False)
    family_positions: tuple[tuple[str, int, int], ...] = field(default=(), compare=False)

    def family_params_dict(self) -> dict:
        return dict(self.family_params)


def _shipped(stem: str, kind: str, family: dict, **train) -> ExperimentFile:
    return ExperimentFile(kind, 0, tuple(sorted(family.items())),
                          TrainConfig(**train), f"runs/{stem}")


# The shipped experiments, keyed by the stems of the configs/*.cfg files
# that spell them out (a test holds each file equal to its entry here).
DEFAULTS = {
    "quadratic": _shipped(
        "quadratic", "quadratic_pair", dict(d=12, alpha=math.pi / 4),
        eta=0.05, steps=100, refresh_every=5, ref_count=1, safety_batch=1, ref_batch=1,
        stages=(Stage("safety", "squared_error", 100),)),
    "regression": _shipped(
        "regression", "regression_mlp",
        dict(d=16, hidden=12, alpha=math.pi / 3, noise_sigma=1.0, n_capability=200,
             n_safety=2000),
        eta=0.02, steps=300, refresh_every=5, ref_count=2, safety_batch=64, ref_batch=200,
        stages=(Stage("safety", "squared_error", 300),)),
    "policy": _shipped(
        "policy", "policy_sft_dpo",
        dict(context_dim=8, vocab=10, n_capability=200, n_safety=2000),
        eta=0.2, steps=100, refresh_every=5, ref_count=2, safety_batch=32, ref_batch=200,
        stages=(Stage("sft", "nll_sft", 60, 30), Stage("dpo", "dpo_pairwise", 40, 5))),
}


_TRAIN_KEYS = {
    "method": str, "eta": float, "steps": int, "refresh_every": "period",
    "ref_count": int, "delta": float, "safety_batch": int,
    "ref_batch": int, "replay_lambda": float, "seed": int, "stages": "stages",
}


def _scan(text: str):
    """Yield (line_no, column, section, key, value) pairs, or raise."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError("unterminated section header", line_no, col)
            section = stripped[1:-1].strip()
            if section not in ("experiment", "family", "train", "output"):
                raise ConfigParseError(f"unknown section [{section}]", line_no, col)
            yield line_no, col, section, None, None
            continue
        if section is None:
            raise ConfigParseError("key outside any [section]", line_no, col)
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", line_no, col)
        key, _, value = stripped.partition("=")
        value_col = raw.index("=") + 2 + len(value) - len(value.lstrip())  # its first character
        yield line_no, col, section, key.strip(), (value.strip(), value_col)


def _convert(kind, value: str, line: int, col: int):
    try:
        if kind is int:
            return int(value)
        if kind is float:
            v = float(value)
            if math.isnan(v):
                raise ValueError("nan")
            return v
        if kind == "period":
            if value == "inf":
                return NO_REFRESH
            return int(value)
        return value
    except ValueError:
        raise ConfigParseError(f"cannot parse {value!r}", line, col) from None


def _parse_stages(value: str, line: int, col: int) -> tuple[Stage, ...]:
    stages = []
    for part in value.split(","):
        fields = part.strip().split(":")
        if len(fields) not in (3, 4):
            raise ConfigParseError(
                f"stage {part.strip()!r} must be task:loss:steps[:refresh]", line, col)
        task, loss = fields[0].strip(), fields[1].strip()
        steps = _convert(int, fields[2].strip(), line, col)
        refresh = _convert("period", fields[3].strip(), line, col) if len(fields) == 4 else None
        stages.append(Stage(task, loss, steps, refresh))
    return tuple(stages)


def parse_config(text: str, name: str = "<config>") -> ExperimentFile:
    """Parse and validate a config; raises :class:`ConfigParseError`."""
    seen: dict[str, dict[str, object]] = {"experiment": {}, "family": {}, "train": {}, "output": {}}
    positions: dict[tuple[str, str], tuple[int, int]] = {}
    sections_seen = set()

    for line_no, col, section, key, value in _scan(text):
        if key is None:
            sections_seen.add(section)
            continue
        raw, value_col = value
        if key in seen[section]:
            raise ConfigParseError(f"duplicate key {key!r} in [{section}]", line_no, col)
        seen[section][key] = raw
        positions[(section, key)] = (line_no, value_col)

    def pos(section, key):
        return positions.get((section, key), (0, 1))

    # [experiment]
    if "experiment" not in sections_seen:
        raise ConfigParseError("missing [experiment] section", 1)
    exp = seen["experiment"]
    for key in exp:
        if key != "version":
            raise ConfigParseError(f"unknown key {key!r} in [experiment]", *pos("experiment", key))
    if "version" not in exp:
        raise ConfigParseError("missing 'version' in [experiment]", 1)
    version = _convert(int, exp["version"], *pos("experiment", "version"))
    if version != CONFIG_VERSION:
        raise ConfigParseError(f"unsupported config version {version}",
                               *pos("experiment", "version"))

    # [family]
    if "kind" not in seen["family"]:
        raise ConfigParseError("missing 'kind' in [family]", 1)
    kind_line, kind_col = pos("family", "kind")
    kind = seen["family"].pop("kind")
    if kind not in FAMILIES:
        raise ConfigParseError(f"unknown family kind {kind!r}", kind_line, kind_col)
    family_seed_raw = seen["family"].pop("seed", None)
    schema = family_schema(kind)
    params = {}
    for key, raw in seen["family"].items():
        if key not in schema:
            raise ConfigParseError(f"unknown key {key!r} for family {kind}", *pos("family", key))
        params[key] = _convert(schema[key][0], raw, *pos("family", key))
    for key, (_, required) in schema.items():
        if required and key not in params:
            raise ConfigParseError(f"family {kind} requires key {key!r}", 1)

    # [train]
    train_kwargs: dict[str, object] = {}
    stages: tuple[Stage, ...] | None = None
    for key, raw in seen["train"].items():
        if key not in _TRAIN_KEYS:
            raise ConfigParseError(f"unknown key {key!r} in [train]", *pos("train", key))
        if key == "stages":
            stages = _parse_stages(raw, *pos("train", key))
        else:
            train_kwargs[key] = _convert(_TRAIN_KEYS[key], raw, *pos("train", key))
    if stages is None:
        raise ConfigParseError("missing 'stages' in [train]", 1)
    if "steps" not in seen["train"]:
        train_kwargs["steps"] = sum(s.steps for s in stages)
    train = TrainConfig(stages=stages, **train_kwargs)
    try:
        train.validate()
    except ConfigurationError as exc:
        # the message starts with the field it rejects; point at that key
        # when the file sets it, else at stages
        key = str(exc).split(" ", 1)[0]
        where = positions.get(("train", key), pos("train", "stages"))
        raise ConfigParseError(f"[train] invalid: {exc}", *where) from exc

    # [output]
    out_dir = None
    for key, raw in seen["output"].items():
        if key != "dir":
            raise ConfigParseError(f"unknown key {key!r} in [output]", *pos("output", key))
        if not raw:
            raise ConfigParseError("[output] dir must not be empty", *pos("output", key))
        out_dir = raw
    if out_dir is None:
        stem = name.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        out_dir = f"runs/{stem}"

    family_seed = int(train.seed)
    if family_seed_raw is not None:
        family_seed = _convert(int, family_seed_raw, *pos("family", "seed"))
        if family_seed < 0:
            raise ConfigParseError(f"[family] invalid: seed must be >= 0, got {family_seed}",
                                   *pos("family", "seed"))
    return ExperimentFile(
        family_kind=kind,
        family_seed=family_seed,
        family_params=tuple(sorted(params.items())),
        train=train,
        out_dir=out_dir,
        family_seed_given=family_seed_raw is not None,
        family_positions=tuple((key, *where) for (section, key), where in positions.items()
                               if section == "family"),
    )


def parse_config_file(path) -> ExperimentFile:
    with open(path) as fh:
        return parse_config(fh.read(), name=str(path))


def _period_str(period) -> str:
    return "inf" if period == NO_REFRESH else str(int(period))


def _stages_str(stages) -> str:
    out = []
    for s in stages:
        base = f"{s.task}:{s.loss}:{s.steps}"
        if s.refresh_every is not None:
            base += f":{_period_str(s.refresh_every)}"
        out.append(base)
    return ", ".join(out)


# how render_config writes each kind of _TRAIN_KEYS value; str otherwise
_RENDER = {float: repr, "period": _period_str, "stages": _stages_str}


def render_config(experiment: ExperimentFile) -> str:
    """Canonical echo of a resolved experiment; parses back identically."""
    t = experiment.train
    lines = [
        "[experiment]",
        f"version = {CONFIG_VERSION}",
        "",
        "[family]",
        f"kind = {experiment.family_kind}",
        f"seed = {experiment.family_seed}",
    ]
    for key, value in experiment.family_params:
        lines.append(f"{key} = {value!r}")
    lines += ["", "[train]"]
    for key, kind in _TRAIN_KEYS.items():
        lines.append(f"{key} = {_RENDER.get(kind, str)(getattr(t, key))}")
    lines += [
        "",
        "[output]",
        f"dir = {experiment.out_dir}",
    ]
    return "\n".join(lines) + "\n"
