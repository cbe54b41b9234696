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
and column they point at. ``load_experiment`` resolves a file, a seed
override and the family it builds; ``render_config`` echoes a resolved
config that parses back to the same experiment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

from .errors import ConfigurationError
from .optimizer import NO_REFRESH, Stage, TrainConfig
from .tasks import FAMILIES, TaskFamily, build_family, family_schema, read_family

__all__ = ["ExperimentFile", "ConfigParseError", "parse_config", "parse_config_file",
           "load_experiment", "train_value", "render_config", "CONFIG_VERSION", "DEFAULTS"]

CONFIG_VERSION = 1


class ConfigParseError(ConfigurationError):
    """Config-file rejection with position information."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ExperimentFile:
    """A fully resolved experiment: family construction + training config."""

    family_kind: str
    family_seed: int
    family_params: tuple[tuple[str, float | int], ...]
    train: TrainConfig
    out_dir: str

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
# each section's keys; [family]'s are its kind's (tasks.read_family)
_KEYS = {"experiment": ("version",), "family": None, "train": _TRAIN_KEYS, "output": ("dir",)}


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
            if section not in _KEYS:
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


def _value(kind, value: str):
    """``value`` as an int, a float (not nan), a "period" or text; raises ValueError."""
    if kind is float:
        v = float(value)
        if math.isnan(v):
            raise ValueError("nan")
        return v
    if kind == "period":
        return NO_REFRESH if value == "inf" else int(value)
    return int(value) if kind is int else value


def _convert(kind, value: str, line: int, col: int):
    try:
        return _value(kind, value)
    except ValueError:
        raise ConfigParseError(f"cannot parse {value!r}", line, col) from None


def train_value(key: str, value: str):
    """``value`` read as the config file reads ``[train] key``; raises ValueError."""
    return _value(_TRAIN_KEYS[key], value)


def _at_key(section: str, exc: ConfigurationError, positions: dict, fallback: str):
    """``exc``, whose message starts with the key it rejects or with
    ``unknown key 'x'``, as a parse error at that key when the file sets
    it, else at ``fallback``."""
    key = re.match(r"(?:unknown key ')?([^' ]*)", str(exc))[1]
    where = positions.get((section, key), positions[section, fallback])
    return ConfigParseError(f"[{section}] invalid: {exc}", *where)


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
    return _parse(text, name, None)[0]


def _parse(text: str, name: str, seed: int | None):
    """The experiment, with ``seed`` as its train seed if given, and the
    ``(section, key) -> (line, column)`` of each value in the file."""
    seen: dict[str, dict[str, str]] = {section: {} for section in _KEYS}
    positions: dict[tuple[str, str], tuple[int, int]] = {}
    sections_seen = set()

    for line_no, col, section, key, value in _scan(text):
        if key is None:
            sections_seen.add(section)
            continue
        raw, value_col = value
        if key in seen[section]:
            raise ConfigParseError(f"duplicate key {key!r} in [{section}]", line_no, col)
        if section != "family" and key not in _KEYS[section]:
            raise ConfigParseError(f"unknown key {key!r} in [{section}]", line_no, value_col)
        seen[section][key] = raw
        positions[section, key] = (line_no, value_col)

    # [experiment]
    if "experiment" not in sections_seen:
        raise ConfigParseError("missing [experiment] section", 1)
    if "version" not in seen["experiment"]:
        raise ConfigParseError("missing 'version' in [experiment]", 1)
    where = positions["experiment", "version"]
    version = _convert(int, seen["experiment"]["version"], *where)
    if version != CONFIG_VERSION:
        raise ConfigParseError(f"unsupported config version {version}", *where)

    # [family]: each value's text becomes its key's type here (an unknown
    # kind's or key's stays text); tasks.read_family judges the rest below
    if "kind" not in seen["family"]:
        raise ConfigParseError("missing 'kind' in [family]", 1)
    kind = seen["family"].pop("kind")
    types = dict(family_schema(kind), seed=int) if kind in FAMILIES else {}
    family = {key: _convert(types[key], raw, *positions["family", key]) if key in types else raw
              for key, raw in seen["family"].items()}

    # [train]
    train_kwargs = {key: _parse_stages(raw, *positions["train", key]) if key == "stages"
                    else _convert(_TRAIN_KEYS[key], raw, *positions["train", key])
                    for key, raw in seen["train"].items()}
    if "stages" not in train_kwargs:
        raise ConfigParseError("missing 'stages' in [train]", 1)
    train_kwargs.setdefault("steps", sum(s.steps for s in train_kwargs["stages"]))
    train = TrainConfig(**train_kwargs)
    try:
        train.validate()
    except ConfigurationError as exc:
        raise _at_key("train", exc, positions, "stages") from exc
    if seed is not None:
        train = replace(train, seed=seed)

    # the family seed follows the train seed unless the file sets it
    try:
        family_seed, params = read_family(kind, family.pop("seed", train.seed), family)
    except ConfigurationError as exc:
        raise _at_key("family", exc, positions, "kind") from exc

    # [output]
    stem = name.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    out_dir = seen["output"].get("dir", f"runs/{stem}")
    if not out_dir:
        raise ConfigParseError("[output] dir must not be empty", *positions["output", "dir"])
    return ExperimentFile(kind, family_seed, tuple(sorted(params.items())), train,
                          out_dir), positions


def _read(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {str(path)!r}: {exc}") from exc


def parse_config_file(path) -> ExperimentFile:
    return parse_config(_read(path), name=str(path))


def load_experiment(path, seed: int | None = None) -> tuple[ExperimentFile, TaskFamily]:
    """Read, parse and validate the config file at ``path``, set its train
    seed to ``seed`` if given, and build its family. Every rejection, an
    unreadable file included, is a :class:`ConfigurationError`."""
    experiment, positions = _parse(_read(path), str(path), seed)
    try:
        family = build_family(experiment.family_kind, experiment.family_seed,
                              **experiment.family_params_dict())
    except ConfigurationError as exc:
        raise _at_key("family", exc, positions, "kind") from exc
    return experiment, family


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
