"""Command-line surface: run, verify, sweep, compare.

Exit codes are stable: 0 success, 1 verification failure, 2 config error
(an unreadable config and an unwritable output included), 3 numeric failure
mid-run. Every output file is written atomically (temp file + rename) so an
interrupted run never leaves a truncated CSV behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ExperimentFile, load_experiment, render_config, train_value
from .errors import ConfigurationError, NumericError
from .metrics import alignment_tax, records_to_csv, summary_table, tax_report_to_csv
from .optimizer import train
from .plots import line_chart, scatter_chart

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3

# the [train] key each sweep axis sets; K also sets every stage's period
SWEEP_AXES = {"K": "refresh_every", "M": "ref_count", "refsize": "ref_batch"}


def _unwritable(path: Path, exc: OSError) -> ConfigurationError:
    return ConfigurationError(f"cannot write {str(path)!r}: {exc}")


def atomic_write_text(path: Path, text: str) -> None:
    """Write through a uniquely named temp file in the target directory and
    a rename, so writers to one path never share a temp file. ``open``
    creates the temp file, so it gets the mode the umask in force gives.
    A path that cannot be written is a :class:`ConfigurationError`."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _out_root(args, experiment: ExperimentFile) -> Path:
    """``--out``, else the config's output directory, made before the
    first leg trains, so a root that cannot be made costs no training."""
    root = Path(args.out or experiment.out_dir)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(root, exc) from exc
    return root


def _curves_svg(result, family) -> str:
    steps = [r.step for r in result.records]
    series = {"safety": [r.safety_loss for r in result.records]}
    for i, task in enumerate(family.capability_tasks):
        series[task.name] = [r.ref_losses[i] for r in result.records]
    return line_chart(steps, series, "probe losses over training", "step", "loss")


def _run_on(experiment: ExperimentFile, family, out_dir: Path):
    """Train on the experiment's built family and write the run artifacts."""
    result = train(experiment.train, family)
    report = alignment_tax(result, family)
    atomic_write_text(out_dir / "records.csv", records_to_csv(result.records))
    atomic_write_text(out_dir / "tax.csv", tax_report_to_csv(report))
    atomic_write_text(out_dir / "config_resolved.cfg", render_config(experiment))
    atomic_write_text(out_dir / "curves.svg", _curves_svg(result, family))
    return result, report


def cmd_run(args) -> int:
    experiment, family = load_experiment(args.config, args.seed)
    _, report = _run_on(experiment, family, _out_root(args, experiment))
    print(f"safety_gain={report.safety_gain!r} total_tax={report.total_tax!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed if args.seed is not None else 0,
                      inject_skip_projection=args.inject_skip_projection)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.elapsed:.2f}s): {r.details}")
    total = sum(r.elapsed for r in results)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed in {total:.1f}s")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _run_legs(labels, leg, key: str):
    """Call ``leg(label)`` for each label in order. Returns the
    ``(label, *result)`` of each leg that ran, and a failures.json record,
    under ``key``, for each leg that raised a config or numeric error."""
    done, failures = [], []
    for label in labels:
        try:
            done.append((label, *leg(label)))
        except (ConfigurationError, NumericError) as exc:
            failures.append({key: label, "error": str(exc), "kind": type(exc).__name__})
    return done, failures


def cmd_sweep(args) -> int:
    # the legs differ only in [train], so they share one family
    experiment, family = load_experiment(args.config, args.seed)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("--values is empty")
    key = SWEEP_AXES[args.axis]
    entries = {}  # setting -> the first entry that gives it
    for value in values:
        try:
            v = train_value(key, value)
        except ValueError:
            continue  # fails as its own leg
        if v in entries:
            raise ConfigurationError(
                f"--values {entries[v]!r} and {value!r} give the same {key}")
        entries[v] = value
    out_root = _out_root(args, experiment)

    def leg(value):
        try:
            v = train_value(key, value)
        except ValueError as exc:
            raise ConfigurationError(f"axis value {value!r}: {exc}") from exc
        t = (experiment.train.with_refresh(v) if args.axis == "K"
             else dataclasses.replace(experiment.train, **{key: v}))
        return _run_on(dataclasses.replace(experiment, train=t), family,
                       out_root / f"{args.axis}={value}")

    legs, failures = _run_legs(values, leg, "value")
    if legs:
        table = summary_table(args.axis, legs)
        atomic_write_text(out_root / "summary.csv", table.to_csv())
        chart = line_chart([r[0] for r in table.rows],
                           {"total_tax": [r[-3] for r in table.rows],
                            "safety_gain": [r[1] for r in table.rows]},
                           f"sweep over {args.axis}", args.axis, "value",
                           categorical=True)
        atomic_write_text(out_root / "sweep.svg", chart)
    if failures:
        _raise_failures(out_root, failures, "sweep leg(s)")
    return EXIT_OK


def _raise_failures(out_root: Path, failures: list[dict], what: str):
    """Record failed legs in failures.json and raise for main's exit path:
    numeric failure if any leg failed numerically, else config error."""
    atomic_write_text(out_root / "failures.json", json.dumps(failures, indent=2) + "\n")
    numeric = any(f["kind"] == "NumericError" for f in failures)
    raise (NumericError if numeric else ConfigurationError)(
        f"{len(failures)} {what} failed; see failures.json")


def cmd_compare(args) -> int:
    experiment, family = load_experiment(args.config, args.seed)
    out_root = _out_root(args, experiment)

    def leg(method):
        result = train(dataclasses.replace(experiment.train, method=method), family)
        atomic_write_text(out_root / method / "records.csv", records_to_csv(result.records))
        return result, alignment_tax(result, family)

    # run in sorted order, so the summary rows are sorted by method
    legs, failures = _run_legs(("naive", "ortho", "replay"), leg, "method")
    if legs:
        table = summary_table("method", legs)
        atomic_write_text(out_root / "summary.csv", table.to_csv())
        points = [(row[1], row[-3], row[0]) for row in table.rows]
        atomic_write_text(out_root / "compare.svg",
                          scatter_chart(points, "safety gain vs capability tax",
                                        "safety_gain", "total_tax"))
        print(table.to_csv(), end="")
    if failures:
        _raise_failures(out_root, failures, "method(s)")
    return EXIT_OK


def nonnegative_int(text: str) -> int:
    """The argparse type of ``--seed``: numpy seeds an rng only from a
    non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orthoproj",
        description="Train with orthogonal gradient projection against an estimated "
                    "capability subspace, and verify its geometric contracts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=nonnegative_int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the full property-check suite")
    p_verify.add_argument("--seed", type=nonnegative_int, default=None)
    p_verify.add_argument("--inject-skip-projection", action="store_true",
                          help="test-only fault injection: checks must fail")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. '2,5,10,inf'")
    p_sweep.add_argument("--seed", type=nonnegative_int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run naive, ortho, replay on one family")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--seed", type=nonnegative_int, default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
