"""Check that two source trees of orthoproj produce the same outputs.

Usage:  python tools/same_outputs.py PARENT CHANGE

Each tree runs in its own subprocesses with ``PYTHONPATH=<tree>/src``, at
``OPENBLAS_NUM_THREADS`` 1 and 2, each job in a fresh empty directory:

- ``run`` and ``compare`` on the three shipped configs;
- ``run --seed 3`` on ``policy.cfg``, which sets no ``[family] seed``, so
  the seed moves the family too;
- ``run`` on ``regression.cfg`` with ``method = replay`` and
  ``replay_lambda = 0.5``: a replay direction over two facets at a weight
  other than 1, which no shipped config reaches;
- ``sweep --axis K --values 2,5,10,inf`` on ``policy.cfg``;
- ``sweep --axis refsize --values 50,200,400`` on ``regression.cfg``,
  whose reference batches are below, equal to and above its 200
  capability rows, so each branch of ``sample_batch`` draws;
- ``sweep --axis M --values 0,1`` on ``quadratic.cfg``;
- ``verify --seed 0``, ``--seed 1``, ``--seed 5`` and
  ``--inject-skip-projection``, with the timings masked;
- the fingerprints of six families at sizes no shipped config builds:
  two pre-trained on 37-row facets with 40 features and 32 hidden units
  or tokens, where one product over both facets' stacked rows would round
  differently from a product per facet, and two quadratic pairs, at the
  smallest d and at d = 1000;
- the six demos.

Every file a job writes, its stdout and its exit code are compared byte for
byte. Each difference is printed; the exit status is 1 if there is any,
else 0. A config is copied into the job's directory first, with the job's
``[train]`` edits applied, so a path in a message is the same for both
trees.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = ("1", "2")
CONFIGS = ("quadratic", "regression", "policy")
CLI = "import sys; from orthoproj.cli import main; sys.exit(main(sys.argv[1:]))"
# the elapsed times in verify's lines, e.g. "(0.27s)", "elapsed=0.27s", "in 0.8s"
TIMING = re.compile(rb"\b\d+\.\d+s\b")
FINGERPRINTS = """
import math
from orthoproj.tasks import policy_family, quadratic_family, regression_family
for family in (regression_family(40, 32, math.pi / 3, 1.0, 37, 50, seed=3),
               policy_family(40, 32, 37, 50, seed=4),
               regression_family(8, 1, 0.5, 0.0, 1, 5, seed=1),
               policy_family(4, 4, 1, 3, seed=2),
               quadratic_family(2, 0.0, 3),
               quadratic_family(1000, 0.3, 9)):
    print(family.fingerprint)
"""


def jobs(tree: Path):
    """(name, (config file, [train] edits) or None, argv, masked) of every
    job, in order."""
    cli = [sys.executable, "-c", CLI]
    for command in ("run", "compare"):
        for cfg in CONFIGS:
            yield (f"{command} {cfg}", (f"{cfg}.cfg", {}),
                   cli + [command, "--config", f"{cfg}.cfg", "--out", "out"], False)
    yield ("run policy --seed 3", ("policy.cfg", {}),
           cli + ["run", "--config", "policy.cfg", "--seed", "3", "--out", "out"], False)
    yield ("run regression replay 0.5",
           ("regression.cfg", {"method": "replay", "replay_lambda": "0.5"}),
           cli + ["run", "--config", "regression.cfg", "--out", "out"], False)
    yield ("sweep policy K", ("policy.cfg", {}),
           cli + ["sweep", "--config", "policy.cfg", "--axis", "K", "--values", "2,5,10,inf",
                  "--out", "out"], False)
    yield ("sweep regression refsize", ("regression.cfg", {}),
           cli + ["sweep", "--config", "regression.cfg", "--axis", "refsize",
                  "--values", "50,200,400", "--out", "out"], False)
    yield ("sweep quadratic M", ("quadratic.cfg", {}),
           cli + ["sweep", "--config", "quadratic.cfg", "--axis", "M", "--values", "0,1",
                  "--out", "out"], False)
    for flags in (["--seed", "0"], ["--seed", "1"], ["--seed", "5"],
                  ["--inject-skip-projection"]):
        yield f"verify {' '.join(flags)}", None, cli + ["verify"] + flags, True
    yield "fingerprints non-shipped sizes", None, [sys.executable, "-c", FINGERPRINTS], False
    for demo in sorted((tree / "demos").glob("*.py")):
        yield f"demo {demo.stem}", None, [sys.executable, str(demo)], False


def edited(text: str, edits: dict[str, str]) -> str:
    """A config's text with each ``[train]`` key in ``edits`` set: a key the
    file sets has its line replaced, any other is added below ``[train]``."""
    head, train = text.split("[train]\n", 1)
    for key, value in edits.items():
        train, found = re.subn(rf"^{key} = .*$", f"{key} = {value}", train, flags=re.MULTILINE)
        if not found:
            train = f"{key} = {value}\n{train}"
    return f"{head}[train]\n{train}"


def snapshot(tree: Path, threads: str, config, argv, masked: bool) -> dict[str, bytes]:
    """Exit code, stdout and every file the job wrote, keyed by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    name, edits = config or (None, {})
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        cwd = Path(tmp)
        if name:
            (cwd / name).write_text(edited((tree / "configs" / name).read_text(), edits))
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=600)
        stdout = TIMING.sub(b"#s", proc.stdout) if masked else proc.stdout
        out = {"exit code": str(proc.returncode).encode(), "stdout": stdout}
        for path in sorted(cwd.rglob("*")):
            if path.is_file() and path.name != name:
                out[f"file {path.relative_to(cwd)}"] = path.read_bytes()
        return out


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """One line per output that is missing from a side or differs."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in change:
            lines.append(f"{key}: only in PARENT")
        elif key not in parent:
            lines.append(f"{key}: only in CHANGE")
        elif parent[key] != change[key]:
            a, b = parent[key].splitlines(), change[key].splitlines()
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines.append(f"{key}: differs at line {i + 1}: "
                         f"{a[i] if i < len(a) else b'<end>'!r} != "
                         f"{b[i] if i < len(b) else b'<end>'!r}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    parent_jobs, change_jobs = list(jobs(parent)), list(jobs(change))
    if [j[0] for j in parent_jobs] != [j[0] for j in change_jobs]:
        print("the trees run different jobs: "
              f"{[j[0] for j in parent_jobs]} != {[j[0] for j in change_jobs]}")
        return 1
    found = 0
    for threads in THREADS:
        for (name, config, p_argv, masked), (_, _, c_argv, _) in zip(parent_jobs, change_jobs):
            diff = differences(snapshot(parent, threads, config, p_argv, masked),
                               snapshot(change, threads, config, c_argv, masked))
            for line in diff:
                print(f"threads={threads} {name}: {line}")
            found += len(diff)
            print(f"threads={threads} {name}: {'DIFFERENT' if diff else 'same'}", flush=True)
    print(f"{found} difference(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
