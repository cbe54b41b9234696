"""orthoproj benchmark: one workload per process, closed loop, from a seed.

    python3 perfbench/run.py --workload regression_compare --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Workloads (rationale and predictions in ``perfbench/README.md``):

- ``regression_compare``: the ``configs/regression.cfg`` family and legs,
  cycling naive -> ortho -> replay.
- ``quadratic_wide``: the ``configs/quadratic.cfg`` family at d = 1e6 with a
  rank-1 subspace rebuilt every step, 5-step legs cycling the three methods.
- ``verify_suite``: repeated ``verify.run_all(seed)`` passes.

Every leg starts when the previous one has returned; nothing runs in the
background. The training workloads end with two ``verify.run_all`` passes
so that ``verify_s`` exists on every workload. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced cycles,
reports per-layer metrics from the traced ones and the tracing overhead
against the untraced ones. Times are calibrated against a reference kernel
timed next to each measurement (see ``Reference``). The last line of
standard output is the JSON result; a failed output check makes the exit
status 1.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = min(2, len(os.sched_getaffinity(0)))
ENV_BEFORE_PIN = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import TRACED, Tracer, patched  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
METHODS = ("naive", "ortho", "replay")
SETUP_REPS = 5
MIN_LEGS = 11      # a tail percentile needs ten legs beyond it
WIDE_D = 1_000_000
# the shipped 10 steps at eta 0.05 cover the same distance; half-length legs
# give twice as many legs for the tail percentile
WIDE_STEPS = 5
WIDE_ETA = 0.1
N_CHECKS = 9
TRAINING_VERIFY_PASSES = 2  # gives verify_s on the training workloads
# Reference kernels, timed next to every measured leg, pass and set-up.
# Reported times are scaled to a machine on which the kernel takes exactly
# REFERENCE_US; the raw times are printed next to them.
REFERENCE_US = {"small": 1000.0, "large": 2000.0}
REFERENCE_ROUNDS = 3
# reported per traced verify pass; everything else per traced cycle. train()
# never calls dot, so per cycle it would read zero on the training workloads
PER_PASS = ("oracle.", "linalg.dot")


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or configs)."""


def import_library():
    if not (SRC / "orthoproj" / "__init__.py").is_file():
        raise SetupError(f"no orthoproj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthoproj
    import orthoproj.cli  # noqa: F401  (binds train for verify's determinism check)
    import orthoproj.verify  # noqa: F401
    if Path(orthoproj.__file__).resolve().parent != SRC / "orthoproj":
        raise SetupError(f"imported orthoproj from {orthoproj.__file__}, not {SRC}")
    return orthoproj


def machine_block() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_pinned": THREADS,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_before_pin": ENV_BEFORE_PIN,
    }


def median_tail(values, weights=None):
    """Median, each value counted weights[i] times (a leg once per step, so
    verify_suite's 300-step regression legs and 100-step policy legs do not
    make the median jump between them), plus the highest percentile with at
    least ten values beyond it (None with fewer than eleven values)."""
    s = sorted(values)
    n = len(s)
    tail = (s[n - 11], 100.0 * (n - 10) / n) if n >= MIN_LEGS else None
    if weights is not None:
        values = [v for v, w in zip(values, weights) for _ in range(w)]
    return statistics.median(values), tail


def digest(result, csv_text: str) -> str:
    h = hashlib.sha256(result.theta_final.tobytes())
    h.update(csv_text.encode())
    return h.hexdigest()


def expected_counts(config, family, result) -> dict[str, int]:
    """Span counts one train() call must produce, derived from its config."""
    steps, m = config.steps, config.ref_count
    probes = 1 + len(family.capability_tasks)
    want = {"optimizer.train": 1, "models.loss": steps * probes,
            "tasks.probe_eval": steps * probes}
    if config.method == "ortho":
        (stage,) = config.stages
        period = stage.refresh_every or config.refresh_every
        builds = sum(1 for t in range(steps) if t % period == 0)
        accepted = sum(rank for _, rank in result.subspace_history)
        want.update({"models.gradient": steps + builds * m,
                     "tasks.sample_batch": steps + builds * m,
                     "linalg.project_complement": steps,
                     "subspace.estimate_subspace": builds,
                     "linalg.gram_schmidt": builds,
                     "linalg.norm": 2 * steps + 2 * builds * m + accepted})
    else:
        per_step = 1 + m if config.method == "replay" else 1
        want.update({"models.gradient": steps * per_step,
                     "tasks.sample_batch": steps * per_step,
                     "linalg.project_complement": 0,
                     "subspace.estimate_subspace": 0,
                     "linalg.norm": steps})
    return want


class Reference:
    """Host-speed reference for calibrated times.

    On a shared 2-CPU VM the host's speed switched between levels about
    1.4x apart for tens of seconds at a time, outside the process, so raw
    medians of 30-second runs spread by up to 30%. A reference kernel timed
    before and after each measurement slows with the host and not with the
    library, so raw * REFERENCE_US / kernel time removes most of that. The
    "small" kernel makes small-array numpy calls, like regression_compare
    and the verify passes; the "large" kernel streams 8 MB arrays, like
    quadratic_wide. A pure-Python loop tracked the small-array legs worse
    than the legs' own raw times did.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x, self._w = rng.standard_normal((64, 16)), rng.standard_normal((16, 12))
        self._buf = np.full(WIDE_D, 1.5)
        self._out = np.empty_like(self._buf)  # preallocated: no page faults timed
        self._last: dict[str, float] = {}
        self._open: list = []

    def _small(self):
        for _ in range(200):
            np.tanh(self._x @ self._w).sum()

    def _large(self):
        for _ in range(3):
            np.multiply(self._buf, self._buf, out=self._out)
        return self._out

    def sample(self, kernel: str) -> float:
        """Fastest of REFERENCE_ROUNDS runs of the kernel, in us."""
        run = self._small if kernel == "small" else self._large
        best = None
        for _ in range(REFERENCE_ROUNDS):
            t0 = time.perf_counter_ns()
            run()
            ns = time.perf_counter_ns() - t0
            best = ns if best is None or ns < best else best
        return best / 1e3

    def start(self, kernel: str) -> None:
        """Open a calibrated interval. The kernel sample that closed the
        previous interval serves as this one's opening sample."""
        before = self._last.get(kernel) or self.sample(kernel)
        self._open = [kernel, before, time.perf_counter(), 0.0, 0.0]

    def mark(self) -> float:
        """Close the current stretch of the open interval and sample the
        kernel; returns the stretch's scale (calibrated / raw). Kernel time
        is not counted."""
        kernel, before, t0, raw, scaled = self._open
        dt = time.perf_counter() - t0
        after = self._last[kernel] = self.sample(kernel)
        scale = 2.0 * REFERENCE_US[kernel] / (before + after)
        self._open = [kernel, after, time.perf_counter(), raw + dt, scaled + dt * scale]
        return scale

    def stop(self) -> tuple[float, float]:
        """Close the interval; returns (calibrated, raw) seconds."""
        self.mark()
        _, _, _, raw, scaled = self._open
        return scaled, raw

    def measure(self, kernel: str, fn):
        """Run fn() in its own interval; returns (result, raw s, scale)."""
        self.start(kernel)
        out = fn()
        scaled, raw = self.stop()
        return out, raw, scaled / raw


class Bench:
    """State of one benchmark process: timings, operation counts, checks."""

    def __init__(self, op, workload: str, seed: int, seconds: float, trace: bool):
        self.op, self.workload, self.seed = op, workload, seed
        self.seconds, self.trace = seconds, trace
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failures: list[str] = []
        self.ref = Reference()
        self.leg_kernel = "large" if workload == "quadratic_wide" else "small"
        # timings are (calibrated, raw) pairs
        self.leg_us = {m: [] for m in METHODS}   # untraced legs: us per step, steps
        self.traced_s = [0.0, 0.0, 0]            # traced legs: train s, raw s, steps
        self.plain_s = [0.0, 0.0, 0]             # untraced legs: train s, raw s, steps
        self.pass_s = {False: [], True: []}      # verify pass seconds, by traced
        self.segments = {"main": [], "verify": []}
        self.digests: dict = {}
        self.bindings = 0
        self.setup_samples: list[tuple[float, float]] = []
        rng = random.Random(seed)  # every input of the run derives from the seed
        self.family_seed = rng.randrange(2 ** 31)
        self.leg_seeds = [rng.randrange(2 ** 31) for _ in range(3)]

    # -- bookkeeping -------------------------------------------------------

    def operation(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same_output(self, key, result) -> bool:
        """Repeated (method, seed) legs must reproduce bit for bit."""
        d = digest(result, self.op.metrics.records_to_csv(result.records))
        return self.digests.setdefault(key, d) == d

    def traced(self, fn, *args):
        """Run fn with spans installed; returns (result, [lo, hi))."""
        lo = len(self.tracer)
        changes = self.tracer.bindings(self.op)
        self.bindings = len(changes)
        with patched(changes):
            out = fn(*args)
        return out, (lo, len(self.tracer))

    # -- set-up --------------------------------------------------------------

    def import_seconds(self) -> float:
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import orthoproj.cli, orthoproj.verify; print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise SetupError(f"importing orthoproj failed: {proc.stderr.strip()[-400:]}")
        return float(proc.stdout.strip())

    def setup(self, build):
        """Time import + family construction SETUP_REPS times; keep the last
        families. Import is timed in a fresh interpreter each time."""
        def once():
            imported = self.import_seconds()
            t0 = time.perf_counter()
            families = build()
            return families, imported + time.perf_counter() - t0

        families = None
        for _ in range(SETUP_REPS):
            (families, raw), _, scale = self.ref.measure("small", once)
            self.setup_samples.append((raw * scale, raw))
        return families

    def add_leg(self, config, raw_s: float, scale: float, traced: bool) -> None:
        acc = self.traced_s if traced else self.plain_s
        acc[0] += raw_s * scale
        acc[1] += raw_s
        acc[2] += config.steps
        if not traced:
            per_step = raw_s / config.steps * 1e6
            self.leg_us[config.method].append((per_step * scale, per_step, config.steps))

    # -- training workloads --------------------------------------------------

    def leg(self, config, family, timed: bool, traced: bool):
        """One train() call, looked up at call time so installed spans apply.
        Returns (result or None, problem or None)."""
        lo = len(self.tracer) if traced else 0
        try:
            result, raw_s, scale = self.ref.measure(
                self.leg_kernel, lambda: self.op.optimizer.train(config, family))
        except Exception as exc:  # a failing leg is a failed operation, not a crash
            return None, f"{config.method} seed {config.seed}: train raised {exc!r}"
        problem = None
        if traced:
            got = self.tracer.counts(lo, len(self.tracer))
            want = expected_counts(config, family, result)
            wrong = {k: (got.get(k, 0), v) for k, v in want.items() if got.get(k, 0) != v}
            if wrong:
                problem = f"{config.method} leg span counts (got, want): {wrong}"
        if not self.same_output((config.method, config.seed), result):
            problem = f"{config.method} seed {config.seed}: not bitwise identical to its first run"
        if timed:
            self.add_leg(config, raw_s, scale, traced)
        return result, problem

    def _cycle(self, family, base, seed, timed, traced):
        legs = {m: self.leg(dataclasses.replace(base, method=m, seed=seed), family, timed, traced)
                for m in METHODS}
        (ortho, problem), (naive, _) = legs["ortho"], legs["naive"]
        if problem is None and ortho is not None and naive is not None:
            tax = self.op.metrics.alignment_tax
            t_o, t_n = tax(ortho, family).total_tax, tax(naive, family).total_tax
            if not t_o < t_n:
                legs["ortho"] = (ortho, f"seed {seed}: ortho total_tax {t_o!r} !< naive {t_n!r}")
        for _, problem in legs.values():
            self.operation(problem is None, problem)

    def cycle(self, family, base, seed, timed=True, traced=False):
        if traced:
            _, span = self.traced(self._cycle, family, base, seed, timed, True)
            self.segments["main"].append(span)
        else:
            self._cycle(family, base, seed, timed, False)

    def training(self, family, base):
        """Closed loop of naive -> ortho -> replay cycles over three leg seeds,
        then the verify passes."""
        seeds = self.leg_seeds
        self.cycle(family, base, seeds[0], timed=False)  # warm-up
        start, c = time.perf_counter(), 0
        while self.keep_going(start, c):
            self.cycle(family, base, seeds[c % len(seeds)], traced=self.trace and c % 2 == 1)
            c += 1
        for _ in range(TRAINING_VERIFY_PASSES):
            self.verify_pass(self.trace)

    def keep_going(self, start: float, done: int) -> bool:
        if time.perf_counter() - start < self.seconds:
            return True
        if self.trace:  # at least two traced and two untraced cycles
            return done < 4
        return min(len(v) for v in self.leg_us.values()) < MIN_LEGS

    # -- verify passes -------------------------------------------------------

    def pass_hooks(self, legs: list) -> list:
        """Patches that mark the calibration interval at every check and
        around every train() leg of a verify pass, and collect the legs.
        Installed inside the tracer, so no span counts a kernel sample."""
        verify, optimizer, ref = self.op.verify, self.op.optimizer, self.ref

        def timed_leg(config, family):
            ref.mark()
            t0 = time.perf_counter()
            result = optimizer.train(config, family)
            raw_s = time.perf_counter() - t0
            legs.append((config, family, result, raw_s, ref.mark()))
            return result

        def marked(check):
            @functools.wraps(check)
            def run(*args, **kwargs):
                ref.mark()
                return check(*args, **kwargs)
            return run

        checks = [marked(fn) for fn in verify.CHECKS]
        return ([(verify, "train", timed_leg), (self.op.cli, "train", timed_leg),
                 (verify, "CHECKS", tuple(checks))]
                + [(verify, fn.__name__, fn) for fn in checks])

    def verify_pass(self, traced: bool):
        """One verify.run_all pass: nine checks that must all pass, and the
        bitwise check on the train() legs it ran. On verify_suite those legs
        are the timed legs."""
        legs: list = []

        def run_all():  # looked up at call time so installed spans apply
            with patched(self.pass_hooks(legs)):
                return self.op.verify.run_all(self.seed)

        self.ref.start("small")
        try:
            if traced:
                results, span = self.traced(run_all)
                self.segments["verify"].append(span)
            else:
                results = run_all()
        except Exception as exc:  # reported as a failed operation
            self.operation(False, f"verify pass raised {exc!r}")
            return
        self.pass_s[traced].append(self.ref.stop())
        for r in results:
            self.operation(r.passed, f"verify {r.name}: {r.details}")
        if len(results) != N_CHECKS:
            self.operation(False, f"verify ran {len(results)} checks, expected {N_CHECKS}")
        for config, family, result, raw_s, scale in legs:
            same = self.same_output((repr(config), family.fingerprint), result)
            self.operation(same, f"verify leg {config.method} seed {config.seed}: "
                                 "not bitwise identical to its first run")
            if self.workload == "verify_suite":
                self.add_leg(config, raw_s, scale, traced)

    def verify_suite(self):
        """Closed loop of verify passes; every train() call inside is a leg."""
        start, p = time.perf_counter(), 0
        while self.keep_going(start, p):
            traced = self.trace and p % 2 == 1
            self.verify_pass(traced)
            if traced:
                self.segments["main"].append(self.segments["verify"][-1])
            p += 1

    # -- reports -------------------------------------------------------------

    def end_to_end(self) -> dict:
        """name -> (value, unit, note) from untraced legs and passes. Times
        are calibrated (see Reference); notes give sample counts and raw
        values."""
        out = {}

        def timing(name, pairs, unit, what, weights=None):
            cal, cal_tail = median_tail([p[0] for p in pairs], weights)
            raw, raw_tail = median_tail([p[1] for p in pairs], weights)
            out[name] = (cal, unit, f"median of {len(pairs)} {what}; raw {raw:.6g} {unit}")
            return cal_tail, raw_tail

        timing("setup_s", self.setup_samples, "s", "set-ups")
        cal_s, raw_s, steps = self.plain_s
        if steps:
            legs = sum(len(v) for v in self.leg_us.values())
            out["steps_per_s"] = (steps / cal_s, "steps/s", f"{legs} legs, {steps} steps; "
                                  f"raw {steps / raw_s:.6g} steps/s")
        for method in METHODS:
            pairs = self.leg_us[method]
            if not pairs:  # every leg failed; the failures are reported
                continue
            cal_tail, raw_tail = timing(f"step_us.{method}", pairs, "us", "legs",
                                        [steps for _, _, steps in pairs])
            if cal_tail is not None:
                out[f"step_us_tail.{method}"] = (
                    cal_tail[0], "us",
                    f"p{cal_tail[1]:.1f} of {len(pairs)} legs; raw {raw_tail[0]:.6g} us")
        if self.pass_s[False]:
            timing("verify_s", self.pass_s[False], "s", "passes")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["peak_rss_mb"] = (rss, "MB", "1 process")
        return out

    def per_layer(self) -> dict:
        """name -> (value, unit, note) from the traced cycles and passes.

        Calls and self time are per traced cycle (one naive/ortho/replay
        triple, or one verify pass on verify_suite); oracle.*, linalg.dot
        and verify.* are per traced verify pass.
        """
        t = self.tracer
        spans = t.arrays()
        agg = {"main": t.aggregate(spans, self.segments["main"]),
               "verify": t.aggregate(spans, self.segments["verify"])}
        n = {k: max(1, len(v)) for k, v in self.segments.items()}
        out = {}
        for module, fns in TRACED.items():
            for fn in fns:
                name = f"{module}.{fn}"
                part = "verify" if name.startswith(PER_PASS) else "main"
                a = agg[part]
                per = f"per traced {'verify pass' if part == 'verify' else 'cycle'}"
                i = t.names.index(name) if name in t.names else None
                calls = a["calls"][i] / n[part] if i is not None else 0.0
                self_ms = a["self_ns"][i] / n[part] / 1e6 if i is not None else 0.0
                out[f"{name}.calls"] = (float(calls), "count", per)
                out[f"{name}.self_ms"] = (float(self_ms), "ms", per)
            if module == "linalg":
                main = agg["main"]
                out["linalg.bytes_computed"] = (main["bytes"] / n["main"], "bytes",
                                                "computed from argument sizes, per traced cycle")
                out["linalg.flops_computed"] = (main["flops"] / n["main"], "flop",
                                                "computed from argument sizes, per traced cycle")
            if module == "subspace":
                main = agg["main"]
                ratio = main["rank"] / main["candidates"] if main["candidates"] else 0.0
                out["subspace.rank_ratio"] = (ratio, "ratio",
                                              f"{main['rank']} accepted of {main['candidates']}")
        for fn in self.op.verify.CHECKS:
            name = "verify." + fn.__name__.removeprefix("check_")
            i = t.names.index(name) if name in t.names else None
            s = agg["verify"]["incl_ns"][i] / n["verify"] / 1e9 if i is not None else 0.0
            out[f"{name}.s"] = (float(s), "s", "inclusive, per traced verify pass")
        out["trace.overhead_pct"] = self.overhead()
        return out

    def overhead(self):
        """Calibrated traced time against untraced, in percent."""
        if self.workload == "verify_suite":
            traced, plain = (statistics.median(c for c, _ in self.pass_s[k])
                             for k in (True, False))
            basis = f"median traced pass {traced:.4f} s vs untraced {plain:.4f} s"
        else:
            traced = self.traced_s[0] / self.traced_s[2] * 1e6
            plain = self.plain_s[0] / self.plain_s[2] * 1e6
            basis = (f"train() us per step traced {traced:.2f} vs untraced {plain:.2f}, "
                     f"{self.traced_s[2]} and {self.plain_s[2]} steps")
        return (100.0 * (traced / plain - 1.0), "%", basis)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def load_config(op, name: str):
    path = ROOT / "configs" / f"{name}.cfg"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return op.config.parse_config_file(path)


def build(op, exp, seed: int, **overrides):
    return op.tasks.build_family(exp.family_kind, seed,
                                 **dict(exp.family_params_dict(), **overrides))


def regression_compare(bench: Bench) -> None:
    exp = load_config(bench.op, "regression")
    family = bench.setup(lambda: build(bench.op, exp, bench.family_seed))
    bench.training(family, exp.train)


def quadratic_wide(bench: Bench) -> None:
    exp = load_config(bench.op, "quadratic")
    (stage,) = exp.train.stages
    base = dataclasses.replace(exp.train, eta=WIDE_ETA, steps=WIDE_STEPS, refresh_every=1,
                               stages=(dataclasses.replace(stage, steps=WIDE_STEPS),))
    family = bench.setup(lambda: build(bench.op, exp, bench.family_seed, d=WIDE_D))
    bench.training(family, base)


def verify_suite(bench: Bench) -> None:
    exps = [load_config(bench.op, name) for name in ("regression", "policy")]
    bench.setup(lambda: [build(bench.op, exp, bench.family_seed) for exp in exps])
    bench.verify_suite()


WORKLOADS = {"regression_compare": regression_compare, "quadratic_wide": quadratic_wide,
             "verify_suite": verify_suite}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        op = import_library()
        OUT.mkdir(exist_ok=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        tempfile.tempdir = str(OUT / "tmp")  # verify's determinism check writes here
        bench = Bench(op, args.workload, args.seed, args.seconds, bool(args.trace))
        WORKLOADS[args.workload](bench)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics = bench.per_layer() if bench.trace else bench.end_to_end()
    failed = len(bench.failures)
    machine = machine_block()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("machine " + json.dumps(machine, sort_keys=True))
    if bench.trace:
        print(f"spans: {len(bench.tracer)} recorded, {bench.bindings} bindings wrapped, "
              f"{len(bench.segments['main'])} traced cycles, "
              f"{len(bench.segments['verify'])} traced verify passes")
        np.savez(OUT / f"{tag}-spans.npz", names=np.array(bench.tracer.names),
                 **bench.tracer.arrays())
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"failed_frac = {failed / bench.attempted:.6g} ratio "
          f"({failed} failed of {bench.attempted} operations)")
    for problem in bench.failures[:20]:
        print(f"FAILED: {problem}")
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "attempted": bench.attempted,
        "failures": bench.failures,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
    }, indent=1, default=float))
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
