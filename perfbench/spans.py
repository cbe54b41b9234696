"""In-memory spans around calls into orthoproj's public functions.

:meth:`Tracer.bindings` wraps each traced function on every module attribute
that binds it (``optimizer`` calls the ``project_complement`` it imported,
not ``orthoproj.linalg.project_complement``); :func:`patched` installs the
wrappers for the duration of a block. Each call records one span (name,
parent span, start, end) in flat arrays. Self time is computed at the end
as a span's duration minus the durations of its direct children.

Kernel counts for ``linalg`` are computed from argument sizes at 8 bytes per
float64 element; they are not hardware counter readings.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from types import ModuleType

import numpy as np

# module -> public functions timed in the traced run; tasks.* are methods of
# DifferentiableTask, and probe_eval is DifferentiableTask.loss on the probe
TRACED = {
    "linalg": ("norm", "dot", "project_complement", "gram_schmidt"),
    "models": ("loss", "gradient"),
    "tasks": ("sample_batch", "probe_eval"),
    "subspace": ("estimate_subspace",),
    "optimizer": ("train",),
    "metrics": ("alignment_tax",),
    "oracle": ("fd_gradient", "steepest_check", "taylor_scaling"),
}
F64 = 8


@contextlib.contextmanager
def patched(changes):
    """Set (owner, attribute, value) triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in changes]
    for owner, attr, value in changes:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _norm_counts(args, out):
    d = np.size(args[0])
    return F64 * d, 2 * d


def _dot_counts(args, out):
    d = np.size(args[0])
    return F64 * 2 * d, 2 * d


def _project_counts(args, out):
    # r coefficient dots read g and u_j, one copy reads g, r updates read u_j
    # and the running result
    d, r = out.size, args[1].rank
    return F64 * d * (4 * r + 1), 4 * r * d


def _gram_schmidt_counts(args, out):
    # finiteness scan of the candidates, then for candidate i a removal pass
    # against the k_i directions accepted before it (a second pass and a
    # normalisation when accepted). k_i = min(i, rank) assumes the accepted
    # candidates come first, the generic case. Norms are counted under norm.
    cands = args[0]
    m = len(cands)
    if m == 0:
        return 0, 0
    d, rank = np.size(cands[0]), out.rank
    passes = sum(min(i, rank) for i in range(m)) + sum(range(rank))
    return F64 * d * (m + 4 * passes + m + 2 * rank), d * (4 * passes + rank)


KERNEL_COUNTS = {
    "linalg.norm": _norm_counts,
    "linalg.dot": _dot_counts,
    "linalg.project_complement": _project_counts,
    "linalg.gram_schmidt": _gram_schmidt_counts,
}


class Tracer:
    """Span recorder and the span wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # per-span extras, keyed by span index
        self.kernel_span = array("q")
        self.kernel_bytes = array("q")
        self.kernel_flops = array("q")
        self.rank_span = array("q")
        self.rank_accepted = array("q")
        self.rank_candidates = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, post=None):
        """Return fn wrapped in a span; post(span_index, args, result) runs
        after the span has ended."""
        nid = self._id(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(i, args, out)
            return out

        return functools.wraps(fn)(spanned)

    def _kernel_post(self, counter):
        def post(i, args, out):
            nbytes, flops = counter(args, out)
            self.kernel_span.append(i)
            self.kernel_bytes.append(nbytes)
            self.kernel_flops.append(flops)
        return post

    def _rank_post(self, i, args, out):
        self.rank_span.append(i)
        self.rank_accepted.append(out.rank)
        self.rank_candidates.append(out.candidate_count)

    def bindings(self, package: ModuleType) -> list[tuple[object, str, object]]:
        """(owner, attribute, span wrapper) for every binding of every traced
        function in the package, ready for :func:`patched`."""
        modules = [package] + [m for m in vars(package).values()
                               if isinstance(m, ModuleType)
                               and m.__name__.startswith(package.__name__ + ".")]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod_name, fns in TRACED.items():
            if mod_name == "tasks":
                continue
            module = getattr(package, mod_name)
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                post = self._rank_post if name == "subspace.estimate_subspace" else None
                if name in KERNEL_COUNTS:
                    post = self._kernel_post(KERNEL_COUNTS[name])
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(name, fn, post))

        verify = package.verify
        checks = []
        for fn in verify.CHECKS:
            wrapper = self.wrap("verify." + fn.__name__.removeprefix("check_"), fn)
            wrappers[id(fn)] = (fn, wrapper)
            checks.append(wrapper)

        changes = [(module, attr, wrappers[id(value)][1])
                   for module in modules for attr, value in vars(module).items()
                   if id(value) in wrappers and wrappers[id(value)][0] is value]
        # run_all tells checks apart by identity with the module globals, so
        # the tuple must hold the same wrappers as the globals
        changes.append((verify, "CHECKS", tuple(checks)))

        task_cls = package.tasks.DifferentiableTask
        task_loss = task_cls.loss
        probe = self.wrap("tasks.probe_eval", task_loss)

        def loss(task, theta, batch=None):
            if batch is not None:
                return task_loss(task, theta, batch)
            return probe(task, theta)

        changes.append((task_cls, "sample_batch",
                        self.wrap("tasks.sample_batch", task_cls.sample_batch)))
        changes.append((task_cls, "loss", loss))
        return changes

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {"name": name, "parent": parent, "start_ns": np.array(self.start, dtype=np.int64),
                "dur_ns": dur, "self_ns": dur - child.astype(np.int64)}

    def counts(self, lo: int, hi: int) -> dict[str, int]:
        """Calls per span name among spans lo..hi-1."""
        ids = np.array(self.name_id[lo:hi], dtype=np.int64)
        c = np.bincount(ids, minlength=len(self.names))
        return {n: int(c[i]) for i, n in enumerate(self.names)}

    def aggregate(self, spans: dict, segments) -> dict:
        """Sum calls, self time, inclusive time and kernel counts over the
        spans that started inside the given [lo, hi) index segments."""
        idx = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in segments]
                             or [np.zeros(0, dtype=np.int64)])
        n = len(self.names)
        ids = spans["name"][idx]
        out = {
            "calls": np.bincount(ids, minlength=n),
            "self_ns": np.bincount(ids, weights=spans["self_ns"][idx], minlength=n),
            "incl_ns": np.bincount(ids, weights=spans["dur_ns"][idx], minlength=n),
        }
        ks = np.array(self.kernel_span, dtype=np.int64)
        in_k = np.isin(ks, idx)
        out["bytes"] = int(np.array(self.kernel_bytes, dtype=np.int64)[in_k].sum())
        out["flops"] = int(np.array(self.kernel_flops, dtype=np.int64)[in_k].sum())
        rs = np.array(self.rank_span, dtype=np.int64)
        in_r = np.isin(rs, idx)
        out["rank"] = int(np.array(self.rank_accepted, dtype=np.int64)[in_r].sum())
        out["candidates"] = int(np.array(self.rank_candidates, dtype=np.int64)[in_r].sum())
        return out
