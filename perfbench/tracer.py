"""In-memory spans and counters around the public functions of each layer.

A span is (name, start, end, parent index), with parent -1 for a root.  The
tracer replaces module attributes at the names the callers look up, so no
source file changes, and puts the originals back when the block ends.  It
assumes one thread: the innermost open span is the parent of the next one.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import time
from contextlib import contextmanager
from pathlib import Path


def _count_candidates(counts, args, result):
    counts["mechanisms.exponential.candidates"] += len(args[0])


def _count_iterations(counts, args, result):
    counts["solvers.iterations"] += result.iterations


# (module, attribute the caller looks up, span name, optional counter)
LAYER_TARGETS = (
    ("conedp.mwu", "spectral_decompose", "eja.spectral_decompose", None),
    ("conedp.solvers", "spectral_decompose", "eja.spectral_decompose", None),
    ("conedp.eja", "eigenvalues", "eja.eigenvalues", None),
    ("conedp.solvers", "to_coords", "eja.coords", None),
    ("conedp.solvers", "from_coords", "eja.coords", None),
    ("conedp.oracles", "to_coords", "eja.coords", None),
    ("conedp.solvers", "cone_mwu_step", "mwu.cone_step", None),
    ("conedp.solvers", "bregman_project", "mwu.bregman_project", None),
    ("conedp.solvers", "dense_mwu_step", "mwu.dense_step", None),
    ("conedp.solvers", "violation_scores", "oracles.violation_scores", None),
    ("conedp.solvers", "width_rho", "oracles.width", None),
    ("conedp.harness.runner", "width_rho", "oracles.width", None),
    ("conedp.solvers", "covering_oracle_private", "oracles.covering_private", None),
    ("conedp.solvers", "idempotent_ray_net", "oracles.net_build", None),
    ("conedp.solvers", "exponential_mechanism", "mechanisms.exponential", _count_candidates),
    ("conedp.oracles", "exponential_mechanism", "mechanisms.exponential", _count_candidates),
    ("conedp.harness.runner", "dispatch_solver", "solvers", _count_iterations),
    ("conedp.harness.cli", "load_instance", "harness.load_instance", None),
    ("conedp.harness.cli", "write_records", "harness.write_records", None),
    ("conedp.harness.cli", "generate_feasible_scp", "harness.gen", None),
    ("conedp.harness.cli", "generate_covering_sdp", "harness.gen", None),
    ("conedp.harness.cli", "save_instance", "harness.save_instance", None),
)


class Tracer:
    """Collects spans and counts; :meth:`installed` patches the layer targets."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, observe in LAYER_TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    # a later refactor may move a function; its layer then reads 0
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> dict[str, list]:
        """Per span name: [calls, self seconds], self = duration minus children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = collections.defaultdict(lambda: [0, 0.0])
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child
        return totals

    def write(self, path: Path, phase: str, origin: float) -> None:
        """Append spans as gzip CSV rows: phase,name,start_ns,end_ns,parent.

        Times are integer nanoseconds after ``origin``; parent indexes the
        phase's own rows.
        """
        with gzip.open(path, "at", compresslevel=1) as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    f"{phase},{name},{round((start - origin) * 1e9)},"
                    f"{round((end - origin) * 1e9)},{parent}\n"
                )
