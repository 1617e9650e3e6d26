"""Timing spans around the public functions of each learnedbp module.

The traced run installs wrappers from here, outside the package: each
call into a wrapped function records a span (name, start, end, parent)
in memory, and a few wrappers also count work (images simulated, bytes
written, distinct contribution inputs).  A layer's self time is the
duration of its spans minus the part covered by their child spans, so
the self times of one call tree add up to the duration of its root.

Bookkeeping done by the wrappers themselves (hashing an input, counting
bytes) is recorded as a child span named "trace", which keeps it out of
every layer's self time and inside the reported tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

TRACE = "trace"

# span name -> per-layer time metric its self time adds to
LAYER_OF_SPAN = {
    "phantoms.generate_phantom": "phantoms.generate_s",
    "forward.ForwardOperator.__init__": "forward.build_s",
    "forward.ForwardOperator.simulate": "forward.simulate_s",
    "forward.ForwardOperator.simulate_batch": "forward.simulate_s",
    "recon.BackprojectionOperator.__init__": "recon.build_s",
    "recon.BackprojectionOperator.contrib": "recon.contrib_s",
    "recon.BackprojectionOperator.apply": "recon.apply_s",
    "recon.BackprojectionOperator.apply_to_contrib": "recon.apply_s",
    "recon.BackprojectionOperator.apply_values": "recon.apply_s",
    "recon.BackprojectionOperator.standard": "recon.apply_s",
    "recon.ContribTensor.sum_image": "recon.apply_s",
    "training.prescan_learning_rate": "training.prescan_s",
    "training.loss": "training.heldout_loss_s",
    "training.sample_loss": "training.heldout_loss_s",
    "training.sgd_train": "training.sgd_self_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "metrics.rel_error": "metrics.evaluate_s",
    "metrics.format_report": "metrics.evaluate_s",
    "metrics.report_csv": "metrics.evaluate_s",
    "fileio.atomic_write_bytes": "fileio.write_s",
    "fileio.write_patb": "fileio.write_s",
    "fileio.write_pgm": "fileio.write_s",
    "fileio.write_sample": "fileio.write_s",
    "fileio.save_scenario_cfg": "fileio.write_s",
    "fileio.Dataset.write_manifest": "fileio.write_s",
    "fileio.read_patb": "fileio.read_s",
    "fileio.read_pgm": "fileio.read_s",
    "fileio.load_scenario_cfg": "fileio.read_s",
    "fileio.Dataset.open": "fileio.read_s",
    "fileio.Dataset.validate": "fileio.read_s",
    "fileio.Dataset.load_pair": "fileio.read_s",
    "fileio.Dataset.pairs": "fileio.read_s",
    "cli.main": "cli.self_s",
    TRACE: "trace.hook_s",
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.enabled = True
        self.counts = {}
        self.call_inputs = {}  # id -> array, for this call's contrib inputs
        self.call_digests = set()
        self._undo = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def new_call(self):
        """Start a timed call: distinct contribution inputs are counted per
        call, so a run's ratio of calls to inputs does not grow with the
        number of rounds it fits into its time."""
        self.call_inputs = {}
        self.call_digests = set()

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, args, result)``
        runs once the span is closed, inside a "trace" span of its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                hook = [TRACE, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
                after(self, args, result)
                hook[2] = time.perf_counter()
                self.spans.append(hook)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by its wrapped form, keeping static- and
        classmethod descriptors intact."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(name, original.__func__, after))
        elif isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap the public entry points of every learnedbp layer."""
        from learnedbp import cli, fileio, forward, metrics, phantoms, recon, training

        generate = self.wrap("phantoms.generate_phantom", phantoms.generate_phantom)
        for module in (phantoms, cli):  # cli imported the function by name
            self._undo.append((module, "generate_phantom", module.generate_phantom))
            module.generate_phantom = generate

        fwd = forward.ForwardOperator
        self.patch(fwd, "__init__", "forward.ForwardOperator.__init__")
        self.patch(fwd, "simulate", "forward.ForwardOperator.simulate")
        self.patch(fwd, "simulate_batch", "forward.ForwardOperator.simulate_batch", after=_count_images)

        bp = recon.BackprojectionOperator
        self.patch(bp, "__init__", "recon.BackprojectionOperator.__init__")
        self.patch(bp, "contrib", "recon.BackprojectionOperator.contrib", after=_count_contrib)
        for attr in ("apply", "apply_to_contrib", "standard"):
            self.patch(bp, attr, f"recon.BackprojectionOperator.{attr}")
        self.patch(bp, "apply_values", "recon.BackprojectionOperator.apply_values", after=_count_reduction)
        self.patch(recon.ContribTensor, "sum_image", "recon.ContribTensor.sum_image", after=_count_reduction)

        self.patch(training, "prescan_learning_rate", "training.prescan_learning_rate")
        self.patch(training, "loss", "training.loss")
        self.patch(training, "sample_loss", "training.sample_loss")
        self.patch(training, "sgd_train", "training.sgd_train", after=_count_steps)

        for attr in ("evaluate", "rel_error", "format_report", "report_csv"):
            self.patch(metrics, attr, f"metrics.{attr}")

        self.patch(fileio, "atomic_write_bytes", "fileio.atomic_write_bytes", after=_count_written)
        for attr in ("write_patb", "write_pgm", "write_sample", "save_scenario_cfg", "read_pgm", "load_scenario_cfg"):
            self.patch(fileio, attr, f"fileio.{attr}")
        self.patch(fileio, "read_patb", "fileio.read_patb", after=_count_read)
        for attr in ("open", "validate", "load_pair", "pairs", "write_manifest"):
            self.patch(fileio.Dataset, attr, f"fileio.Dataset.{attr}")

        self.patch(cli, "main", "cli.main")

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        before = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = before

    def self_times(self) -> list:
        """Each span's duration minus the durations of its children."""
        durations = [end - start for _, start, end, _ in self.spans]
        own = list(durations)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= durations[index]
        return own

    def write(self, path):
        """Spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _count_images(tracer, args, result):
    op = args[0]
    images = len(result)
    tracer.count("forward.images", images)
    samples = images * op.scenario.detectors.n_s * op.radii.size * op.n_angles
    tracer.count("forward.interp_samples", samples)


def _count_contrib(tracer, args, result):
    tracer.count("recon.contrib_calls")
    values = args[1].values
    if id(values) in tracer.call_inputs:
        return
    # holding the array keeps its id from being reused within the call
    tracer.call_inputs[id(values)] = values
    digest = hashlib.blake2b(np.ascontiguousarray(values).data, digest_size=16).digest()
    if digest not in tracer.call_digests:
        tracer.call_digests.add(digest)
        tracer.count("recon.contrib_distinct_inputs")


def _count_reduction(tracer, args, result):
    tracer.count("recon.apply_calls")


def _count_steps(tracer, args, result):
    tracer.count("training.steps", result.epoch * len(args[0]))


def _count_written(tracer, args, result):
    tracer.count("fileio.bytes_written", len(args[1]))


def _count_read(tracer, args, result):
    tracer.count("fileio.bytes_read", 12 + 4 * result.ndim + 4 * result.size)


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a traced call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("cli.main", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls
