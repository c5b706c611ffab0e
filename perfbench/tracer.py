"""Span tracer that instruments ttgad from outside the package.

While installed, every public function of the traced layers is replaced,
at each ``ttgad.*`` module attribute that holds it, by a wrapper that
records a span (name, start, end, parent) and a few counters. Callers look
functions up either through the defining module (``dk.matmul``) or through
a name imported into their own module (``pipeline.forward_embeddings``), so
the same wrapper is installed at every attribute that holds the original.
``uninstall`` puts every original back; nothing under ``src/`` changes.

Spans stay in memory and are written out by the caller at the end of a run.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("graphstore", "gnn", "diffkernel", "losses", "pipeline", "evaluation")

# Methods reached through an instance rather than a module attribute.
METHODS = (("diffkernel", "Tape", "backward", "diffkernel.backward"),
           ("gnn", "ProjectionEncoder", "project", "gnn.project"))

MB = 1e6


class Tracer:
    """Records spans and counters for the ttgad calls made while installed.

    Spans are ``[name, start, end, parent_index]`` lists; the benchmark
    opens one root span per phase with :meth:`phase`, and counters are kept
    per phase so that set-up work and timed work stay apart.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._phase = None
        self._patches = []
        self._tape_depth = 0
        self._tracing_memory = False
        self._bundle = None

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ttgad" or key.startswith("ttgad.")]
        for layer in LAYERS:
            module = sys.modules[f"ttgad.{layer}"]
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                wrapper = self._wrap(original, f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"ttgad.{layer}"], cls_name)
            self._patch(cls, attr, self._wrap(getattr(cls, attr), name))
        tape = sys.modules["ttgad.diffkernel"].Tape
        self._patch(tape, "__enter__", self._tape_enter(tape.__enter__))
        self._patch(tape, "__exit__", self._tape_exit(tape.__exit__))

    def uninstall(self):
        """Restore every patched attribute; returns the ones left wrong."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        if self._tracing_memory:
            tracemalloc.stop()
            self._tracing_memory = False
        wrong = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._patches
                 if vars(owner).get(attr) is not original]
        self._patches = []
        return wrong

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans --------------------------------------------------------------

    @contextmanager
    def phase(self, name):
        """Root span for one benchmark phase; counters go to ``name``."""
        previous = self._phase
        self._phase = name
        with self._span(f"bench.{name}"):
            yield
        self._phase = previous

    @contextmanager
    def _span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def _count(self, key, amount=1.0):
        self.counts[self._phase][key] += amount

    def _wrap(self, fn, name):
        after = _AFTER.get(name)
        is_op = name.startswith("diffkernel.") and name not in _NOT_OPS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "gnn.forward_embeddings":
                training = kwargs.get("training", args[3] if len(args) > 3 else False)
                span_name = f"{name}.{'train' if training else 'eval'}"
                tracer._bundle = args[0]
            with tracer._span(span_name):
                result = fn(*args, **kwargs)
            tracer._count(f"{name}.calls")
            if is_op and hasattr(result, "values"):
                nbytes = result.values.nbytes
                tracer._count(f"{name}.out_bytes", nbytes)
                if tracer._tape_depth:
                    tracer._count("diffkernel.tape.ops")
                    tracer._count("diffkernel.tape.out_bytes", nbytes)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _tape_enter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def enter(tape):
            tracer._tape_depth += 1
            if not tracer._tracing_memory:
                tracemalloc.start()
                tracer._tracing_memory = True
            return fn(tape)

        return enter

    def _tape_exit(self, fn):
        tracer = self

        @functools.wraps(fn)
        def exit_(tape, *exc):
            tracer._tape_depth -= 1
            return fn(tape, *exc)

        return exit_

    def _end_tape_memory(self):
        if self._tracing_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._tracing_memory = False
            counts = self.counts[self._phase]
            counts["diffkernel.tape.peak_bytes"] = max(
                counts["diffkernel.tape.peak_bytes"], peak)

    # -- aggregation --------------------------------------------------------

    def span_times(self, phase):
        """Inclusive and self seconds per span name under ``bench.<phase>``.

        A span nested inside a span of the same name is left out of the
        inclusive total, so recursion is not counted twice.
        """
        spans = self.spans
        root = f"bench.{phase}"
        # Parents precede their children, so one forward pass settles
        # membership and one more settles the same-name ancestry.
        under = [False] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            under[i] = name == root or (parent >= 0 and under[parent])
            if parent >= 0:
                child_time[parent] += end - start
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            if not under[i]:
                continue
            self_time[name] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return dict(inclusive), dict(self_time)

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _after_backward(tracer, args, result):
    tracer._end_tape_memory()


def _after_load_graph(tracer, args, graph):
    tracer._count("graphstore.load_graph.edges", graph.num_edges)


def _after_sample(tracer, args, sample):
    tracer._count("losses.sample_nonneighbors.pairs", sample.src.size)


def _after_adam(tracer, args, result):
    params, grads = args[0], args[1]
    bundle = tracer._bundle
    useful = sum(grads[p].nbytes for p in params if p in grads)
    every = sum(grads[t].nbytes for _, t in bundle.parameter_items() if t in grads)
    tracer._count("diffkernel.backward.useful_grad_bytes", useful)
    tracer._count("diffkernel.backward.grad_bytes", every)


def _after_adapt(tracer, args, result):
    trace = result[1]
    best = trace.initial_score
    improving = 0
    for entry in trace.epochs:
        if entry["score"] > best:
            best = entry["score"]
            improving += 1
    tracer._count("pipeline.adapt_target.epochs", len(trace.epochs))
    tracer._count("pipeline.adapt_target.improving", improving)


_AFTER = {
    "diffkernel.backward": _after_backward,
    "diffkernel.adam_step": _after_adam,
    "graphstore.load_graph": _after_load_graph,
    "losses.sample_nonneighbors": _after_sample,
    "pipeline.adapt_target": _after_adapt,
}

_NOT_OPS = {"diffkernel.backward", "diffkernel.adam_step", "diffkernel.grad_check"}
