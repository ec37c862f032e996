"""Wrappers around the public functions of each ``spectral_options`` module.

The benchmark patches these wrappers in from its own files; the package is
not edited.  A wrapped function is replaced at every module attribute that
holds it, so ``from x import f`` import sites are covered as well.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and run id, and is kept in
  memory until ``Tracer.spans`` is written out;
* a *hot* call (hundreds of thousands per run, such as ``env.step``) records
  no span: its count and busy time are folded into the enclosing span.

Every wrapper keeps its own busy time apart from its callees, so the self
times of one command's spans plus the folded busy times add up to the
command's traced wall time exactly.  What the wrappers cost shows up as the
difference between traced and untraced wall time.

Observers see arguments, result and exception of a few low-frequency calls;
they run untraced as well, so the output checks work in every run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer.function -> (module, attribute, hot)
TARGETS = {
    "env.sample_trajectory": ("env", "sample_trajectory", False),
    "env.step": ("env", "step", True),
    "model.init": ("model", "EstimatedModel.__init__", False),
    "model.update_counts": ("model", "update_counts", False),
    "model.adjacency": ("model", "adjacency", False),
    "model.transition_probabilities": ("model", "transition_probabilities", False),
    "model.save_triplets": ("model", "save_triplets", False),
    "spectral.cluster": ("spectral", "cluster", False),
    "spectral.build_laplacian": ("spectral", "build_laplacian", False),
    "spectral.decompose": ("spectral", "decompose", False),
    "spectral.select_k": ("spectral", "select_k", False),
    "spectral.find_simplex_vertices": ("spectral", "find_simplex_vertices", False),
    "spectral.compute_memberships": ("spectral", "compute_memberships", False),
    "spectral.connectivity": ("spectral", "connectivity", False),
    "options.compose_options": ("options", "compose_options", False),
    "options.compose_policy": ("options", "compose_policy", False),
    "options.compose_termination": ("options", "compose_termination", False),
    "options.assign_states": ("options", "assign_states", False),
    "agents.available_choices": ("agents", "available_choices", True),
    "agents.epsilon_greedy": ("agents", "epsilon_greedy", True),
    "agents.smdp_q_update": ("agents", "smdp_q_update", True),
    "agents.intra_option_update": ("agents", "intra_option_update", True),
    "agents.run_option": ("agents", "run_option", True),
    "pipeline.run_odstc": ("pipeline", "run_odstc", False),
    "pipeline.run_episode": ("pipeline", "run_episode", False),
    "pipeline.kmeans_microstates": ("pipeline", "kmeans_microstates", False),
    "pipeline.aggregate_model": ("pipeline", "aggregate_model", False),
    "cli.load_config": ("cli", "load_config", False),
}

PACKAGE = "spectral_options"


class Tracer:
    """In-memory span store plus a stack of open frames.

    A frame is ``[child_time, span_id, folded]``; ``folded`` maps a hot
    call's name to ``[calls, busy_s]`` for the span that encloses it.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []   # [name, start, end, parent, run, folded, self_s]
        self.stack: list[list] = [[0.0, None, {}]]
        self.counters: dict = defaultdict(int)
        self.run_id = ""

    def open(self, name: str):
        parent = self.stack[-1]
        frame = [0.0, len(self.spans), {}]
        record = [name, self.clock(), None, parent[1], self.run_id, frame[2], None]
        self.spans.append(record)
        self.stack.append(frame)
        return record

    def close(self, record):
        end = self.clock()
        frame = self.stack.pop()
        duration = end - record[1]
        self.stack[-1][0] += duration
        record[2] = end
        record[6] = duration - frame[0]

    def span_wrapper(self, name, fn, observe, count):
        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(record)
                if observe:
                    observe(args, kwargs, None, exc, record[2] - record[1])
                raise
            self.close(record)
            if count:
                count(self.counters, args, result)
            if observe:
                observe(args, kwargs, result, None, record[2] - record[1])
            return result
        return traced

    def hot_wrapper(self, name, fn, count):
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                acc = frame[2].get(name)
                if acc is None:
                    acc = frame[2][name] = [0, 0.0]
                acc[0] += 1
                acc[1] += elapsed - frame[0]
            if count:
                count(self.counters, args, result)
            return result
        return traced

    def totals(self, spans=None):
        """name -> [calls, self_s] over the given span records (all by default)."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for name, _, _, _, _, folded, self_s in (self.spans if spans is None else spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += self_s
            for hot, (calls, busy) in folded.items():
                acc = out[hot]
                acc[0] += calls
                acc[1] += busy
        return out

    def subtree(self, root_index: int):
        """Span records of the root span at ``root_index`` and all its descendants."""
        inside = {root_index}
        out = [self.spans[root_index]]
        for i in range(root_index + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(self.spans[i])
        return out


def observer_wrapper(fn, observe):
    def observed(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            observe(args, kwargs, None, exc, time.perf_counter() - start)
            raise
        observe(args, kwargs, result, None, time.perf_counter() - start)
        return result
    return observed


class Patches:
    """Replace functions at every ``spectral_options`` attribute that holds them."""

    def __init__(self):
        self._undo: list = []

    def install(self, tracer: Tracer | None, observers: dict, counters: dict):
        """Wrap every target when tracing, else only the observed ones."""
        for name, (module, attr, hot) in TARGETS.items():
            observe = observers.get(name)
            if tracer is None and observe is None:
                continue
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            count = counters.get(name)
            if tracer is None:
                wrapper = observer_wrapper(original, observe)
            elif hot:
                wrapper = tracer.hot_wrapper(name, original, count)
            else:
                wrapper = tracer.span_wrapper(name, original, observe, count)
            self._replace(owner, original, wrapper)

    def _replace(self, owner, original, wrapper):
        holders = [owner] if isinstance(owner, type) else [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, original))

    def remove(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
