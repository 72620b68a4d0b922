"""Spans and counters recorded from outside the package.

The workload code makes every call into dqdyn through ``tracer.call(name,
fn, ...)``; span names are ``<module>.<function>`` so self time can be
summed per layer. ``NullTracer`` is the untraced path: same call sites, no
recording. Force models are wrapped, not patched, so the package itself is
never modified.
"""

import json
import time
from collections import Counter
from dataclasses import replace


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap_models(self, models):
        return tuple(models)


class Tracer:
    """In-memory span recorder; spans are [name, parent index, start, end]."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[3] = time.perf_counter()

    def wrap_models(self, models):
        """Copies of the force models whose callables count and record spans.

        The integrator calls them from inside ``integrator.simulate`` (and
        ``Trajectory.from_raw`` inside it), so their spans become children
        of whichever public call is open.
        """
        out = []
        for model in models:
            def evaluate(pose, chi, t, _inner=model.evaluate):
                self.counts["force_evals"] += 1
                return self.call("dynamics.force_eval", _inner, pose, chi, t)

            changes = {"evaluate": evaluate}
            if model.energy is not None:
                def energy(pose, _inner=model.energy):
                    self.counts["potential_evals"] += 1
                    return self.call("dynamics.potential_eval", _inner, pose)

                changes["energy"] = energy
            out.append(replace(model, **changes))
        return tuple(out)

    def self_seconds(self) -> Counter:
        """Self time per span name: duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, _, start, end), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "parent": p, "start": s, "end": e}
                        for n, p, s, e in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )
