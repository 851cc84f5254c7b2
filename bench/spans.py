"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public functions at the module attribute their
caller looks them up through (``reident_risk.cli.load_csv``, not
``reident_risk.ingest.load_csv``) and restores them afterwards. Each call
becomes a span with a parent id; calls made once per class or per row are
folded into a count and a total instead. A span's self time is its duration
minus the time of the calls made inside it, so the self times of one
assessment add up to the duration of its root span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, layer name, aggregate): one entry per lookup site.
TARGETS = [
    ("reident_risk.cli", "load_csv", "ingest.load_csv", False),
    ("reident_risk.cli", "load_metadata", "ingest.load_metadata", False),
    ("reident_risk.cli", "assess", "engine.assess", False),
    ("reident_risk.cli", "to_json", "report.to_json", False),
    ("reident_risk.cli", "to_markdown", "report.to_markdown", False),
    ("reident_risk.engine", "validate_meta", "model.validate_meta", False),
    ("reident_risk.engine", "build_combinations", "engine.build_combinations", False),
    ("reident_risk.engine", "discrimination_rate", "metrics.discrimination_rate", False),
    ("reident_risk.engine", "k_anonymity", "metrics.k_anonymity", False),
    ("reident_risk.engine", "distinct_l_diversity", "metrics.distinct_l_diversity", False),
    ("reident_risk.engine", "severity_of_value", "engine.severity_of_value", True),
    ("reident_risk.engine", "value_inference", "metrics.value_inference", True),
    ("reident_risk.engine", "equivalence_classes", "metrics.equivalence_classes", True),
    ("reident_risk.metrics", "equivalence_classes", "metrics.equivalence_classes", True),
]


class Tracer:
    """Spans and per-name totals for the assessments run under :meth:`installed`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.partitioned_sets: list[set[frozenset]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._request = -1

    def call(self, name: str, aggregate: bool, fn, *args, **kwargs):
        frame = [0.0, None]  # time spent in calls made inside this one, span id
        if not aggregate:
            self._next_id += 1
            frame[1] = self._next_id
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[0]
            if not aggregate:
                self.spans.append(
                    {
                        "request": self._request,
                        "id": frame[1],
                        "parent": parent,
                        "name": name,
                        "start": start,
                        "end": end,
                        "self_s": duration - frame[0],
                    }
                )

    def request(self, fn, *args):
        """Run one assessment as a root span ``cli.main``."""
        self._request += 1
        self.partitioned_sets.append(set())
        return self.call("cli.main", False, fn, *args)

    def _wrap(self, name: str, aggregate: bool, fn):
        def wrapper(*args, **kwargs):
            if name == "metrics.equivalence_classes":
                qi_set = args[1] if len(args) > 1 else kwargs["qi_set"]
                self.partitioned_sets[-1].add(frozenset(qi_set))
            return self.call(name, aggregate, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, aggregate in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:  # a layer the program no longer has reads 0
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, aggregate, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
