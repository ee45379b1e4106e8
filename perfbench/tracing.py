"""Per-layer spans recorded from outside the program.

The tracer replaces a layer's function by a wrapper in the module that calls
it, so nothing in the program changes.  A name bound with ``from x import f``
has to be replaced in the caller's module: ``graphbalance.driver`` calls the
cores through its own bindings, while the cores call their helpers through
their own module globals, and the oracle reaches preprocessing through the
module object.  Each wrapper records a ``perf_counter_ns`` span with its parent
span and the operation it belongs to; a call made while a span of the same
name is open (recursion) joins that span.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns


def _found(result) -> bool:
    return result is not None


def _declared(result) -> bool:
    return hasattr(result, "kind")  # a Declaration, not a GuessContext


# (module, attribute, span name, hit predicate, record only inside this span)
LAYERS = (
    ("graphbalance.driver", "solve", "driver.solve", None, None),
    ("graphbalance.driver", "validate", "instance.validate", None, None),
    ("graphbalance.driver", "reduce_instance", "preprocess.reduce", _declared, None),
    ("graphbalance.driver", "run_general", "general.run", None, None),
    ("graphbalance.general", "explore", "general.explore", None, None),
    ("graphbalance.general", "forced_orientations", "general.forced", None, None),
    ("graphbalance.general", "find_push_general", "general.find_push", _found, None),
    ("graphbalance.driver", "run_two_valued", "two_valued.run", None, None),
    ("graphbalance.two_valued", "label_levels", "two_valued.label_levels", None, None),
    ("graphbalance.two_valued", "find_push", "two_valued.find_push", _found, None),
    ("graphbalance.driver", "run_relief", "relief.run", None, None),
    ("graphbalance.driver", "run_matching", "matching.run", None, None),
    ("graphbalance.oracle", "verify_solution", "driver.verify_solution", None, "driver.solve"),
    ("graphbalance.oracle", "verify_certificate", "oracle.verify_certificate", None, None),
    ("graphbalance.preprocess", "min_edge_load_into", "preprocess.min_edge_load_into", None, None),
    ("graphbalance.instance", "parse_instance", "instance.parse", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.hits: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._patched: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, hit, within in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, hit, within))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, original, name, hit, within):
        spans, stack, open_names, hits = self.spans, self._stack, self._open, self.hits

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if name in open_names or (within is not None and within not in open_names):
                return original(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            open_names.add(name)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                open_names.discard(name)
                spans[index] = (name, start, end, parent, self.op)
            if hit is not None and hit(result):
                hits[name] += 1
            return result

        return wrapper

    def totals(self) -> tuple[Counter, Counter]:
        """Summed nanoseconds and call counts per span name."""
        ns, calls = Counter(), Counter()
        for name, start, end, _, _ in self.spans:
            ns[name] += end - start
            calls[name] += 1
        return ns, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
