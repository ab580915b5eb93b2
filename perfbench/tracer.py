"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every module namespace (and module-level dict) that binds it, the
benchmark's own modules included: ``from .linalg import eig3`` copies the
binding, so patching ``linalg`` alone would miss the calls made from
``spectral``.  It also counts
``Mat3`` constructions by wrapping ``Mat3.__post_init__``.

Spans stay in memory as parallel lists and are reduced at the end: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer module -> public functions whose calls and self time are recorded
TRACED = {
    "linalg": ("eig3", "inv3", "solve_cubic", "kernel_vector"),
    "spectral": ("normalize_pair", "spectral_data", "general_position_report",
                 "validate_spectral_data"),
    "reconstruct": ("reconstruct", "canonical_form"),
    "gl2z": ("swap_spectral", "invert_spectral", "shear_spectral",
             "act_on_pair", "verify_commutation", "act_word_spectral"),
    "cubic": ("chord_swap_divisor",),
    "randgen": ("random_pair",),
    "jsonio": ("doc_to_pair", "doc_to_spectral", "spectral_to_doc"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _namespaces():
    """Every dict that can hold a binding: the globals of every loaded
    module, the benchmark's own included, and the dicts stored in them (such
    as gl2z's generator dispatch table)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        yield namespace
        for value in list(namespace.values()):
            if isinstance(value, dict):
                yield value


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.op = -1
        self.mat3_new = 0
        self.mat3_new_by_op: dict[int, int] = {}
        # parallel span columns: name index, op, start ns, end ns, parent
        self.names: list[int] = []
        self.ops: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, object, object, object]] = []
        self._post_init = None

    def begin_op(self, op: int) -> None:
        self.op = op

    def _wrap(self, index: int, fn):
        names, ops, starts = self.names, self.ops, self.starts
        ends, parents, stack = self.ends, self.parents, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(index)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import importlib

        from spectral_pair.linalg import Mat3

        originals = {}
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"spectral_pair.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                originals[id(original)] = (original,
                                           self._wrap(SPAN_NAMES.index(name),
                                                      original))

        def bindings():
            for namespace in _namespaces():
                for key, value in list(namespace.items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        yield namespace, key, hit

        for namespace, key, (original, wrapper) in list(bindings()):
            namespace[key] = wrapper
            self._patches.append((namespace, key, original, wrapper))
        left = [key for _, key, _ in bindings()]
        if left:
            raise RuntimeError(f"unpatched bindings remain: {left}")

        post_init = Mat3.__post_init__

        def counting_post_init(mat):
            self.mat3_new += 1
            post_init(mat)

        self._post_init = post_init
        Mat3.__post_init__ = counting_post_init

    def uninstall(self) -> None:
        from spectral_pair.linalg import Mat3

        for namespace, key, original, wrapper in reversed(self._patches):
            if namespace.get(key) is wrapper:
                namespace[key] = original
        self._patches.clear()
        if self._post_init is not None:
            Mat3.__post_init__ = self._post_init
            self._post_init = None

    def end_op(self, op: int) -> None:
        self.mat3_new_by_op[op] = self.mat3_new

    def merge(self, doc: dict, op: int) -> None:
        """Append the spans a traced subprocess wrote for one op."""
        base = len(self.names)
        for name, start, end, parent in doc["spans"]:
            self.names.append(name)
            self.ops.append(op)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + base if parent >= 0 else -1)
        self.mat3_new += doc["mat3_new"]

    def dump(self) -> dict:
        return {"spans": [list(row) for row in zip(self.names, self.starts,
                                                   self.ends, self.parents)],
                "mat3_new": self.mat3_new}

    def write_spans(self, path) -> None:
        """One JSON line per span: name, op, start and end in ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.ops, self.starts, self.ends,
                           self.parents):
                fh.write(json.dumps([SPAN_NAMES[row[0]], *row[1:]]) + "\n")

    def summary(self, count_ops: int, traced_ops: int) -> dict[str, dict]:
        """Per function: calls per op over ops [0, count_ops), which repeat
        exactly for a seed, and self ms per op over all traced ops."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        for i in range(n):
            name = self.names[i]
            if 0 <= self.ops[i] < count_ops:
                calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - child[i]
        return {
            name: {"calls_per_op": calls[k] / count_ops,
                   "self_ms_per_op": self_ns[k] / 1e6 / traced_ops}
            for k, name in enumerate(SPAN_NAMES)}
