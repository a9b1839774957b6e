"""Per-layer spans recorded from outside the program.

``Tracer`` replaces each public function of the kreps layer modules, at
every module binding that holds it, by a wrapper that records a span,
and puts the originals back when it is closed.  The program's files are
not changed.  Spans of one report are folded into a call tree keyed by
the path of function names, so a report's tree stays small however many
calls it makes.  A layer's self time is the time of its spans minus the
time of the spans they contain.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("braids", "laurent", "intlinalg", "presentations", "colorings", "metabelian", "cli")

# Helpers called once per candidate inside a census loop, which spans
# would slow many-fold; their time counts as self time of their caller,
# which is in the same layer.
UNWRAPPED = {
    "colorings": {"dihedral_transport", "dihedral_op", "generated_subgroup"},
}

# (layer, function) -> (counter, amount).  _ON_RESULT takes the amount
# from a call's arguments and result; _ON_ENTRY from its arguments alone,
# before the call, so that calls which raise count too.
_ON_RESULT = {
    ("braids", "artin_act"): ("braids.free_letters", lambda args, out: len(out.letters)),
    ("presentations", "closure_presentation"): (
        "presentations.relator_letters", lambda args, out: sum(len(r.letters) for r in out.relators)),
    ("presentations", "torus_covering_presentation"): (
        "presentations.relator_letters", lambda args, out: sum(len(r.letters) for r in out.relators)),
    ("intlinalg", "enumerate_solutions_mod"): ("intlinalg.enumerated_solutions", lambda args, out: len(out)),
    ("metabelian", "enumerate_rep_classes"): ("metabelian.classes", lambda args, out: len(out)),
}
_ON_ENTRY = {
    ("colorings", "surface_coloring_census"): (
        "colorings.transport_candidates", lambda args: args[2] ** args[0].strands),
}
CALL_COUNTERS = (
    "braids.braids_commute",
    "presentations.alexander_matrix",
    "laurent.laurent_det",
    "laurent.poly_gcd",
    "intlinalg.smith_normal_form",
)
# every counter with its unit; the caller sets cli.output_bytes
COUNTERS = {f"{name}.calls": "count" for name in CALL_COUNTERS} | {
    "braids.free_letters": "letters",
    "presentations.relator_letters": "letters",
    "intlinalg.enumerated_solutions": "count",
    "colorings.transport_candidates": "count",
    "colorings.cap_exceeded": "count",
    "metabelian.classes": "count",
    "cli.output_bytes": "bytes",
}


class _Node:
    __slots__ = ("name", "layer", "calls", "total", "self", "children")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.children: dict[str, _Node] = {}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self,
            "children": [child.as_dict() for child in self.children.values()],
        }

    def layer_self(self, out: dict[str, float]) -> None:
        if self.layer:
            out[self.layer] = out.get(self.layer, 0.0) + self.self
        for child in self.children.values():
            child.layer_self(out)


class Tracer:
    """Wraps the layer functions of an imported kreps package.

    Use as a context manager; ``report()`` brackets one report and
    returns its span tree, self time per layer and counters.
    """

    def __init__(self, package: str = "kreps"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._counts: dict[str, int] = {}
        self._cap_errors: list[BaseException] = []

    def __enter__(self) -> "Tracer":
        targets = self._targets()
        for module_name, module in list(sys.modules.items()):
            if module_name != self.package and not module_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._replace(module, attr, value, targets[id(value)])
        matrix = sys.modules[f"{self.package}.laurent"].LaurentMatrix
        self._replace(matrix, "__matmul__", matrix.__dict__["__matmul__"],
                      self._wrap(matrix.__dict__["__matmul__"], "laurent", "LaurentMatrix.__matmul__"))
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put every original function back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _targets(self) -> dict[int, object]:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            skip = UNWRAPPED.get(layer, set())
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in skip):
                    targets[id(fn)] = self._wrap(fn, layer, name)
        return targets

    def _replace(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        counts = self._counts
        key = f"{layer}.{name}"
        count_calls = key in CALL_COUNTERS
        on_entry = _ON_ENTRY.get((layer, name))
        on_result = _ON_RESULT.get((layer, name))
        cap_errors = self._cap_errors
        cap_type = sys.modules[f"{self.package}.intlinalg"].EnumerationCapExceeded
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            node = parent[0].children.get(key)
            if node is None:
                node = parent[0].children[key] = _Node(key, layer)
            if count_calls:
                counts[key + ".calls"] += 1
            if on_entry is not None:
                counts[on_entry[0]] += on_entry[1](args)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except cap_type as exc:
                if layer == "colorings" and not any(exc is seen for seen in cap_errors):
                    cap_errors.append(exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                node.self += elapsed - frame[1]
                parent[1] += elapsed
            if on_result is not None:
                counts[on_result[0]] += on_result[1](args, result)
            return result

        return wrapper

    def report(self) -> "_Report":
        return _Report(self)


class _Report:
    """Context for one report: spans and counters recorded inside it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.root = _Node("report", "")
        self.counts: dict[str, int] = {}
        self.layer_self: dict[str, float] = {}

    def __enter__(self) -> "_Report":
        t = self.tracer
        t._counts.clear()
        t._counts.update(dict.fromkeys(COUNTERS, 0))
        t._cap_errors.clear()
        t._stack.append([self.root, 0.0])
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        self.root.calls = 1
        self.root.total = time.perf_counter() - self._start
        self.root.self = self.root.total - t._stack.pop()[1]
        t._counts["colorings.cap_exceeded"] = len(t._cap_errors)
        t._cap_errors.clear()
        self.counts = dict(t._counts)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.root.layer_self(self.layer_self)
