"""Layer tracing from outside the program.

Each traced public function is replaced by a wrapper at every binding
the program calls it through: the attribute of the defining module, the
attribute of every module that imported it by name, and the entries of
the ``CHECKERS`` and ``BUILDERS`` tables.  A spanned wrapper times the
call; its self time is its duration minus the time its child spans
cover, summed online per function.  A counted wrapper only counts
calls, for functions called too often to time (``Language.sat`` runs
once per formula node and per cache hit).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from verdicts import listing_count

# (module, attribute path, mode); mode "span" times the call, "count"
# only counts it.  A target is named by its module and function; a
# method by its module and bare name, a constructor as ``Class.init``.
TARGETS = [
    ("logic", "Language.__init__", "span"),
    ("logic", "Language.parse", "span"),
    ("logic", "Language.sat", "count"),
    ("logic", "Language.formula_from_valuations", "span"),
    ("assessment", "Assessment.__init__", "span"),
    ("assessment", "check_nt", "span"),
    ("assessment", "check_e", "span"),
    ("assessment", "check_i", "span"),
    ("assessment", "check_ie", "span"),
    ("assessment", "check_a", "span"),
    ("assessment", "check_s_i", "span"),
    ("model", "SubjectiveModel.__init__", "span"),
    ("model", "classify_truth", "span"),
    ("model", "represents", "span"),
    ("model", "mobius", "span"),
    ("model", "choquet", "span"),
    ("construct", "build_product_model", "span"),
    ("construct", "build_canonical_sound", "span"),
    ("construct", "build_interval_additive", "span"),
    ("construct", "build_additive_sound", "span"),
    ("construct", "build_belief_lift", "span"),
    ("identify", "understood_implications", "span"),
    ("identify", "largest_subtheory", "span"),
    ("identify", "subtheory_via_certainty", "span"),
    ("games", "rationalizable", "span"),
    ("games", "strategy_events", "span"),
    ("games", "layer_decompose", "span"),
    ("games", "transported_vector", "span"),
    ("_simplex", "solve_matrix_game", "span"),
    ("_simplex", "maximize", "span"),
    ("files", "load_session", "span"),
]

BUILDERS = {
    "construct.build_product_model", "construct.build_canonical_sound",
    "construct.build_interval_additive", "construct.build_additive_sound",
    "construct.build_belief_lift",
}


class TraceError(RuntimeError):
    pass


def _observe(tracer: "Tracer", name: str, args, result, error):
    """Counts read from a traced call's arguments and result."""
    n = tracer.counts
    if name == "assessment.Assessment.init" and error is None:
        n["assessment.universe_size"] += len(args[0].formulas)
        n["assessment.instances"] += 1
    elif name.startswith("assessment.check_") and error is None:
        n["assessment.violations"] += listing_count(result.violations)
        if name == "assessment.check_ie":
            n["assessment.ie_untestable"] += listing_count(result.untestable)
    elif name == "model.SubjectiveModel.init" and error is None:
        n["model.states"] += len(args[0].states)
        n["model.instances"] += 1
    elif name in BUILDERS:
        n["construct.builds"] += 1
        if error is not None:
            n["construct.refused"] += 1
    elif name == "games.rationalizable" and error is None:
        k = len(result.coordinates)
        if k:
            n["games.coordinates"] += k
            n["games.maximal_states"] += 1 << k
            n["games.general"] += 1
        if result.rationalizable:
            n["games.rationalizable"] += 1
            n["games.verified"] += bool(result.verified)
    elif name == "_simplex.solve_matrix_game":
        matrix = args[0]
        n["_simplex.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
    elif name == "_simplex.maximize":
        c = args[0]
        rows = sum(len(a or []) for a in args[1:4:2])  # a_ub and a_eq
        n["_simplex.cells"] += rows * len(c)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # time covered by child spans, per open span
        self._swaps: list[tuple] = []  # (container, key, original, wrapper, how)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                end = clock()
                duration = end - start
                self_s[name] += duration - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += duration
                _observe(self, name, args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span (one per benchmark op)."""
        return self._span(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self, package: str = "credence"):
        """Find every binding of every target; raise if a target is gone."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for mod_name, path, mode in TARGETS:
            *outer, attr = path.split(".")
            span = f"{mod_name}.{outer[0]}.init" if attr == "__init__" else f"{mod_name}.{attr}"
            module = modules.get(f"{package}.{mod_name}")
            if module is None:
                raise TraceError(f"module {package}.{mod_name} is not loaded")
            owner = module
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                raise TraceError(f"{package}.{mod_name}.{path} no longer exists")
            wrapper = (self._span if mode == "span" else self._counter)(span, original)
            if outer:
                self._swaps.append((owner, attr, original, wrapper, "attr"))
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, key, original, wrapper, "attr"))
                    elif isinstance(value, dict) and key.isupper():
                        for k, v in value.items():
                            if v is original:
                                self._swaps.append((value, k, original, wrapper, "item"))

    def _bind(self, wrapped: bool):
        for container, key, original, wrapper, how in self._swaps:
            value = wrapper if wrapped else original
            if how == "attr":
                setattr(container, key, value)
            else:
                container[key] = value

    def enable(self):
        self._bind(True)

    def disable(self):
        self._bind(False)
