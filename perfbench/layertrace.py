"""Outside-in layer tracer for one `hopf-calc` process.

`install()` wraps, from outside, the public functions and the public and
special methods that the `hopfcalc` modules define, and then rebinds every reference to the
originals that it can reach: module globals (so names imported with
`from ... import ...`, such as `format_index` in five modules, are
covered), aliases inside a class (`CycScalar.__rmul__ = __mul__`), module
aliases such as `E = FreeVector.basis`, and functions held in module-level
dicts and lists such as the `EXAMPLES` registry.  It then walks the same
places again and raises if any original is still reachable, because a
missed binding silently drops calls.  Nothing under `src/` is edited.

Each module is one layer.  A wrapped call made from another layer opens a
span; a layer's self time is the time of its spans minus the time of the
nested spans of other layers.  Callbacks (closures and lambdas) handed to
a `hopfcalc` constructor, such as a `LinOp` action or a `Measure` action,
and the test passed to `CheckReport.sweep`, are charged to the layer whose
module defined them.  Counters are plain integers, so they repeat exactly
from run to run; times do not.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter

LAYERS = ("scalars", "linalg", "hopf", "fodc", "crossed", "crossed_calc", "qpb", "examples", "report", "cli")
LAYER_OF = {f"hopfcalc.{name}": name for name in LAYERS}

# private module functions that are wrapped as well: the internal scalar
# constructor and the five witness formatters
WITNESS_HELPERS = frozenset({"_w", "_pair_witness"})
PRIVATE_WRAPPED = WITNESS_HELPERS | {"_make"}

# hot value types: their constructors take no callbacks
NO_CALLBACKS = frozenset({"CycScalar", "FreeVector"})

# (module, qualified name) -> counter; counted on every call
COUNTED = {
    ("scalars", "CycScalar.__pow__"): "scalars.pow",
    ("scalars", "CycScalar.to_order"): "scalars.to_order",
    ("scalars", "CycScalar.__init__"): "scalars.construct",
    ("scalars", "_make"): "scalars.construct",
    ("linalg", "format_index"): "report.witness_formats",
    ("linalg", "FreeVector.to_text"): "report.witness_formats",
    ("scalars", "CycScalar.to_text"): "report.witness_formats",
    ("linalg", "Subspace.contains"): "linalg.reduces",
    ("linalg", "Subspace.reduce"): "linalg.reduces",
    ("linalg", "TrackedSpan.express"): "linalg.reduces",
    ("linalg", "QuotientSpace.project"): "linalg.reduces",
    ("linalg", "LinearSolver.solve"): "linalg.reduces",
    ("linalg", "vector_ops"): "linalg.vector_ops",
}
for _name in ("__add__", "__sub__", "__neg__", "scale", "tensor", "map_indices"):
    COUNTED[("linalg", f"FreeVector.{_name}")] = "linalg.vector_ops"
STRUCT_MAPS = {
    "hopf": ("hopf.struct_calls", {"mult_vec", "comul_vec", "sweedler", "sweedler_vec", "coaction_vec"}),
    "fodc": ("fodc.act_calls", {"left_act_vec", "right_act_vec", "rho_vec", "lambda_vec"}),
}

# (module, qualified name) -> inclusive timer of the outermost call
TIMED = {
    ("crossed_calc", "de_rham_cohomology"): "crossed_calc.derham_s",
    ("hopf", "parse_structure_constants"): "hopf.parse_s",
    ("report", "render_json"): "report.render_s",
}

# run only callbacks of other layers; they open no span of their own
PASS_THROUGH = frozenset({("report", "CheckReport.sweep")})


def _now_ns() -> int:
    return time.perf_counter_ns()


def _shape(x):
    """(order, number of nonzero coefficients, is +-1) of a scalar operand."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:  # int or Fraction operand, embedded at order 1
        return 1, 1 if x else 0, x in (1, -1)
    # Fraction numerators, read from the slot to keep the census cheap
    nums = [getattr(c, "_numerator", c) for c in coeffs]
    nonzero = len(nums) - nums.count(0)
    unit = nonzero == 1 and nums[0] in (1, -1) and getattr(coeffs[0], "_denominator", 1) == 1
    return x.order, nonzero, unit


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.max_rank = 0
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.timers_ns = Counter()
        self._timer_depth = Counter()
        self.stack = [["top", _now_ns(), 0]]
        self.replaced = {}  # id(original) -> (original, wrapper)

    # -- wrappers -----------------------------------------------------

    def span(self, fn, layer, counter=None):
        stack, self_ns, counts = self.stack, self.self_ns, self.counts

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, _now_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now_ns() - frame[1]
                stack.pop()
                self_ns[layer] += elapsed - frame[2]
                stack[-1][2] += elapsed

        return functools.update_wrapper(wrapper, fn)

    def timer(self, fn, key):
        timers, depth = self.timers_ns, self._timer_depth

        def wrapper(*args, **kwargs):
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] = 1
            start = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] += _now_ns() - start
                depth[key] = 0

        return functools.update_wrapper(wrapper, fn)

    def callback(self, fn):
        """Span for a closure or lambda defined in a hopfcalc module."""
        if (
            isinstance(fn, types.FunctionType)
            and fn.__module__ in LAYER_OF
            and "__wrapped__" not in vars(fn)
        ):
            return self.span(fn, LAYER_OF[fn.__module__])
        return fn

    def with_callbacks(self, init):
        callback = self.callback

        def wrapper(obj, *args, **kwargs):
            args = [callback(a) for a in args]
            kwargs = {k: callback(v) for k, v in kwargs.items()}
            return init(obj, *args, **kwargs)

        return functools.update_wrapper(wrapper, init)

    def special(self, layer, qualname, fn):
        """Counters that need the arguments or the result of a call."""
        counts = self.counts
        if (layer, qualname) == ("scalars", "CycScalar.__mul__"):

            def mul(a, b):
                order_a, nz_a, unit_a = _shape(a)
                order_b, nz_b, unit_b = _shape(b)
                counts["scalars.mul"] += 1
                counts["scalars.mul_unit"] += unit_a and unit_b
                counts["scalars.mul_monomial"] += nz_a == 1 and nz_b == 1
                counts["scalars.mul_cross_order"] += order_a != order_b
                return fn(a, b)

            return functools.update_wrapper(mul, fn)
        if (layer, qualname) == ("scalars", "CycScalar.inverse"):

            def inverse(a):
                counts["scalars.inverse"] += 1
                counts["scalars.inverse_monomial"] += _shape(a)[1] == 1
                return fn(a)

            return functools.update_wrapper(inverse, fn)
        if (layer, qualname) == ("linalg", "LinOp.columns"):

            def columns(op, domain):
                key = tuple(domain)
                counts["linalg.columns_calls"] += 1
                counts["linalg.columns_hits"] += key in op._matrix_cache
                return fn(op, key)

            return functools.update_wrapper(columns, fn)
        rank_of = {
            "_Echelon.insert": lambda obj: obj.rows,
            "TrackedSpan.add": lambda obj: obj._ech.rows,
        }
        if layer == "linalg" and qualname in rank_of:
            rows_of = rank_of[qualname]

            def insert(obj, *args, **kwargs):
                counts["linalg.inserts"] += 1
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    self.max_rank = max(self.max_rank, len(rows_of(obj)))

            return functools.update_wrapper(insert, fn)
        if (layer, qualname) == ("linalg", "LinearSolver.__init__"):

            def solver_init(obj, f, domain):
                domain = list(domain)
                counts["linalg.inserts"] += len(domain)
                counts["linalg.solver_columns"] += len(domain)
                fn(obj, f, domain)
                self.max_rank = max(self.max_rank, len(obj._ech.rows))

            return functools.update_wrapper(solver_init, fn)
        if (layer, qualname) == ("linalg", "QuotientSpace.__init__"):

            def quotient_init(obj, space_vectors, *args, **kwargs):
                space_vectors = list(space_vectors)
                counts["linalg.inserts"] += len(space_vectors)
                fn(obj, space_vectors, *args, **kwargs)
                self.max_rank = max(self.max_rank, len(obj._rep_ech.rows))

            return functools.update_wrapper(quotient_init, fn)
        if (layer, qualname) == ("report", "CheckReport.add"):

            def add(report, identity, status, witness=None):
                counts["report.witnesses"] += witness is not None
                return fn(report, identity, status, witness)

            return functools.update_wrapper(add, fn)
        if (layer, qualname) == ("report", "CheckReport.sweep"):
            callback = self.callback

            def sweep(report, identity, items, test, *args, **kwargs):
                test = callback(test)

                def counted(item):
                    ok, witness = test(item)
                    # a failing witness is counted by CheckReport.add
                    counts["report.witnesses"] += 1 if ok and witness is not None else 0
                    return ok, witness

                return fn(report, identity, items, counted, *args, **kwargs)

            return functools.update_wrapper(sweep, fn)
        return fn

    def wrap(self, layer, qualname, fn):
        out = fn
        if (layer, qualname) not in PASS_THROUGH:
            counter = COUNTED.get((layer, qualname))
            struct = STRUCT_MAPS.get(layer)
            if counter is None and struct is not None and qualname.rpartition(".")[2] in struct[1]:
                counter = struct[0]
            out = self.span(out, layer, counter)
        if (layer, qualname) in TIMED:
            out = self.timer(out, TIMED[(layer, qualname)])
        if layer == "examples" and qualname.endswith("_instance"):
            out = self.timer(out, "examples.build_s")
        if qualname.endswith(".__init__") and qualname.split(".")[0] not in NO_CALLBACKS:
            out = self.with_callbacks(out)
        return self.special(layer, qualname, out)

    # -- installation -------------------------------------------------

    def _wrap_function(self, layer, fn):
        known = self.replaced.get(id(fn))
        if known is not None:
            return known[1]
        # the defining name, so that an alias such as __rmul__ is the same entry
        new = self.wrap(layer, fn.__qualname__, fn)
        self.replaced[id(fn)] = (fn, new)
        return new

    def _wrap_class(self, layer, cls):
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and not name.endswith("__"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                new = type(value)(self._wrap_function(layer, value.__func__))
            elif isinstance(value, property):
                new = value.getter(self._wrap_function(layer, value.fget))
            elif isinstance(value, types.FunctionType):
                new = self._wrap_function(layer, value)
            else:
                continue
            setattr(cls, name, new)

    def install_all(self, modules):
        for module in modules:
            layer = LAYER_OF.get(module.__name__)
            if layer is None:
                continue
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value)
                elif _is_function(value) and (not name.startswith("_") or name in PRIVATE_WRAPPED):
                    self._wrap_function(layer, value)
        for module in modules:
            _rebind(vars(module), self.replaced)
        examples = sys.modules["hopfcalc.examples"]
        for spec in examples.EXAMPLES.values():
            spec["suites"] = self._timed_suites(spec["suites"])
        leftovers = _find_originals(modules, self.replaced)
        if leftovers:
            raise RuntimeError("tracer left unwrapped bindings: " + ", ".join(sorted(leftovers)))

    def _timed_suites(self, factory):
        def suites(params):
            return [
                (name, self.timer(self.span(thunk, "examples"), f"suite.{name}_s"))
                for name, thunk in factory(params)
            ]

        return functools.update_wrapper(suites, factory)

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        counts["linalg.max_rank"] = self.max_rank
        return {
            "counts": counts,
            "self_ns": dict(self.self_ns),
            "timers_ns": dict(self.timers_ns),
        }


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType) or hasattr(value, "cache_info")


def _rebind(container, replaced, depth=0):
    """Replace originals by their wrappers in dicts and lists, recursively."""
    items = container.items() if isinstance(container, dict) else enumerate(container)
    for key, value in list(items):
        hit = replaced.get(id(value))
        if hit is not None and hit[0] is value:
            container[key] = hit[1]
        elif depth < 4 and isinstance(value, (dict, list)):
            _rebind(value, replaced, depth + 1)


def _find_originals(modules, replaced) -> set:
    found = set()

    def visit(value, where, depth=0):
        hit = replaced.get(id(value))
        if hit is not None and hit[0] is value:
            found.add(where)
        elif isinstance(value, (staticmethod, classmethod)):
            visit(value.__func__, where, depth)
        elif isinstance(value, property):
            visit(value.fget, where, depth)
        elif depth < 4 and isinstance(value, dict):
            for key, item in value.items():
                visit(item, f"{where}[{key!r}]", depth + 1)
        elif depth < 4 and isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                visit(item, f"{where}[{i}]", depth + 1)

    for module in modules:
        for name, value in vars(module).items():
            where = f"{module.__name__}.{name}"
            visit(value, where)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, item in vars(value).items():
                    visit(item, f"{where}.{attr}")
    return found


def install() -> Tracer:
    """Import every hopfcalc module, wrap it and return the live tracer."""
    # examples imports some layers lazily, inside its suite factories; a
    # module first imported after install() would run unwrapped
    for layer in LAYERS:
        importlib.import_module(f"hopfcalc.{layer}")
    modules = [m for name, m in sorted(sys.modules.items()) if name == "hopfcalc" or name.startswith("hopfcalc.")]
    tracer = Tracer()
    tracer.install_all(modules)
    return tracer
