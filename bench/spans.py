"""Per-layer tracing of the dinv package from outside it.

A `Tracer` wraps the public functions and methods of each layer module
(`dinv.poly`, `dinv.linalg`, ...) and rebinds every name under which a
`dinv.*` module holds one of them, so calls made inside the package are
seen as well as calls made by the benchmark.  `restore()` puts the
originals back.  Nothing in the package itself changes.

Each traced call records a span (name, start, end, parent) in memory.  A
span's self time is its duration minus the time covered by its child
spans and by the tracer's own bookkeeping inside it.  Two kinds of call
are deliberately not spans:

  * calls from the polynomial kernel into itself (`apply_at` calling
    `diff_multi`, `__pow__` calling `__mul__`, ...): a span marks an
    entry into the kernel from another layer, so that each kernel entry
    point carries its full cost;
  * the accessors `Polynomial.coeff` and `ParamTable.get`, which run in
    the innermost loops of the builders and the matrix set-up, where a
    span would cost more than the call.  Their time counts as their
    caller's.

A folded call still counts in `calls`; the two accessors are not wrapped
at all.  Only calls made while the tracer is active are recorded.
Generators (the composition enumeration) are drained inside their span,
so their whole cost is theirs.

Counters kept next to the spans: polynomials constructed, their largest
term count and coefficient bit length, compositions enumerated and how
many of them have a nonzero coefficient product, and the cells (rows x
columns) of every matrix passed to `rref`.  Whether a composition's
product is nonzero is judged from the inputs of its caller (see
ZERO_SLOTS); a composition from a caller not listed there counts as
useful.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("poly", "compositions", "linalg", "subspace", "identities", "discretize", "cli")

# Calls from a layer into itself that are folded into the outer span.
FOLDED = {"poly"}

UNTRACED = {("Polynomial", "coeff"), ("ParamTable", "get")}

# Operators of the polynomial kernel, traced like its public methods.
DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__", "__eq__"}


def _zero_slots_general(spec, m):
    # enumerate_weight_solutions flattens the count grid column-major:
    # slot j*d + i holds the count of coefficient c[i][j].
    return [spec.c[i][j] == 0 for j in range(spec.n) for i in range(spec.d)]


def _zero_slots_explicit(params):
    # build_explicit: weight 1 for x1, then one slot per (variable s,
    # degree j), s outer, with coefficient a[j, s].
    slots = [(s, j) for s in range(2, params.d + 1) for j in range(2, params.n + 1)]
    return [False] + [(j, s) not in params.a for (s, j) in slots]


def _zero_slots_falling(r, i, cap):
    # falling_factorial_sum: slot t (1-based) has base ff(i, t), zero for t > i.
    return [t > i for t in range(1, cap + 1)]


# Callers of the composition enumeration, with the rule that marks which
# of the slots they pass carry a zero coefficient.
ZERO_SLOTS = {
    "subspace.enumerate_weight_solutions": _zero_slots_general,
    "subspace.build_explicit": _zero_slots_explicit,
    "identities.falling_factorial_sum": _zero_slots_falling,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, float, float, int, float]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.constructed = 0
        self.terms_max = 0
        self.coef_bits_max = 0
        self.enumerated = 0
        self.useful = 0
        self.rref_cells = 0
        self._stack: list[int] = []  # open span indices
        self._layers: list[str] = [""]  # layer of each open span
        self._open_excluded: list[float] = []
        self._excluded_top = 0.0
        self._masks: list[list[bool] | None] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    # -- bookkeeping ---------------------------------------------------------

    def _exclude(self, dt: float) -> None:
        if self._open_excluded:
            self._open_excluded[-1] += dt
        else:
            self._excluded_top += dt

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _note_poly(self, p) -> None:
        if not self.active:
            return
        self.constructed += 1
        t = time.perf_counter()
        terms = getattr(p, "terms", None)
        if terms:
            if len(terms) > self.terms_max:
                self.terms_max = len(terms)
            for c in terms.values():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.coef_bits_max:
                    self.coef_bits_max = bits
        self._exclude(time.perf_counter() - t)

    def _count_useful(self, items, weights) -> None:
        t = time.perf_counter()
        self.enumerated += len(items)
        mask = self._masks[-1] if self._masks else None
        if mask is None or len(mask) != len(weights):
            self.useful += len(items)
        else:
            zero = [k for k, z in enumerate(mask) if z]
            self.useful += sum(1 for tup in items if not any(tup[k] for k in zero))
        self._exclude(time.perf_counter() - t)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        tr = self
        name_id = self._name_id(name)
        folded = layer in FOLDED
        generator = inspect.isgeneratorfunction(fn)
        zero_slots = ZERO_SLOTS.get(name)
        is_rref = name == "linalg.rref"

        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            if folded and tr._layers[-1] == layer:
                return fn(*args, **kwargs)
            if zero_slots is not None:
                t = time.perf_counter()
                try:
                    mask = zero_slots(*args, **kwargs)
                except (AttributeError, IndexError, TypeError):
                    mask = None
                tr._masks.append(mask)
                tr._exclude(time.perf_counter() - t)
            if is_rref and args:
                rows = args[0]
                tr.rref_cells += len(rows) * (len(rows[0]) if len(rows) else 0)
            idx = len(tr.spans)
            tr.spans.append(None)
            parent = tr._stack[-1] if tr._stack else -1
            tr._stack.append(idx)
            tr._layers.append(layer)
            tr._open_excluded.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                t1 = time.perf_counter()
                tr._stack.pop()
                tr._layers.pop()
                excluded = tr._open_excluded.pop()
                tr.spans[idx] = (name_id, t0, t1, parent, excluded)
                if zero_slots is not None:
                    tr._masks.pop()
            if generator:
                tr._count_useful(result, args[1] if len(args) > 1 else kwargs.get("weights", ()))
                return iter(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer module that is loaded; a layer or name that does
        not exist is skipped, so its metrics read zero."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"dinv.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # Rebind module-level names wherever a dinv module holds them.
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "dinv" or modname.startswith("dinv.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    self._patch(module, attr, wrapper)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if (cls.__name__, attr) in UNTRACED:
                continue
            if attr.startswith("_") and not (cls.__name__ == "Polynomial" and attr in DUNDERS):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, layer, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, layer, raw))
        if layer == "poly" and cls.__name__ == "Polynomial":
            init = cls.__init__
            tr = self

            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                tr._note_poly(obj)

            self._patch(cls, "__init__", counted_init)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float, float]:
        """Self time per span name, the summed duration of top-level spans,
        and the bookkeeping time spent outside any span."""
        covered = defaultdict(float)
        for name_id, t0, t1, parent, excluded in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        top = 0.0
        for idx, (name_id, t0, t1, parent, excluded) in enumerate(self.spans):
            dur = t1 - t0
            out[self.names[name_id]] += dur - covered[idx] - excluded
            if parent < 0:
                top += dur
        return dict(out), top, self._excluded_top

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for idx, (name_id, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(f"{idx}\t{self.names[name_id]}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
