"""Outside-in tracer for ncfactor: spans and counts from wrapped functions.

`Tracer.install` wraps, from outside the program, the public functions
of every ncfactor module and the public methods of its classes.  Each
call becomes a span named `<module>.<function>` (or
`<module>.<Class>.<method>`) that records start, end, parent span and
the id of the benchmark op it ran under.  A module is a layer; a layer's
self time is the time of its spans minus the time of the child spans
they contain.  Counts are taken from the wrapped calls' arguments and
results, so they are exact and repeat exactly for the same inputs.

The field layer gets counts only: a span around every scalar operation
would cost more than the operation it times.  `uninstall` restores
every binding, so untraced runs execute the unmodified program.
"""

from __future__ import annotations

import inspect
import time
from fractions import Fraction

SPAN_LAYERS = ("factoring", "ncpoly", "matrix", "circuits", "embedding", "words",
               "automaton", "linmat", "quaternion", "cli")

# Called per term, word or entry inside the hot loops of other layers;
# a span on each call would dominate the traced time of those loops.
HOT = frozenset({
    "ncpoly.word_key", "ncpoly.imbalance", "ncpoly.bar",
    "ncpoly.NcPoly.coeff", "ncpoly.NcPoly.is_zero", "ncpoly.NcPoly.leading_monomial",
    "ncpoly.NcPoly.leading_coeff", "ncpoly.NcPoly.support",
    "ncpoly.Alphabet.word_to_str", "ncpoly.Alphabet.word_from_str",
    "ncpoly.Alphabet.nvars", "ncpoly.Alphabet.bivariate", "ncpoly.Alphabet.spec",
    "matrix.Matrix.col", "matrix.Matrix.is_zero", "matrix.Matrix.identity",
    "matrix.Matrix.zeros", "matrix.Matrix.from_cols", "matrix.Matrix.scale",
    "matrix.Matrix.transpose", "matrix.Matrix.submatrix",
    "matrix.upoly_trim", "matrix.upoly_add", "matrix.upoly_mul", "matrix.upoly_eval",
    "words.is_minimally_balanced",
    "circuits.CircuitBuilder.var", "circuits.CircuitBuilder.const",
    "circuits.CircuitBuilder.add", "circuits.CircuitBuilder.mul",
    "automaton.SubstAutomaton.step", "automaton.TransitionMatrices.for_letter",
})

# Dunder methods that do a layer's real work and carry its counts.
SPANNED_DUNDERS = frozenset({"ncpoly.NcPoly.__mul__", "matrix.Matrix.__mul__",
                             "circuits.Circuit.__init__"})

FP_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "inverse")

COUNT_METRICS = (
    "factoring.left_factors_calls", "factoring.assignments", "factoring.found",
    "factoring.budget_errors",
    "ncpoly.mul_calls", "ncpoly.divide_calls", "ncpoly.divide_hits",
    "fields.fp_ops", "fields.fp_objects", "fields.q_objects",
    "matrix.mul_calls", "matrix.mul_scalar_mults", "matrix.elim_calls",
    "matrix.inverse_calls",
    "circuits.evaluate_calls", "circuits.expand_calls", "circuits.expand_terms",
    "circuits.gates_built",
    "embedding.phi_calls", "embedding.image_size",
    "words.enumerate_calls", "words.words_out",
    "automaton.build_calls", "automaton.recover_calls", "automaton.recover_size_out",
    "automaton.bb_blocks", "automaton.bb_nonzero_blocks",
    "linmat.factor_3x3_calls", "linmat.verify_cert_calls", "linmat.eigen_candidates",
    "quaternion.zdiv_checks", "quaternion.hmul_calls",
    "cli.bytes_out",
)
PEAK_METRICS = ("factoring.budget_peak_frac", "automaton.states_max")


def _size(obj):
    """Size of a polynomial (terms), circuit (gates) or ABP (nodes + edges)."""
    terms = getattr(obj, "terms", None)
    if terms is not None:
        return len(terms)
    return getattr(obj, "size", 0)


class Tracer:
    """Spans and counts for one pass of ops; see the module docstring."""

    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNT_METRICS + PEAK_METRICS, 0)
        self._cells = {}
        self._undo = []
        self._hooks = {
            "factoring.left_factors": self._on_left_factors,
            "ncpoly.left_divide": self._on_divide,
            "ncpoly.right_divide": self._on_divide,
            "ncpoly.NcPoly.__mul__": self._counter("ncpoly.mul_calls"),
            "matrix.Matrix.__mul__": self._on_matrix_mul,
            "matrix.Matrix.rank": self._counter("matrix.elim_calls"),
            "matrix.Matrix.det": self._counter("matrix.elim_calls"),
            "matrix.Matrix.nullspace": self._counter("matrix.elim_calls"),
            "matrix.Matrix.inverse": self._on_inverse,
            "circuits.Circuit.evaluate": self._counter("circuits.evaluate_calls"),
            "circuits.Abp.evaluate": self._counter("circuits.evaluate_calls"),
            "circuits.Circuit.expand": self._on_expand,
            "circuits.Abp.expand": self._on_expand,
            "circuits.Circuit.__init__": self._on_circuit_init,
            "embedding.phi_poly": self._on_phi,
            "embedding.phi_circuit": self._on_phi,
            "embedding.phi_abp": self._on_phi,
            "embedding.phi_blackbox": self._on_phi,
            "words.enumerate_words": self._on_words,
            "automaton.build_automaton": self._on_build,
            "automaton.recover_circuit": self._on_recover,
            "automaton.recover_abp": self._on_recover,
            "automaton.recover_blackbox": self._on_recover,
            "linmat.factor_3x3": self._counter("linmat.factor_3x3_calls"),
            "linmat.verify_cert": self._counter("linmat.verify_cert_calls"),
            "linmat.common_eigenlines": self._on_eigenlines,
            "quaternion.is_zero_divisor": self._counter("quaternion.zdiv_checks"),
            "quaternion.hmul": self._counter("quaternion.hmul_calls"),
        }
        self._left_factors_budget = None
        self._divide_ids = set()

    # -- per-pass state ------------------------------------------------

    def reset(self):
        """Start a new pass: drop spans and zero every count."""
        self.spans.clear()
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0
        for cell in self._cells.values():
            cell[0] = 0

    def count_blocks(self, assignment, dim):
        """Nonzero dim x dim blocks among the matrices a black box receives."""
        if not self.active:
            return
        zero = assignment.field.zero
        for m in assignment.mats:
            rows = m.rows
            nblocks = len(rows) // dim
            for bi in range(nblocks):
                band = rows[bi * dim:(bi + 1) * dim]
                for bj in range(nblocks):
                    lo, hi = bj * dim, (bj + 1) * dim
                    self.counts["automaton.bb_blocks"] += 1
                    if any(x != zero for row in band for x in row[lo:hi]):
                        self.counts["automaton.bb_nonzero_blocks"] += 1

    def totals(self):
        """Exact counts of the pass (field counters folded in)."""
        out = dict(self.counts)
        for key, cell in self._cells.items():
            out[key] = out.get(key, 0) + cell[0]
        out["trace.spans"] = len(self.spans)
        return out

    def self_seconds(self):
        """Self time per span layer."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = dict.fromkeys(SPAN_LAYERS, 0.0)
        for i, (name_id, start, end, _parent, _op) in enumerate(self.spans):
            out[layer_of[name_id]] += (end - start) - child[i]
        return out

    # -- installation --------------------------------------------------

    def install(self, nc):
        """Wrap every public function and method of the ncfactor modules in
        the namespace `nc` (one attribute per module)."""
        self._left_factors_budget = inspect.signature(
            nc.factoring.left_factors).parameters["budget"].default
        modules = [getattr(nc, layer) for layer in SPAN_LAYERS]
        namespaces = list(vars(nc).values())
        for layer, mod in zip(SPAN_LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_") and not inspect.isgeneratorfunction(obj)
                      and "%s.%s" % (layer, name) not in HOT):
                    wrapper = self._span("%s.%s" % (layer, name), obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, key, wrapper)
        self._divide_ids = {i for i, name in enumerate(self.names)
                            if name in ("ncpoly.left_divide", "ncpoly.right_divide")}
        self._install_field_counters(nc.fields.PrimeFieldElement)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, name, original, existed in reversed(self._undo):
            if existed:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _set(self, owner, name, value):
        existed = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), existed))
        setattr(owner, name, value)

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            full = "%s.%s.%s" % (layer, cls.__name__, name)
            if full in HOT or (name.startswith("_") and full not in SPANNED_DUNDERS):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._set(cls, name, type(attr)(self._span(full, fn)))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                self._set(cls, name, self._span(full, attr))

    def _span(self, name, fn):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        hook = self._hooks.get(name)
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name_id))
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name_id, start, perf(), parent, self.op_id)
                stack.pop()
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            spans[idx] = (name_id, start, perf(), parent, self.op_id)
            stack.pop()
            if hook is not None:
                result = hook(args, kwargs, result, None) or result
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _install_field_counters(self, element_cls):
        ops = self._cells.setdefault("fields.fp_ops", [0])
        objects = self._cells.setdefault("fields.fp_objects", [0])
        fractions = self._cells.setdefault("fields.q_objects", [0])
        for name in FP_OPS:
            self._set(element_cls, name, _counted(vars(element_cls)[name], ops))
        self._set(element_cls, "__init__", _counted(vars(element_cls)["__init__"], objects))
        new = vars(Fraction)["__new__"].__func__

        def counted_new(cls, *args, **kwargs):
            fractions[0] += 1
            return new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counted_new))

    # -- count hooks: (args, kwargs, result, exc) -> replacement result or None

    def _counter(self, key):
        counts = self.counts

        def hook(args, kwargs, result, exc):
            counts[key] += 1
        return hook

    def _on_left_factors(self, args, kwargs, result, exc):
        c = self.counts
        c["factoring.left_factors_calls"] += 1
        f, k = args[0], args[1]
        budget = args[2] if len(args) > 2 else kwargs.get("budget", self._left_factors_budget)
        if exc is not None and type(exc).__name__ == "BudgetExceededError":
            c["factoring.budget_errors"] += 1
        if not f.terms or not 1 <= k <= f.degree:
            return None
        a = f.alphabet.size
        p = f.field.p
        n_words = sum(a ** m for m in range(f.degree - k + 1))
        c["factoring.budget_peak_frac"] = max(c["factoring.budget_peak_frac"],
                                              p ** k * n_words / budget)
        if exc is None:
            c["factoring.assignments"] += p ** k
            c["factoring.found"] += len(result)
        return None

    def _on_divide(self, args, kwargs, result, exc):
        if self.stack and self.stack[-1][1] in self._divide_ids:
            return None
        self.counts["ncpoly.divide_calls"] += 1
        if result is not None:
            self.counts["ncpoly.divide_hits"] += 1
        return None

    def _on_matrix_mul(self, args, kwargs, result, exc):
        a, b = args[0], args[1]
        self.counts["matrix.mul_calls"] += 1
        if exc is None and result is not NotImplemented:
            self.counts["matrix.mul_scalar_mults"] += a.nrows * a.ncols * b.ncols
        return None

    def _on_inverse(self, args, kwargs, result, exc):
        self.counts["matrix.elim_calls"] += 1
        self.counts["matrix.inverse_calls"] += 1
        return None

    def _on_expand(self, args, kwargs, result, exc):
        self.counts["circuits.expand_calls"] += 1
        if exc is None:
            self.counts["circuits.expand_terms"] += len(result.terms)
        return None

    def _on_circuit_init(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["circuits.gates_built"] += len(args[0].gates)
        return None

    def _on_phi(self, args, kwargs, result, exc):
        self.counts["embedding.phi_calls"] += 1
        if exc is not None:
            return None
        if callable(result):
            return self._span("embedding.phi_blackbox.embedded", result)
        self.counts["embedding.image_size"] += _size(result)
        return None

    def _on_words(self, args, kwargs, result, exc):
        self.counts["words.enumerate_calls"] += 1
        if exc is None:
            self.counts["words.words_out"] += result.n
        return None

    def _on_build(self, args, kwargs, result, exc):
        self.counts["automaton.build_calls"] += 1
        if exc is None:
            self.counts["automaton.states_max"] = max(self.counts["automaton.states_max"],
                                                      result.n_states)
        return None

    def _on_recover(self, args, kwargs, result, exc):
        self.counts["automaton.recover_calls"] += 1
        if exc is not None:
            return None
        if callable(result):
            return self._span("automaton.recover_blackbox.recovered", result)
        self.counts["automaton.recover_size_out"] += _size(result)
        return None

    def _on_eigenlines(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["linmat.eigen_candidates"] += len(result)
        return None


def _counted(fn, cell):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)
    return wrapper


# counts that only feed a ratio below
RATIO_PARTS = frozenset({"factoring.found", "ncpoly.divide_hits", "automaton.bb_blocks",
                         "automaton.bb_nonzero_blocks"})


def layer_metrics(counts, self_seconds, overhead_frac):
    """Per-layer metrics, name -> (value, unit), from one pass's exact
    counts, the layers' self times and the tracing overhead."""

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {"%s.self_s" % layer: (seconds, "s") for layer, seconds in self_seconds.items()}
    for key, value in counts.items():
        if key not in RATIO_PARTS:
            metrics[key] = (value, "frac" if key == "factoring.budget_peak_frac" else "count")
    metrics["factoring.found_ratio"] = (
        ratio("factoring.found", "factoring.assignments"), "frac")
    metrics["ncpoly.divide_hit_ratio"] = (
        ratio("ncpoly.divide_hits", "ncpoly.divide_calls"), "frac")
    metrics["automaton.bb_nonzero_block_frac"] = (
        ratio("automaton.bb_nonzero_blocks", "automaton.bb_blocks"), "frac")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics
