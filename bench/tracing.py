"""Spans and counters around tentlab's public functions, installed from outside.

The traced run replaces each instrumented function in every tentlab module
that holds a reference to it, because callers look names up in their own
module (``tentlab.audit.brute_force_commuting`` is the object the audit
calls).  Bulk functions get a span: name, layer, start, end and parent.
Per-point functions, called thousands of times inside the bulk ones, are only
counted, so the tracer does not swamp what it measures; they get a span only
when the workload calls them directly.  The ``lru_cache`` statistics are read
from outside with ``cache_info()``.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

LAYERS = (
    "rationals",
    "tent",
    "sawtooth",
    "commutants",
    "continuation",
    "conjugacy",
    "audit",
    "cli",
)

# Functions that get a span wherever they are called.
SPANNED = {
    "tent": ("preimage_set",),
    "sawtooth": ("linearity_probe", "verify_commutation"),
    "commutants": (
        "brute_force_commuting",
        "pair_from_psi",
        "psi_from_pair",
        "pair_fiber_stats",
        "audit_counts",
        "validate_commuting_table",
    ),
    "continuation": (
        "enumerate_continuable",
        "continuable_audit",
        "continuable_from_point",
        "is_tent_continuable",
    ),
    "conjugacy": ("graph_length", "slope_measure", "iterate_to", "density_probe"),
    "audit": ("claims_audit",),
    "cli": ("run",),
}

# Per-point functions: counted, and spanned only when the workload calls them.
COUNTED = {
    "rationals": ("rational_to_binary", "format_rational"),
    "tent": (
        "tent",
        "tent_digits",
        "inverse_branch",
        "address_to_point",
        "grid_points",
        "new_grid_points",
    ),
    "sawtooth": ("sawtooth_eval",),
    "continuation": ("solve_k0", "sawtooth_matches"),
    "conjugacy": ("conjugacy_value", "conjugate_point"),
}

# lru caches read from outside: metric stem -> (module, attribute) pairs.
CACHES = {
    "rationals.order_cache": (("rationals", "multiplicative_order_of_two"),),
    "tent.grid_cache": (("tent", "grid_points"), ("tent", "new_grid_points")),
    "continuation.restriction_cache": (("continuation", "_restriction_values"),),
}

# Time metrics: busy time of the named spans (a span nested in another of
# the same set is not counted twice).
BUSY = {
    "rationals.codec_s": ("rationals.rational_to_binary",),
    "tent.preimage_s": ("tent.preimage_set",),
    "sawtooth.probe_s": ("sawtooth.linearity_probe",),
    "commutants.chain_s": ("commutants.brute_force_commuting[chain]",),
    "commutants.product_s": ("commutants.brute_force_commuting[product]",),
    "commutants.codec_s": ("commutants.pair_from_psi", "commutants.psi_from_pair"),
    "commutants.fiber_s": ("commutants.pair_fiber_stats",),
    "continuation.enumerate_s": (
        "continuation.enumerate_continuable",
        "continuation.continuable_audit",
    ),
    "continuation.point_s": ("continuation.continuable_from_point",),
    "continuation.decide_s": ("continuation.is_tent_continuable",),
    "conjugacy.length_agg_s": ("conjugacy.graph_length[aggregate]",),
    "conjugacy.slope_agg_s": ("conjugacy.slope_measure[aggregate]",),
    "conjugacy.explicit_s": (
        "conjugacy.graph_length[explicit]",
        "conjugacy.slope_measure[explicit]",
        "conjugacy.iterate_to",
    ),
    "conjugacy.density_s": ("conjugacy.density_probe",),
    "conjugacy.value_s": ("conjugacy.conjugacy_value", "conjugacy.conjugate_point"),
}

# Every per-layer metric a traced run reports, with its unit.  The runner adds
# commutants.chain_w2_s and trace.overhead_s, which need whole rounds.
UNITS = {name: "s" for name in BUSY}
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update(
    {
        "sawtooth.eval_s": "s",
        "rationals.order_cache_hit_ratio": "ratio",
        "tent.grid_cache_hit_ratio": "ratio",
        "continuation.restriction_cache_hit_ratio": "ratio",
        "commutants.product_yield": "ratio",
        "continuation.distinct_ratio": "ratio",
        "tent.preimage_points": "count",
        "sawtooth.probe_evals": "count",
        "commutants.chain_tables": "count",
        "commutants.decode_conflicts": "count",
        "conjugacy.density_points": "count",
    }
)


def _arg(args, kwargs, index: int, name: str, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    """Spans, counts and cache statistics for one traced round."""

    def __init__(self, package):
        self.package = package
        # Not getattr(package, layer): the package re-exports functions named
        # like their modules (tentlab.tent is the tent map).
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.amounts: Counter = Counter()
        self._caches = {
            stem: [getattr(self.modules[m], attr) for m, attr in pairs]
            for stem, pairs in CACHES.items()
        }
        self._cache_start: dict = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, names in SPANNED.items():
            for name in names:
                fn = getattr(self.modules[layer], name)
                self._replace(fn, self._spanned(layer, name, fn))
        for layer, names in COUNTED.items():
            for name in names:
                fn = getattr(self.modules[layer], name)
                self._replace(fn, self._counted(layer, name, fn))

    def _replace(self, original, wrapper) -> None:
        holders = [self.package, *self.modules.values()]
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _spanned(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        qualified = f"{layer}.{name}"
        hooks = self._hooks(layer, name)
        name_of, before = hooks.get("name_of"), hooks.get("before")
        after, on_error = hooks.get("after"), hooks.get("on_error")

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            label = qualified if name_of is None else f"{qualified}[{name_of(args, kwargs)}]"
            record = [label, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counted(self, layer: str, name: str, fn):
        counts, stack = self.counts, self.stack
        key = f"{layer}.{name}"
        spanned = self._spanned(layer, name, fn)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if len(stack) == 1:
                return spanned(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, layer: str, name: str):
        """Optional hooks for one function: ``name_of`` (span-name suffix from
        the arguments), ``before`` (argument rewrite), ``after`` (result
        hook) and ``on_error`` (exception hook)."""
        amounts, counts = self.amounts, self.counts
        key = f"{layer}.{name}"
        if key == "tent.preimage_set":

            def after(args, kwargs, out):
                amounts["tent.preimage_points"] += len(out.points)

            return {"after": after}
        if key == "sawtooth.linearity_probe":
            clock = time.perf_counter

            def before(args):
                g = args[0]

                def counting(x):
                    counts["sawtooth.probe_evals"] += 1
                    t0 = clock()
                    try:
                        return g(x)
                    finally:
                        amounts["sawtooth.probe_eval_s"] += clock() - t0

                return (counting, *args[1:])

            return {"before": before}
        if key == "commutants.brute_force_commuting":
            bound = getattr(self.modules["commutants"], "_PRODUCT_BOUND", 3)

            def method(args, kwargs):
                chosen = _arg(args, kwargs, 2, "method", "auto")
                if chosen == "auto":
                    chosen = "product" if args[0] <= bound else "chain"
                return chosen

            def after(args, kwargs, out):
                if method(args, kwargs) == "chain":
                    amounts["commutants.chain_tables"] += len(out)
                    return
                n = args[0]
                bases = 2 if _arg(args, kwargs, 1, "x0", None) is None else 1
                # One candidate per value assignment to the grid minus {0}:
                # each of 2**(n-1) points ranges over the 3 * 2**(n-1) + 1
                # fixed-point preimages.
                universe = 3 * 2 ** (n - 1) + 1
                amounts["commutants.product_candidates"] += bases * universe ** (2 ** (n - 1))
                amounts["commutants.product_tables"] += len(out)

            return {"name_of": method, "after": after}
        if key == "commutants.psi_from_pair":
            conflict = self.modules["commutants"].AddressConflict

            def on_error(exc):
                if isinstance(exc, conflict):
                    counts["commutants.decode_conflicts"] += 1

            return {"on_error": on_error}
        if key == "continuation.enumerate_continuable":

            def after(args, kwargs, out):
                amounts["continuation.distinct"] += len(out)
                amounts["continuation.generated"] += (1 << args[0]) + 2

            return {"after": after}
        if key in ("conjugacy.graph_length", "conjugacy.slope_measure"):
            position = 2 if name == "graph_length" else 3

            def mode(args, kwargs):
                return _arg(args, kwargs, position, "mode", "aggregate")

            return {"name_of": mode}
        if key == "conjugacy.density_probe":

            def after(args, kwargs, out):
                amounts["conjugacy.density_points"] += out.points

            return {"after": after}
        return {}

    # -- a traced round ------------------------------------------------------

    def begin(self) -> None:
        """Open the root span and snapshot the caches."""
        self._cache_start = {stem: self._cache_totals(stem) for stem in self._caches}
        self.stack.append(len(self.spans))
        self.spans.append(["bench.round", "bench", time.perf_counter(), 0.0, -1])

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = time.perf_counter()

    def _cache_totals(self, stem: str) -> tuple[int, int]:
        infos = [cache.cache_info() for cache in self._caches[stem]]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _busy(self, names) -> float:
        """Time inside spans of the given names, outermost occurrences only."""
        wanted = set(names)
        spans = self.spans
        total = 0.0
        for record in spans:
            if record[0] not in wanted:
                continue
            parent = record[4]
            while parent >= 0 and spans[parent][0] not in wanted:
                parent = spans[parent][4]
            if parent < 0:
                total += record[3] - record[2]
        return total

    def self_times(self) -> dict:
        """Per span name: calls, total time and self time (total minus direct children)."""
        spans = self.spans
        children = [0.0] * len(spans)
        for record in spans:
            if record[4] >= 0:
                children[record[4]] += record[3] - record[2]
        table: dict = {}
        for record, inner in zip(spans, children):
            row = table.setdefault(record[0], [record[1], 0, 0.0, 0.0])
            row[1] += 1
            row[2] += record[3] - record[2]
            row[3] += record[3] - record[2] - inner
        return table

    def metrics(self) -> dict:
        """Every per-layer metric of this round, named as in ``UNITS``."""
        out = {name: self._busy(names) for name, names in BUSY.items()}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for layer, _calls, _total, own in self.self_times().values():
            if layer in layer_self:
                layer_self[layer] += own
        out.update({f"{layer}.self_s": value for layer, value in layer_self.items()})
        requests = self._busy(("sawtooth.sawtooth_eval",))
        out["sawtooth.eval_s"] = requests + self.amounts["sawtooth.probe_eval_s"]
        for stem in self._caches:
            hits0, misses0 = self._cache_start[stem]
            hits1, misses1 = self._cache_totals(stem)
            calls = (hits1 - hits0) + (misses1 - misses0)
            out[f"{stem}_hit_ratio"] = (hits1 - hits0) / calls if calls else 0.0
        a = self.amounts
        out["commutants.product_yield"] = (
            a["commutants.product_tables"] / a["commutants.product_candidates"]
            if a["commutants.product_candidates"]
            else 0.0
        )
        generated = a["continuation.generated"]
        out["continuation.distinct_ratio"] = a["continuation.distinct"] / generated if generated else 0.0
        for name in ("tent.preimage_points", "commutants.chain_tables", "conjugacy.density_points"):
            out[name] = a[name]
        for name in ("sawtooth.probe_evals", "commutants.decode_conflicts"):
            out[name] = self.counts[name]
        return out
