"""Outside-in tracer: spans around calls into berezin_lab's public functions.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
declared function in every ``berezin_lab`` namespace that binds it (so names
brought in by ``from ... import`` are wrapped where they are looked up), and
each declared method on its class.  A span records its parent, start, end and
whether the call raised; counters attached to a span record sizes from its
arguments or result.  ``Tracer.summary`` turns the spans into per-span calls,
self time and errors, plus self time per layer (module).
"""

import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("labcli", "domains", "symbols", "quadrature", "bergman", "operators",
          "_accel")


@dataclass(frozen=True)
class Span:
    """A traced call site: span ``name`` covers ``targets`` (``module:attr``
    for functions, ``module:Class.attr`` for methods) and must fire on every
    workload in ``fires_on``.  ``counters`` maps a counter suffix to
    ``(reduce, fn(args, kwargs, result))`` with ``reduce`` "sum" or "max"."""

    name: str
    targets: tuple
    fires_on: tuple
    counters: tuple = ()


_ALL = ("identity-sweep", "localization", "oracles")

SPANS = (
    Span("labcli.run", ("labcli:run",), _ALL),
    Span("labcli.validate_config", ("labcli:validate_config",), _ALL),
    Span("labcli.emit", ("labcli:emit",), _ALL,
         (("bytes", "sum", lambda a, k, out: sum(os.path.getsize(p) for p in out)),)),
    Span("domains.domain_from_config", ("domains:domain_from_config",), _ALL),
    Span("domains.classify_boundary", ("domains:classify_boundary",), ("localization",)),
    Span("domains.boundary_point", ("domains:boundary_point",), ("localization",)),
    Span("symbols.parse", ("symbols:Symbol.parse",), ("localization", "oracles")),
    Span("symbols.mul", ("symbols:Symbol.__mul__",), ("identity-sweep", "localization")),
    Span("symbols.call", ("symbols:Symbol.__call__",), ("localization",)),
    Span("quadrature.rule_build",
         ("quadrature:polar_tensor_rule", "quadrature:radial_rule",
          "quadrature:monte_carlo_rule"), ("localization", "oracles"),
         (("nodes", "sum", lambda a, k, out: len(out.nodes)),)),
    Span("quadrature.moments", ("quadrature:log_monomial_moments",), _ALL),
    Span("quadrature.mc",
         ("quadrature:inflation_constant_mc", "quadrature:monomial_moment_mc"),
         ("oracles",),
         (("draws", "sum", lambda a, k, out: out.samples),)),
    Span("bergman.build_space", ("bergman:build_space",), _ALL,
         (("basis_size", "max", lambda a, k, out: out.size),
          ("coeffs_bytes", "max", lambda a, k, out: out.coeffs.nbytes))),
    Span("bergman.build_inflated_space", ("bergman:build_inflated_space",), ("oracles",)),
    Span("bergman.basis_values", ("bergman:WeightedSpace.basis_values",),
         ("localization", "oracles"),
         (("points", "sum", lambda a, k, out: out.shape[1]),)),
    Span("bergman.eval_series", ("bergman:WeightedSpace.eval_series",), ("oracles",)),
    Span("bergman.inflation_kernel_residuals", ("bergman:inflation_kernel_residuals",),
         ("oracles",)),
    Span("bergman.kernel_mass_outside", ("bergman:kernel_mass_outside",), ("oracles",)),
    Span("operators.semi_commutator_residual", ("operators:semi_commutator_residual",),
         ("identity-sweep",)),
    Span("operators.product_decomposition_residual",
         ("operators:product_decomposition_residual",), ("identity-sweep",)),
    Span("operators.decompose_product", ("operators:decompose_product",),
         ("identity-sweep",)),
    Span("operators.toeplitz", ("operators:toeplitz",), ("localization",)),
    Span("operators.hankel_gram", ("operators:hankel_gram",), ("localization",)),
    Span("operators.materialize", ("operators:materialize",), ("localization",)),
    Span("operators.axler_zheng_report", ("operators:axler_zheng_report",),
         ("localization",)),
    Span("operators.boundary_profile", ("operators:boundary_profile",), ("localization",)),
    Span("operators.berezin", ("operators:berezin",), ("localization",)),
    Span("operators.tail_norm", ("operators:tail_norm",), ("localization",)),
    Span("_accel.monomial_matrix", ("_accel:monomial_matrix",), ("localization", "oracles"),
         (("entries", "sum", lambda a, k, out: out.size),
          ("bytes", "sum", lambda a, k, out: out.nbytes))),
    Span("_accel.count_inside", ("_accel:count_inside",), ("oracles",)),
    Span("_accel.series_values", ("_accel:series_values",), ("oracles",)),
)


def _resolve(target):
    modname, _, attr = target.partition(":")
    module = sys.modules[f"berezin_lab.{modname}"]
    owner, _, name = attr.rpartition(".")
    if owner:
        return getattr(module, owner), name
    return module, attr


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self, spans=SPANS):
        self.declared = spans
        self.records = []           # (parent index or -1, name, t0, t1, ok)
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._undo = []

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, span, fn):
        records, stack, counts = self.records, self._stack, self.counts
        name = span.name
        counters = [(f"{name}.{suffix}", reduce, get)
                    for suffix, reduce, get in span.counters]

        def traced(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                records[idx] = (parent, name, t0, t1, ok)
                if ok:
                    for key, reduce, get in counters:
                        val = get(args, kwargs, out)
                        counts[key] = max(counts[key], val) if reduce == "max" \
                            else counts[key] + val

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every declared target; raises if a target no longer exists."""
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "berezin_lab" or n.startswith("berezin_lab.")) and m]
        for span in self.declared:
            for target in span.targets:
                try:
                    owner, attr = _resolve(target)
                    fn = getattr(owner, attr)
                except (KeyError, AttributeError) as exc:
                    raise RuntimeError(f"span {span.name}: {target} not found "
                                       "in berezin_lab") from exc
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span, raw.__func__))
                    else:
                        wrapped = self._wrap(span, raw)
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(span, fn)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._undo.append((mod, key, fn))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self):
        self.records.clear()
        self.counts.clear()

    # -- analysis ------------------------------------------------------------
    def summary(self):
        """Per-span calls/self_s/incl_s/errors, counters, and per-layer self
        time, plus each span's and layer's self time as a share of the traced
        total.  Shares, not seconds, are the published per-layer times: a span
        that never runs on a workload has share 0, a ratio rather than a
        timing that reads the same on every run."""
        child = np.zeros(len(self.records))
        for parent, _, t0, t1, _ in self.records:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for span in self.declared:
            for key in ("calls", "self_s", "incl_s", "errors"):
                out[f"{span.name}.{key}"] = 0.0
            for suffix, _, _ in span.counters:
                out[f"{span.name}.{suffix}"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        total = 0.0
        for i, (parent, name, t0, t1, ok) in enumerate(self.records):
            self_s = (t1 - t0) - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.incl_s"] += t1 - t0
            out[f"{name}.errors"] += 0 if ok else 1
            out[f"{name.partition('.')[0]}.self_s"] += self_s
            if parent < 0:
                total += t1 - t0
        out.update(self.counts)
        for base in [s.name for s in self.declared] + list(LAYERS):
            out[f"{base}.self_share"] = out[f"{base}.self_s"] / total if total else 0.0
        out["trace.total_s"] = total
        # metric names must start with a letter or digit
        return {(k[1:] if k.startswith("_") else k): v for k, v in out.items()}

    def missing(self, workload):
        """Declared spans that should have fired on ``workload`` but did not."""
        fired = {name for _, name, _, _, _ in self.records}
        return [s.name for s in self.declared
                if workload in s.fires_on and s.name not in fired]

    def dump(self, path):
        """Write spans (parent-linked, times relative to the first) as JSON."""
        t_ref = self.records[0][2] if self.records else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["parent", "name", "start_s", "end_s", "ok"],
                       "spans": [[p, n, round(t0 - t_ref, 7), round(t1 - t_ref, 7), ok]
                                 for p, n, t0, t1, ok in self.records],
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))
