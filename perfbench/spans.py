"""Spans around the calls into gsvkit's layers, for the traced run.

``Tracer.install`` wraps every public function of the six modules (plus
``Polynomial.translate``) and rebinds each name wherever a gsvkit module
holds it, including names taken with ``from ... import``, so calls between
modules go through the wrappers too.  The per-term primitives in
``HOT_PRIMITIVES`` stay unwrapped: they run millions of times inside one
standard basis, and spans on them would time the tracer instead of the
library.

A span is (name, start, end, parent span index, job id), kept in memory
and written out when the run ends.  Counts come from returned values only,
so they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("poly", "localring", "indices", "cherncalc", "projective", "cli")
HOT_PRIMITIVES = {"monomial_degree", "monomial_mul", "monomial_divides",
                  "monomial_div", "monomial_lcm", "ecart"}


def _count_basis(counts, basis):
    counts["localring.standard_basis_calls"] += 1
    counts["localring.basis_elements"] += len(basis.elements)
    counts["localring.lift_terms"] += sum(
        len(p.terms) for row in basis.lifts for p in row)


COUNTERS = {
    "localring.standard_basis": _count_basis,
    "localring.quotient_dim_macaulay":
        lambda counts, _: counts.update(["localring.macaulay_calls"]),
    "indices.greuel_tjurina":
        lambda counts, _: counts.update(["indices.tjurina_calls"]),
}

# metric -> span names whose outermost calls it sums
INCLUSIVE = {
    "poly.parse_s": {"poly.parse_polynomial"},
    "poly.translate_s": {"poly.Polynomial.translate", "poly.translate_to_origin"},
    "poly.minors_s": {"poly.jacobian_minors"},
    "localring.standard_basis_s": {"localring.standard_basis"},
    "localring.membership_s": {"localring.membership_with_cofactors"},
    "localring.macaulay_s": {"localring.quotient_dim_macaulay"},
    "indices.certificate_s": {"indices.invariance_certificate"},
    "indices.tjurina_s": {"indices.greuel_tjurina"},
    "indices.milnor_s": {"indices.milnor_curve"},
    "indices.local_gsv_s": {"indices.local_gsv_curve"},
    "cherncalc.difference_s": {"cherncalc.chern_difference_recursion",
                               "cherncalc.chern_difference_expansion",
                               "cherncalc.chern_difference_inversion"},
    "cherncalc.integral_s": {"cherncalc.total_gsv_integral_projective"},
    "projective.germ_at_point_s": {"projective.germ_at_point"},
    "projective.closed_form_s": {"projective.closed_form_gsv"},
    "cli.load_job_s": {"cli.load_job"},
    "cli.render_s": {"cli.render_report", "cli.render_table"},
}
# metric -> span names whose self time it sums
SELF = {
    "localring.staircase_s": {"localring.quotient_dim"},
    "projective.total_self_s": {"projective.total_gsv_certified",
                                "projective.total_indices_certified"},
    "cli.run_job_self_s": {"cli.run_job"},
}
SELF.update({f"{layer}.self_s": None for layer in LAYERS})
COUNT_METRICS = ("localring.standard_basis_calls", "localring.basis_elements",
                 "localring.lift_terms", "localring.macaulay_calls",
                 "indices.tjurina_calls")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.counts: Counter = Counter()
        self.patched: list = []  # (holder, name, original) to undo install

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, perf_counter(), parent,
                                     self.job)
                self.stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self, gsv):
        modules = [m for name, m in sys.modules.items()
                   if name == "gsvkit" or name.startswith("gsvkit.")]
        for layer in LAYERS:
            module = getattr(gsv, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or attr in HOT_PRIMITIVES
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", obj)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, key, wrapped)
        poly_cls = gsv.poly.Polynomial
        self._patch(poly_cls, "translate",
                    self._wrap("poly.Polynomial.translate", poly_cls.translate))

    def _patch(self, holder, name, value):
        self.patched.append((holder, name, getattr(holder, name)))
        setattr(holder, name, value)

    def uninstall(self):
        for holder, name, original in reversed(self.patched):
            setattr(holder, name, original)
        self.patched = []

    def metrics(self) -> dict[str, float]:
        # a time limit can strike between reserving a span and filling it
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        out = {name: 0.0 for name in list(INCLUSIVE) + list(SELF)}
        child_time = [0.0] * len(self.spans)
        for _, (name, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in spans:
            layer = name.split(".", 1)[0]
            own = end - start - child_time[i]
            out[f"{layer}.self_s"] += own
            for metric, names in SELF.items():
                if names is not None and name in names:
                    out[metric] += own
            for metric, names in INCLUSIVE.items():
                if name in names and not self._inside(i, names):
                    out[metric] += end - start
        return out

    def _inside(self, i, names) -> bool:
        parent = self.spans[i][3]
        while parent >= 0 and self.spans[parent] is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
