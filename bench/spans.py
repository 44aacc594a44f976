"""Per-layer tracing of dysonct from outside its source.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers, in every loaded ``dysonct`` module that
holds them (``identities``, ``interp`` and ``cli`` import kernel builders,
``mul_coeff_x``, ``c_w`` and the interpolation entry points by name).
``restore`` puts the originals back.  A wrapper returns the wrapped
call's result unchanged.

Spans are aggregated in memory as the run goes, by category:

* ``calls[cat]``  calls made;
* ``incl[cat]``   time inside the outermost span of that category, so a
  category that calls itself (``c_w`` inside ``rhs_poincare_qdyson``) is
  counted once;
* ``self_s[layer]``  span time minus the time of its child spans, summed
  per module; the self times of all layers add up to the time inside
  ``cli.run``;
* ``counts``  exact work counts taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

KERNEL_BUILDERS = ("dyson_kernel", "tkernel", "tzero_kernel", "tau_kernel",
                   "tournament_kernel", "bg_kernel", "bg_alternating_kernel")

# (module, class or None, attribute, category); the layer is the part of
# the category before the dot.
TARGETS = (
    [("mpoly", None, name, "mpoly.kernel") for name in KERNEL_BUILDERS]
    + [("mpoly", "MPoly", "__mul__", "mpoly.mul"),
       ("mpoly", "MPoly", "__rmul__", "mpoly.mul"),
       ("mpoly", "MPoly", "x_degrees", "mpoly.homogeneity_check"),
       ("mpoly", "MPoly", "ct_x", "mpoly.extract"),
       ("mpoly", "MPoly", "coeff_x", "mpoly.extract"),
       ("mpoly", "MPoly", "coeff_aux", "mpoly.extract"),
       ("mpoly", None, "mul_coeff_x", "mpoly.extract"),
       ("qpoly", "IntPoly", "__mul__", "qpoly.intpoly_mul"),
       ("qpoly", "IntPoly", "__rmul__", "qpoly.intpoly_mul"),
       ("qpoly", "IntPoly", "exact_div", "qpoly.exact_div"),
       ("qpoly", "QRat", "__init__", "qpoly.qrat"),
       ("qpoly", None, "poly_gcd", "qpoly.gcd"),
       ("interp", None, "eval_factored", "interp.eval"),
       ("interp", None, "dyson_coeff_interpolated", "interp.interpolate"),
       ("interp", None, "sills_coeff_interpolated", "interp.interpolate"),
       ("interp", None, "closed_eval", "interp.interpolate"),
       ("interp", None, "generic_coeff", "interp.interpolate"),
       ("symfun", None, "schur_principal", "symfun.schur"),
       ("cli", None, "run", "cli.run")]
)
CLOSED_FORM_PREFIX = "rhs_"
VERIFY_PREFIX = "verify_"


UNITS = {"_s": "s", "_calls": "count", "_pairs": "count", "_terms": "count",
         "_scanned": "count", "_yield": "ratio", "_bytes": "bytes",
         "timeouts": "count"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def _identities_targets(module):
    out = [("identities", None, "c_w", "identities.closed_form")]
    for name in sorted(vars(module)):
        if name.startswith(CLOSED_FORM_PREFIX):
            out.append(("identities", None, name, "identities.closed_form"))
        elif name.startswith(VERIFY_PREFIX):
            out.append(("identities", None, name, "identities.verify"))
    return out


class Tracer:
    """Timing wrappers around dysonct's layer boundaries."""

    def __init__(self):
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._active = Counter()
        self._stack = [0.0]
        self._undo = []

    # -- accumulators --------------------------------------------------------

    def reset(self):
        """Zero every accumulator; call only between top-level calls."""
        for table in (self.calls, self.incl, self.self_s, self.counts):
            table.clear()

    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything traced since ``reset``."""
        c, incl, self_s, n = self.counts, self.incl, self.self_s, self.calls
        scanned = c["extract_scanned"]
        points = n["interp.eval"]
        return {
            "mpoly.kernel_s": incl["mpoly.kernel"],
            "mpoly.kernel_calls": n["mpoly.kernel"],
            "mpoly.mul_s": incl["mpoly.mul"],
            "mpoly.mul_term_pairs": c["mul_term_pairs"],
            "mpoly.peak_terms": c["peak_terms"],
            "mpoly.homogeneity_check_s": incl["mpoly.homogeneity_check"],
            "mpoly.extract_s": incl["mpoly.extract"],
            "mpoly.extract_scanned": scanned,
            "mpoly.extract_yield": c["extract_kept"] / scanned if scanned else 0.0,
            "mpoly.self_s": self_s["mpoly"],
            "qpoly.exact_div_s": incl["qpoly.exact_div"],
            "qpoly.exact_div_calls": n["qpoly.exact_div"],
            "qpoly.qrat_s": incl["qpoly.qrat"],
            "qpoly.qrat_calls": n["qpoly.qrat"],
            "qpoly.gcd_s": incl["qpoly.gcd"],
            "qpoly.intpoly_mul_s": incl["qpoly.intpoly_mul"],
            "qpoly.intpoly_mul_calls": n["qpoly.intpoly_mul"],
            "qpoly.self_s": self_s["qpoly"],
            "identities.closed_form_s": incl["identities.closed_form"],
            "identities.brute_s": (incl["identities.verify"]
                                   - c["closed_form_in_verify_s"]),
            "identities.self_s": self_s["identities"],
            "interp.eval_s": incl["interp.eval"],
            "interp.points_scanned": points,
            "interp.survivor_yield": c["survivors"] / points if points else 0.0,
            "interp.interpolate_s": incl["interp.interpolate"],
            "interp.self_s": self_s["interp"],
            "symfun.schur_s": incl["symfun.schur"],
            "cli.overhead_s": self_s["cli"],
            "cli.report_bytes": c["report_bytes"],
            "cli.timeouts": c["timeouts"],
        }

    # -- count hooks ---------------------------------------------------------

    def _on_mul(self, args, result, dt):
        this, other = args
        if isinstance(other, type(this)):
            self.counts["mul_term_pairs"] += len(this) * len(other)
        if len(result) > self.counts["peak_terms"]:
            self.counts["peak_terms"] = len(result)

    def _on_extract(self, args, result, dt):
        if len(args) >= 2 and isinstance(args[1], type(args[0])):
            scanned = len(args[0]) + len(args[1])  # mul_coeff_x(p1, p2, v)
        else:
            scanned = len(args[0])
        self.counts["extract_scanned"] += scanned
        self.counts["extract_kept"] += len(result)

    def _on_eval(self, args, result, dt):
        if result:
            self.counts["survivors"] += 1

    def _on_closed_form(self, args, result, dt):
        if (self._active["identities.verify"]
                and not self._active["identities.closed_form"]):
            self.counts["closed_form_in_verify_s"] += dt

    def _on_run(self, args, result, dt):
        for record in result[1]:
            self.counts["report_bytes"] += len(json.dumps(record, sort_keys=True))
            if record["status"] == "timeout":
                self.counts["timeouts"] += 1

    _HOOKS = {"mpoly.mul": "_on_mul", "mpoly.extract": "_on_extract",
              "interp.eval": "_on_eval",
              "identities.closed_form": "_on_closed_form", "cli.run": "_on_run"}

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, category):
        layer = category.split(".")[0]
        hook_name = self._HOOKS.get(category)
        hook = getattr(self, hook_name) if hook_name else None
        stack, active = self._stack, self._active
        calls, incl, self_s = self.calls, self.incl, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            active[category] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                active[category] -= 1
                if not active[category]:
                    incl[category] += dt
                calls[category] += 1
            if hook is not None:
                hook(args, result, dt)
            return result

        return traced

    def install(self):
        """Wrap every target in every loaded dysonct module that holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "dysonct" or name.startswith("dysonct."))}
        targets = list(TARGETS) + _identities_targets(modules["dysonct.identities"])
        for mod_name, owner, attr, category in targets:
            home = modules[f"dysonct.{mod_name}"]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, category))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, category)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def restore(self):
        """Put every original back."""
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo = []
