"""Outside-in span tracer for the finslergamma package.

The tracer changes no file of the program.  ``install`` replaces the public
entry points of each module by timing wrappers, at the place where callers
look them up: methods on their classes, and module-level functions in every
``finslergamma`` module namespace that holds them (``from .x import f``
copies the reference, so each copy is replaced).  ``remove`` puts every
original back.  Spans (name, start, end, parent, error) are kept in memory
for one pass at a time; ``end_pass`` folds them into per-layer numbers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

#: marks a wrapper so a run can prove that none survives into timing
WRAPPED_ATTR = "__perfbench_wrapped__"

#: methods timed on every class of the module that defines them
CLASS_METHODS = {
    "norms": ("dual_sq_values", "legendre_map", "inverse_metric_tensors"),
    "calculus": ("differential", "gradient", "laplacian", "gamma2",
                 "linearized_laplacian_matrix"),
}

CHECKERS = ("check_integrated_bochner", "check_bochner_pointwise", "check_poincare",
            "check_logsobolev", "check_gamma2_integral", "check_talagrand",
            "check_entropy_energy", "check_nash", "check_nonsharp_sobolev",
            "check_sobolev", "check_sobolev_inf")

#: module-level functions timed wherever a package module refers to them
FUNCTIONS = {
    "norms": ("uniform_smoothness",),
    "space": ("build_space",),
    "calculus": ("gradient_kink_mask",),
    "curvature": ("effective_K",),
    "heatflow": ("step", "observables"),
    "transport": ("transport_cost_sq", "lp_transport_cost"),
    "inequalities": CHECKERS + ("make_test_bank", "run_checker_matrix"),
    "config": ("load_config",),
    # cli.main is the root span of each command: its self time is the CLI
    # glue no layer covers, and its span id groups the command's spans
    "cli": ("main", "render_json"),
}

#: spans whose first array argument is counted as rows (covectors processed)
ROWS = ("norms.dual_sq_values", "norms.legendre_map", "norms.inverse_metric_tensors")
#: spans whose first array argument is hashed to count distinct inputs
DISTINCT = ("norms.dual_sq_values", "calculus.gamma2")

PACKAGE = "finslergamma"


def span_names():
    """Every span name the tracer can record, in a fixed order."""
    names = [f"{mod}.{fn}" for mod, fns in CLASS_METHODS.items() for fn in fns]
    names += [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += ["calculus.DiffOperators", "heatflow.solve"]
    return names


def _digest(a) -> bytes:
    arr = np.ascontiguousarray(np.asarray(a, dtype=float))
    return hashlib.blake2b(repr(arr.shape).encode() + arr.tobytes(),
                           digest_size=16).digest()


class _ModuleProxy(types.ModuleType):
    """Stands in for a module inside one caller's namespace: the names in
    ``overrides`` are served from here, everything else from the module."""

    def __init__(self, real, overrides):
        super().__init__(real.__name__)
        self.__dict__.update(overrides)
        self.__dict__["_real"] = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, raised]
        self._stack = []
        self._undo = []          # (owner, attribute, original)
        self.rows = Counter()
        self.lp_cells = 0
        self.distinct = Counter()
        self.observed = Counter()
        self._seen = defaultdict(set)

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, name, fn, arg_index=None):
        spans, stack = self.spans, self._stack
        observe = arg_index is not None and (name in ROWS or name in DISTINCT
                                             or name == "transport.lp_transport_cost")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # recursion and super() calls stay inside the outer span
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if observe and len(args) > arg_index:
                self._observe(name, args[arg_index])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        setattr(traced, WRAPPED_ATTR, fn)
        return traced

    def _observe(self, name, a):
        if name == "transport.lp_transport_cost":
            self.lp_cells += int(np.size(a))
            return
        if name in ROWS:
            self.rows[name] += int(np.shape(a)[0])
        if name in DISTINCT:
            self.observed[name] += 1
            d = _digest(a)
            if d not in self._seen[name]:
                self._seen[name].add(d)
                self.distinct[name] += 1

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in set(CLASS_METHODS) | set(FUNCTIONS)}
        try:
            for m, methods in CLASS_METHODS.items():
                for cls in vars(mods[m]).values():
                    if not (isinstance(cls, type) and cls.__module__ == mods[m].__name__):
                        continue
                    for meth in methods:
                        if meth in vars(cls):
                            self._replace(cls, meth, self._wrap(f"{m}.{meth}", vars(cls)[meth], 1))
            ops = mods["calculus"].DiffOperators
            self._replace(ops, "__init__", self._wrap("calculus.DiffOperators", ops.__init__))

            holders = [mod for key, mod in sorted(sys.modules.items())
                       if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
            for m, fns in FUNCTIONS.items():
                for fn_name in fns:
                    original = getattr(mods[m], fn_name)
                    wrapper = self._wrap(f"{m}.{fn_name}", original, 0)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._replace(holder, attr, wrapper)

            heatflow = mods["heatflow"]
            solve = self._wrap("heatflow.solve", heatflow.spla.spsolve)
            self._replace(heatflow, "spla", _ModuleProxy(heatflow.spla, {"spsolve": solve}))
        except BaseException:
            self.remove()
            raise

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # bookkeeping

    def begin_command(self):
        """Distinct inputs are counted per command: one ``fg`` process is
        the widest scope a cache inside the program could share."""
        self._seen.clear()

    def end_pass(self) -> tuple:
        """Fold the spans of the pass just run into per-layer numbers and
        start the next pass empty.  Returns the numbers and the spans."""
        calls, self_s = Counter(), defaultdict(float)
        newton = trials = steps = errors = 0
        spans = self.spans
        for name, start, end, parent, raised in spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                pname = spans[parent][0]
                self_s[pname] -= dur
                if pname == "heatflow.step":
                    if name == "calculus.linearized_laplacian_matrix":
                        newton += 1
                    elif name == "calculus.laplacian":
                        trials += 1
            if name == "heatflow.step":
                steps += 1
                errors += raised
        out = {}
        for name in span_names():
            if name != "calculus.DiffOperators":
                out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in ROWS:
            out[f"{name}.rows"] = self.rows[name]
        for name in DISTINCT:
            n = self.observed[name]
            out[f"{name}.distinct_ratio"] = self.distinct[name] / n if n else 0.0
        # every step evaluates one residual before its first Newton
        # iteration; each later residual is one line-search trial
        trials -= steps
        out["calculus.operators_built"] = calls["calculus.DiffOperators"]
        out["heatflow.newton_iters"] = newton
        out["heatflow.backtracks"] = trials - newton
        out["heatflow.newton_accept_ratio"] = newton / trials if trials else 0.0
        out["heatflow.errors"] = errors
        out["transport.lp_cells"] = self.lp_cells

        # the wrappers hold this very list, so it is emptied in place
        finished = list(spans)
        spans.clear()
        self.rows.clear()
        self.distinct.clear()
        self.observed.clear()
        self._seen.clear()
        self.lp_cells = 0
        return out, finished


def write_spans(path: str, spans) -> None:
    """One JSON line per span; times relative to the first span."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, start, end, parent, raised) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                 "end": end - t0, "parent": parent,
                                 "raised": raised}) + "\n")


def surviving_wrappers() -> list:
    """Names in the package that still refer to a tracer wrapper."""
    found = []
    for key, mod in sorted(sys.modules.items()):
        if mod is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, WRAPPED_ATTR) or isinstance(value, _ModuleProxy):
                found.append(f"{key}.{attr}")
            if isinstance(value, type) and value.__module__ == key:
                for meth, fn in vars(value).items():
                    if hasattr(fn, WRAPPED_ATTR):
                        found.append(f"{key}.{attr}.{meth}")
    return found
