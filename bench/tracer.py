"""Per-layer tracing from outside the program.

A Tracer replaces public functions and methods of ``qrefl`` with timing
wrappers, and puts the originals back on ``remove``.  A function that
other modules imported by name (``from .qtorus import expand_product``)
is replaced in every ``qrefl`` module that binds it, so the call sites
find the wrapper wherever they look the name up.

Every wrapper keeps a call count and a self time: its wall time minus
the time spent in wrapped calls made beneath it.  Layer-boundary calls
also record a span (id, parent id, name, start, end) in memory; the hot
leaf calls (``ScalarQ`` arithmetic and the ``mul_monomial`` kernels) are
kept as counters and summed times only.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = {}

    def add(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self._child = [0.0]      # time covered by wrapped children, per level
        self._ids = [None]       # enclosing span ids
        self._undo = []

    def stat(self, name) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrapper(self, fn, name, leaf, post):
        st = self.stat(name)
        child, ids, spans = self._child, self._ids, self.spans

        if leaf:
            def wrapped(*args, **kw):
                child.append(0.0)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kw)
                finally:
                    dt = perf_counter() - t0
                    inner = child.pop()
                    child[-1] += dt
                    st.calls += 1
                    st.self_s += dt - inner
                if post is not None:
                    post(st, args, out)
                return out
        else:
            def wrapped(*args, **kw):
                sid = len(spans)
                spans.append(None)
                parent = ids[-1]
                ids.append(sid)
                child.append(0.0)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kw)
                finally:
                    t1 = perf_counter()
                    dt = t1 - t0
                    inner = child.pop()
                    ids.pop()
                    child[-1] += dt
                    st.calls += 1
                    st.self_s += dt - inner
                    spans[sid] = (sid, parent, name, t0, t1)
                if post is not None:
                    post(st, args, out)
                return out
        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_function(self, module, attr, name, leaf=False, post=None):
        """Replace ``module.attr`` in every loaded qrefl module binding it."""
        fn = getattr(module, attr)
        w = self._wrapper(fn, name, leaf, post)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qrefl" or modname.startswith("qrefl.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, w)
                    self._undo.append((mod, key, fn))

    def wrap_method(self, cls, attr, name, leaf=False, post=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(fn, name, leaf, post))
        self._undo.append((cls, attr, fn))

    def remove(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    @contextmanager
    def span(self, name):
        """A root span opened by the benchmark itself (setup, round)."""
        st = self.stat(name)
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._ids[-1]
        self._ids.append(sid)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            inner = self._child.pop()
            self._ids.pop()
            self._child[-1] += t1 - t0
            st.calls += 1
            st.self_s += t1 - t0 - inner
            self.spans[sid] = (sid, parent, name, t0, t1)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


# ---------------------------------------------------------------------------
# the layers of qrefl and what each wrapper counts


def _mul_post(st, args, out):
    st.add("num_terms", len(out.num))


def _eq_post(st, args, out):
    a, b = args
    if getattr(b, "den", a.den) != a.den or getattr(b, "iden", a.iden) != a.iden:
        st.add("cross", 1)


def _mono_post(st, args, out):
    st.add("terms_in", len(args[0].terms))
    st.add("kept", len(out.terms))


def _torus_out_post(st, args, out):
    st.add("terms_out", len(out.terms))


def _weyl_out_post(st, args, out):
    st.add("terms_out", len(out))


def _lp_post(st, args, out):
    st.add("rows", len({tuple(a) for a in args[0]}))


def install_layers(tracer, verify_tasks):
    """Wrap every layer named in the README's mapping table."""
    from qrefl import cluster, compose, nilgroup, qtorus, qweyl, verify
    from qrefl.params import LinSystem
    from qrefl.scalars import ScalarQ

    tracer.wrap_method(ScalarQ, "__mul__", "scalars.mul", True, _mul_post)
    tracer.wrap_method(ScalarQ, "__add__", "scalars.add", True)
    tracer.wrap_method(ScalarQ, "__eq__", "scalars.eq", True, _eq_post)
    tracer.wrap_method(qtorus.TorusSeries, "mul_monomial",
                       "qtorus.mul_monomial", True, _mono_post)
    tracer.wrap_method(qtorus.TorusSeries, "__eq__", "qtorus.series_eq")
    tracer.wrap_method(qweyl.WeylSeries, "mul_monomial",
                       "qweyl.mul_monomial", True, _mono_post)
    tracer.wrap_method(qweyl.WeylSeries, "equal_on", "qweyl.equal_on")
    tracer.wrap_method(qweyl.AffineCanonMap, "compose", "qweyl.affine_compose")
    tracer.wrap_method(LinSystem, "eliminate", "params.eliminate")
    tracer.wrap_function(qtorus, "expand_product", "qtorus.expand_product",
                         post=_torus_out_post)
    tracer.wrap_function(qweyl, "expand_weyl_product",
                         "qweyl.expand_weyl_product", post=_weyl_out_post)
    tracer.wrap_function(qtorus, "stiemke_grading", "qtorus.stiemke_grading",
                         post=_lp_post)
    for fn in ("staged_certificate", "check_stage_plan", "match_stage_plan"):
        tracer.wrap_function(qtorus, fn, "qtorus.stage_plans")
    tracer.wrap_function(compose, "run_composite", "compose.run_composite")
    tracer.wrap_function(cluster, "mutate_matrix", "cluster.mutate_matrix")
    tracer.wrap_function(nilgroup, "bch_mul", "nilgroup.bch_mul")
    tracer.wrap_function(nilgroup, "adjoint", "nilgroup.adjoint")
    for task in verify_tasks:
        tracer.wrap_function(verify, task, f"verify.{task}")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, verify_tasks):
    """Per-layer figures: totals over the traced setup and round."""
    S = tracer.stat
    mul, add, eq = S("scalars.mul"), S("scalars.add"), S("scalars.eq")
    tm, wm = S("qtorus.mul_monomial"), S("qweyl.mul_monomial")
    out = {
        "scalars.mul.calls": (mul.calls, "count"),
        "scalars.add.calls": (add.calls, "count"),
        "scalars.eq.calls": (eq.calls, "count"),
        "scalars.self_s": (mul.self_s + add.self_s + eq.self_s, "s"),
        "scalars.eq.cross_ratio": (_ratio(eq.extra.get("cross", 0), eq.calls), "ratio"),
        "scalars.mul.num_terms_mean": (_ratio(mul.extra.get("num_terms", 0), mul.calls), "count"),
    }
    for layer, mono, out_stat in (("qtorus", tm, "qtorus.expand_product"),
                                  ("qweyl", wm, "qweyl.expand_weyl_product")):
        ex = S(out_stat)
        out[f"{out_stat}.self_s"] = (ex.self_s, "s")
        out[f"{out_stat}.calls"] = (ex.calls, "count")
        out[f"{out_stat}.terms_out"] = (ex.extra.get("terms_out", 0), "count")
        out[f"{layer}.mul_monomial.calls"] = (mono.calls, "count")
        out[f"{layer}.mul_monomial.terms_in"] = (mono.extra.get("terms_in", 0), "count")
        out[f"{layer}.mul_monomial.kept_ratio"] = (
            _ratio(mono.extra.get("kept", 0), mono.extra.get("terms_in", 0)), "ratio")
        out[f"{layer}.mul_monomial.self_s"] = (mono.self_s, "s")
    out["qtorus.series_eq.self_s"] = (S("qtorus.series_eq").self_s, "s")
    out["qweyl.equal_on.self_s"] = (S("qweyl.equal_on").self_s, "s")
    lp = S("qtorus.stiemke_grading")
    out["qtorus.stiemke_grading.self_s"] = (lp.self_s, "s")
    out["qtorus.stiemke_grading.calls"] = (lp.calls, "count")
    out["qtorus.stiemke_grading.rows"] = (lp.extra.get("rows", 0), "count")
    out["qtorus.stage_plans.self_s"] = (S("qtorus.stage_plans").self_s, "s")
    for name in ("compose.run_composite", "cluster.mutate_matrix",
                 "qweyl.affine_compose", "nilgroup.bch_mul", "params.eliminate"):
        out[f"{name}.self_s"] = (S(name).self_s, "s")
        out[f"{name}.calls"] = (S(name).calls, "count")
    out["nilgroup.adjoint.self_s"] = (S("nilgroup.adjoint").self_s, "s")
    for task in verify_tasks:
        out[f"verify.{task}.self_s"] = (S(f"verify.{task}").self_s, "s")
    return out
