"""In-memory span tracer that wraps pshjb functions from outside the package.

A wrapper replaces a module or class attribute that the program looks up at
call time (for example ``hjb.map_coordinates`` or
``DelayProjectedModel.proj_cov``), records one span per call and restores
the original on ``uninstall``.  A span is ``[name, start, end, parent, op]``:
``parent`` is the index of the enclosing span (-1 at top level) and ``op``
the benchmark operation it belongs to.  Self time is a span's duration minus
the time covered by its child spans.

A target that no longer exists (renamed or removed by a later change) is
skipped and listed in ``missing``; its metrics then read zero calls.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.extra: dict[str, float] = {}   # named counters (points, bytes)
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def wrapper(self, fn, name, count=None):
        """``fn`` recorded as span ``name``.

        ``name`` may be a callable of the call arguments; ``count(args,
        kwargs)`` may return counters to add after the call.
        """
        spans, stack, extra = self.spans, self._stack, self.extra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if count is not None:
                    for key, val in count(args, kwargs).items():
                        extra[key] = extra.get(key, 0) + val

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, module, attr, name, count=None, everywhere=True):
        """Wrap ``module.attr``; with ``everywhere`` also every other pshjb
        module binding the same function object (``from .x import f``)."""
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        traced = self.wrapper(orig, name, count)
        owners = [module]
        if everywhere:
            owners += [
                mod for key, mod in list(sys.modules.items())
                if mod is not module and (key == "pshjb" or key.startswith("pshjb."))
            ]
        for mod in owners:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, traced)

    def wrap_method(self, cls, attr, name, count=None):
        """Wrap a method defined on ``cls`` itself (not inherited)."""
        if cls is None or attr not in vars(cls):
            self.missing.append(name)
            return
        self._set(cls, attr, self.wrapper(vars(cls)[attr], name, count))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- analysis ------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (inclusive) and self seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            if not self._has_ancestor(i, name):
                s["busy_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        return sum(
            1 for i, rec in enumerate(self.spans)
            if rec[0] == name and self._has_ancestor(i, ancestor)
        )

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "missing": self.missing, "spans": self.spans}, fh)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one traced call of a no-op, in seconds."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrapper(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - plain, 0.0) / n


def install_layers(tracer: Tracer):
    """Wrap the public functions of each pshjb layer."""
    from pshjb import cli, config, delay, harness, hjb, ou, smoothing, spectral

    ups = getattr(hjb, "UpsilonOperator", None)
    tracer.wrap_method(ups, "__init__", "hjb.assemble")
    tracer.wrap_method(ups, "apply", "hjb.apply")
    tracer.wrap(hjb, "map_coordinates", "hjb.interp", everywhere=False,
                count=lambda a, k: {"hjb.interp.points": len(a[1][0])})
    tracer.wrap(hjb, "h_min_values", "hjb.hamiltonian")
    tracer.wrap(hjb, "auto_select_eta", "hjb.eta_select")
    tracer.wrap(hjb, "picard_solve", "hjb.picard_solve")
    tracer.wrap(hjb, "interp_fbar", "hjb.interp_fbar")
    tracer.wrap(hjb, "h_min_batch", "hjb.h_min_batch")

    base = getattr(ou, "ProjectedModel", None)
    models = base.__subclasses__() if base is not None else []
    for query in ("proj_cov", "pushforward_cov", "proj_control"):
        defined = [cls for cls in models if query in vars(cls)]
        if not defined:
            tracer.missing.append(f"model.{query}")
        for cls in defined:
            tracer.wrap_method(cls, query, f"model.{query}")
    tracer.wrap(delay, "gramian", "delay.gramian")
    tracer.wrap(delay, "expm", "delay.expm", everywhere=False)

    tracer.wrap(smoothing, "fit_blowup", "smoothing.fit_blowup")
    tracer.wrap(spectral, "psd_sqrt", "spectral.psd_sqrt")
    tracer.wrap(spectral, "psd_pinv_sqrt", "spectral.psd_pinv_sqrt")
    tracer.wrap(ou, "sample_block_gaussian", "ou.sample_block_gaussian")
    tracer.wrap(harness, "_control_integrals", "harness.control_integrals")
    tracer.wrap(
        harness, "simulate_cost",
        lambda a, k: "harness.simulate_cost."
        + (a[2].kind if len(a) > 2 else k["policy"].kind),
    )

    def written(a, k):
        return {"cli.write.bytes": os.path.getsize(a[0])}

    tracer.wrap(cli, "_write_csv", "cli.write", count=written)
    tracer.wrap(cli, "_write_json", "cli.write", count=written)
    tracer.wrap(config, "load_config", "config.load")
