"""Span tracing for the benchmark, installed from outside the package.

The wrappers replace the module-level names that the layers call through,
so the package's own files are left untouched. Every wrapped call records a
span (name, start, end, parent span id, item id). Spans stay in memory and
are written out once, by :meth:`Tracer.write`. A layer's self time is its
span duration minus the time its child spans cover; calls run one at a time,
so child spans never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from renzeta import chenint, cli, emsum, exactnum, mzv, verify


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.item = None
        self.spans: list = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active = defaultdict(int)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # work counts recorded at boundaries
        self.recursions = 0
        self._undo: list = []

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; ``count(counts, args, kwargs,
        result)`` may add work counts for the call."""
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            tracer._child.append(0.0)
            tracer._active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                covered = tracer._child.pop()
                tracer._active[name] -= 1
                dur = end - start
                if tracer._child:
                    tracer._child[-1] += dur
                tracer.spans[sid] = (name, start, end, parent, tracer.item)
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - covered
                if not tracer._active[name]:
                    tracer.total[name] += dur
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer boundary the workloads cross."""

        def composition_terms(counts, args, kwargs, result):
            counts["mzv.composition.terms"] += len(result)

        def stuffle_terms(counts, args, kwargs, result):
            counts["words.stuffle.terms"] += len(result)

        wrap, patch = self.wrap, self.patch
        patch(mzv, "zeta_value", wrap("mzv.value", mzv.zeta_value))
        patch(mzv, "nested_fp_res", wrap("emsum", mzv.nested_fp_res))
        patch(mzv, "_composition_terms",
              wrap("mzv.composition", mzv._composition_terms, composition_terms))
        patch(mzv, "stuffle", wrap("words.stuffle", mzv.stuffle, stuffle_terms))
        patch(mzv, "zeta_poly_in_v", wrap("mzv.poly", mzv.zeta_poly_in_v))
        patch(mzv, "hdim_zeta", wrap("mzv.poly", mzv.hdim_zeta))
        patch(mzv, "verify_stuffle", wrap("verify", mzv.verify_stuffle))
        patch(verify, "suite_hurwitz", wrap("verify", verify.suite_hurwitz))
        patch(chenint, "chen_character_exact",
              wrap("chenint.character", chenint.chen_character_exact))
        patch(cli, "main", wrap("cli", cli.main))

        interpolate = exactnum.Poly.__dict__["interpolate"].__func__

        def interpolated(counts, args, kwargs, result):
            if self._active["mzv.poly"]:
                counts["mzv.poly.shifts"] += len(args[1]) + 2

        patch(exactnum.Poly, "interpolate",
              classmethod(wrap("exactnum.interpolate", interpolate, interpolated)))
        patch(exactnum.RationalFunction, "laurent_expand",
              wrap("exactnum.laurent_expand", exactnum.RationalFunction.laurent_expand))
        patch(chenint.BirkhoffFactorization, "plus_at_zero",
              wrap("chenint.birkhoff", chenint.BirkhoffFactorization.plus_at_zero))

        nested = emsum._nested

        def counted(exps, v, bump):
            self.recursions += 1
            return nested(exps, v, bump)

        patch(emsum, "_nested", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, states: int) -> dict:
        """Per-layer numbers of the traced pass; ``states`` is the number of
        engine memo entries the pass created."""
        c, s, own = self.calls, self.total, self.self_time
        rec = self.recursions
        return {
            "emsum.calls": c["emsum"],
            "emsum.s": s["emsum"],
            "emsum.states": states,
            "emsum.recursions": rec,
            "emsum.memo_hit_ratio": (rec - states) / rec if rec else 0.0,
            "emsum.germ_cache.size": len(emsum._germ_cache),
            "emsum.boundary_cache.size": len(emsum._boundary_cache),
            "mzv.composition.calls": c["mzv.composition"],
            "mzv.composition.terms": self.counts["mzv.composition.terms"],
            "mzv.composition.s": s["mzv.composition"],
            "mzv.values": c["mzv.value"],
            "mzv.self_s": own["mzv.value"] + own["mzv.poly"],
            "mzv.poly.calls": c["mzv.poly"],
            "mzv.poly.shifts": self.counts["mzv.poly.shifts"],
            "mzv.poly.s": s["mzv.poly"],
            "exactnum.interpolate.calls": c["exactnum.interpolate"],
            "exactnum.interpolate.s": s["exactnum.interpolate"],
            "words.stuffle.calls": c["words.stuffle"],
            "words.stuffle.terms": self.counts["words.stuffle.terms"],
            "words.stuffle.s": s["words.stuffle"],
            "chenint.character.calls": c["chenint.character"],
            "chenint.character.s": s["chenint.character"],
            "chenint.birkhoff.self_s": own["chenint.birkhoff"],
            "exactnum.laurent_expand.calls": c["exactnum.laurent_expand"],
            "exactnum.laurent_expand.s": s["exactnum.laurent_expand"],
            "verify.self_s": own["verify"],
            "cli.calls": c["cli"],
            "cli.self_s": own["cli"],
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from tracer start."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "item": item,
                }) + "\n")

