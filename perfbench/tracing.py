"""In-memory spans around the public functions the pipeline calls.

The benchmark does not instrument the program.  It replaces names in the
modules that look them up at call time (``dimpoly.pipeline`` for the stage
functions, ``dimpoly.dimension`` for the oracle and interpolation used by
validation) with wrappers that record a span per call.  A span carries its
parent's id, so self time is the span's duration minus what its children
cover, and the case index, so the spans of one case share an identifier.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    case: int | None
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "case": self.case,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_time,
            "counters": self.counters,
        }


class Tracer:
    """Collects spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.case: int | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, name, self.case, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += s.duration

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(result, args, kwargs)`` gives counters."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counters.update(count(result, args, kwargs))
            return result

        return traced


# -- counters read from each stage's inputs and results -----------------------


def _coeff_stats(elements) -> dict:
    bits = 0
    degree = 0
    for g in elements:
        for c in g.terms.values():
            if hasattr(c, "num"):  # RationalFunction over Q(a)
                degree = max(degree, len(c.num) - 1, len(c.den) - 1)
                parts = c.num + c.den
            else:
                parts = (c,)
            for x in parts:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {"max_bits": bits, "max_param_degree": degree}


def _count_buchberger(gb, args, kwargs) -> dict:
    inputs = sum(1 for g in args[0] if g)
    added = gb.completed_size - inputs
    return {
        "pairs": gb.pairs_processed,
        "added": added,
        "zero_reductions": gb.pairs_processed - added,
        "reduction_steps": gb.reduction_steps,
        "completed_size": gb.completed_size,
        "basis_size": len(gb),
        **_coeff_stats(gb.elements),
    }


def _count_staircase(stair, args, kwargs) -> dict:
    sizes = [len(a) for a in stair.per_generator]
    return {"antichain_max": max(sizes, default=0), "subsets": sum(2**k for k in sizes)}


def _count_polynomial(report, args, kwargs) -> dict:
    return {"threshold": report.validity_threshold}


def _count_oracle(counts, args, kwargs) -> dict:
    stair, r_max = args[0], args[1]
    return {"oracle_rows": math.comb(r_max + stair.n, stair.n) if r_max >= 0 else 0}


def _count_discretize(p, args, kwargs) -> dict:
    return {"terms_out": sum(len(rel.terms) for rel in p.relations)}


def _count_embed(p, args, kwargs) -> dict:
    return {"relations_out": len(p.relations)}


# (module attribute, span name, counter function)
PIPELINE_HOOKS = (
    ("discretize", "schemes.discretize", _count_discretize),
    ("embed_presentation", "inversive.embed", _count_embed),
    ("buchberger", "groebner.completion", _count_buchberger),
    ("staircase_from_basis", "dimension.staircase", _count_staircase),
    ("dimension_polynomial", "dimension.polynomial", _count_polynomial),
    ("validate_polynomial", "dimension.validate", None),
)
DIMENSION_HOOKS = (
    ("free_term_counts", "dimension.oracle", _count_oracle),
    ("lagrange_interpolate", "dimension.interpolate", None),
)


@contextmanager
def patched(tracer: Tracer):
    """Route the pipeline's stage calls through ``tracer`` while active."""
    import dimpoly.dimension
    import dimpoly.pipeline

    saved = []
    for module, hooks in ((dimpoly.pipeline, PIPELINE_HOOKS), (dimpoly.dimension, DIMENSION_HOOKS)):
        for attr, name, count in hooks:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, count))
    try:
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def case_layers(spans: list[Span]) -> dict:
    """Per-layer times and counters of one case from its spans."""
    out: dict[str, float] = {}
    for s in spans:
        key = s.name + "_s"
        out[key] = out.get(key, 0.0) + s.duration
        if s.name == "pipeline.compute_strength":
            out["pipeline.self_s"] = out.get("pipeline.self_s", 0.0) + s.self_time
        layer = s.name.split(".")[0]
        for k, v in s.counters.items():
            if k in ("max_bits", "max_param_degree"):
                out[f"coefficients.{k}"] = max(out.get(f"coefficients.{k}", 0), v)
            else:
                out[f"{layer}.{k}"] = out.get(f"{layer}.{k}", 0) + v
    return out
