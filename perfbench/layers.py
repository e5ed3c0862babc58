"""Which dflab functions the traced run wraps, and the per-layer metrics.

Every value is per traced pipeline call, except ``max_cols`` (a maximum)
and the ratios, so runs with different numbers of calls compare directly.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from dflab import complexes, fieldla, functors, groebner, linear, ring, scenarios, simplicial

from tracer import ROOT_SPAN, Tracer, self_times


def _shape_sizes(shape, **extra):
    m, n = shape
    return {"cells": m * n, "cols": n, **extra}


def _slice_sizes(args, kwargs, result):
    explicit = len(args) > 2 or any(kwargs.get(k) is not None for k in ("src_basis", "tgt_basis"))
    return _shape_sizes(result[0].shape, certificate=explicit)


def _rank_sizes(args, kwargs, result):
    M = args[1]
    return _shape_sizes(M.shape, rank=result, room=min(M.shape))


def _normalize_sizes(args, kwargs, result):
    levels = args[0].levels.values()
    return {"level_rank": sum(m.rank for m in levels), "normalized_rank": sum(result.ranks().values())}


def _complex_sizes(args, kwargs, result):
    return {"input_rank": sum(args[0].ranks().values())}


# (module, function, sizes) of every wrapped module-level function
FUNCTIONS = [
    (linear, "graded_slice", _slice_sizes),
    (linear, "slice_basis", None),
    (linear, "multiplication_slice", None),
    (simplicial, "gamma", None),
    (simplicial, "diagonal_tensor", None),
    (simplicial, "apply_pointwise_functor", None),
    (simplicial, "normalize", _normalize_sizes),
    (simplicial, "degenerate_indices", None),
    (functors, "cauchy_det_map", None),
    (functors, "cauchy_m21_map", None),
    (complexes, "homology_graded", _complex_sizes),
    (complexes, "total_complex", None),
    (complexes, "homology_groebner", None),
    (fieldla, "rank", _rank_sizes),
    (fieldla, "nullspace", None),
    (fieldla, "rank_two", None),
    (groebner, "buchberger", None),
    (groebner, "kernel_of_columns", None),
    (groebner, "normal_form_with_cofactors", None),
    (groebner, "hilbert_dims", None),
    (scenarios, "m21_complex", None),
]
COUNTED = [
    (ring.Poly, "__mul__", "ring.Poly.mul"),
    (ring.Poly, "__add__", "ring.Poly.add"),
    (linear.MapMatrix, "col", "linear.MapMatrix.col"),
]
COLUMN_SPACE = "fieldla.ColumnSpace"
COLUMN_SPACE_METHODS = ("__init__", "add", "add_columns", "contains")
# public calls under homology_graded that only the certificates make
CERTIFICATE_SPANS = {"linear.multiplication_slice", "fieldla.nullspace", COLUMN_SPACE}


def span_name(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def install(tracer: Tracer):
    for module, attr, sizes in FUNCTIONS:
        tracer.wrap_function(module, attr, span_name(module, attr), sizes)
    for cls, attr, name in COUNTED:
        tracer.wrap_method(cls, attr, name, count_only=True)
    for attr in COLUMN_SPACE_METHODS:
        tracer.wrap_method(fieldla.ColumnSpace, attr, COLUMN_SPACE)


def wrapped_names() -> list[str]:
    names = [span_name(m, a) for m, a, _ in FUNCTIONS] + [n for _, _, n in COUNTED]
    return names + [COLUMN_SPACE]


def _is_certificate(span) -> bool:
    if span.name == "linear.graded_slice":
        return span.sizes is not None and span.sizes["certificate"]
    return span.name in CERTIFICATE_SPANS


def certificate_time(spans) -> float:
    """Inclusive time of the outermost certificate calls under homology_graded."""
    total = 0.0
    for s in spans:
        if not _is_certificate(s):
            continue
        p = s.parent
        while p >= 0 and not _is_certificate(spans[p]) and spans[p].name != "complexes.homology_graded":
            p = spans[p].parent
        if p >= 0 and spans[p].name == "complexes.homology_graded":
            total += s.end - s.start
    return total


def layer_metrics(tracer: Tracer, traced: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics from the spans of ``len(traced)`` traced pipeline calls."""
    n = len(traced)
    spans = tracer.spans
    calls, self_s = defaultdict(int), defaultdict(float)
    sizes = defaultdict(lambda: defaultdict(int))
    max_cols = 0
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_s[s.name] += own
        for key, value in (s.sizes or {}).items():
            sizes[s.name][key] += value
        if s.name == "linear.graded_slice":
            max_cols = max(max_cols, s.sizes["cols"])
    calls.update(tracer.calls)

    out = {}
    for name in wrapped_names():
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
        out[f"{name}.errors"] = tracer.errors[name] / n
    gs, rk, nz = sizes["linear.graded_slice"], sizes["fieldla.rank"], sizes["simplicial.normalize"]
    out["linear.graded_slice.cells"] = gs["cells"] / n
    out["linear.graded_slice.max_cols"] = max_cols
    out["simplicial.level_rank"] = nz["level_rank"] / n
    out["simplicial.normalized_rank"] = nz["normalized_rank"] / n
    out["simplicial.nondeg_ratio"] = _ratio(nz["normalized_rank"], nz["level_rank"])
    out["complexes.homology_graded.input_rank"] = sizes["complexes.homology_graded"]["input_rank"] / n
    out["complexes.certificates_s"] = certificate_time(spans) / n
    out["fieldla.rank.cells"] = rk["cells"] / n
    out["fieldla.rank.pivot_ratio"] = _ratio(rk["rank"], rk["room"])
    out["scenarios.residual_s"] = self_s[ROOT_SPAN] / n
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
