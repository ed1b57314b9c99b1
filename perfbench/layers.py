"""Per-layer metrics computed from the spans of a traced run.

Times named ``*.p50_*`` are medians over the calls of one function (or, for
``extremality.appendix``, over the appendix ops).  ``*.self_ms`` is self time
(a span minus its child spans) summed over a layer or function and divided by
the number of traced ops.  Counts are per op or per call and repeat exactly
for a given seed, because the traced run only counts whole passes over the
op list.  A metric whose function was not called reads 0.
"""
from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracer import END, EIGH, FOUND, NAME, PARENT, START, SVD

# is_extreme_in_T children that build the face and its two operators; what
# remains of its span is the intersection solve and the generator check.
FACE_AND_OPERATORS = {"extremality.face_of", "extremality.phi_D_operator", "extremality.phi_E_operator"}

SEARCH_PV = "states.search_product_vector_in_subspace"
WITNESS = "maps.boundary_witness_search"
POSITIVITY = "maps.block_positivity_sample"

# (metric, unit) in report order; BENCHMARK.json lists the same names.
METRICS = (
    ("extremality.is_extreme_in_T.p50_ms", "ms"),
    ("extremality.phi_D_operator.p50_ms", "ms"),
    ("extremality.phi_E_operator.p50_ms", "ms"),
    ("extremality.intersection.self_ms", "ms"),
    ("extremality.face_of.p50_us", "us"),
    ("extremality.self_ms", "ms/op"),
    ("extremality.appendix.p50_ms", "ms"),
    ("states.state_type.p50_us", "us"),
    ("states.is_ppt.p50_us", "us"),
    ("states.self_ms", "ms/op"),
    ("states.search_product_vector.p50_ms", "ms"),
    ("states.search_product_vector.eigh_calls", "count/call"),
    ("states.search_product_vector.found_ratio", "ratio"),
    ("maps.boundary_witness_search.p50_ms", "ms"),
    ("maps.boundary_witness_search.eigh_calls", "count/call"),
    ("maps.boundary_witness_search.found_ratio", "ratio"),
    ("maps.block_positivity_sample.p50_ms", "ms"),
    ("maps.block_positivity_sample.eigh_calls", "count/call"),
    ("maps.self_ms", "ms/op"),
    ("maps.decomposable_map.p50_us", "us"),
    ("krawtchouk.solve.calls", "count/op"),
    ("krawtchouk.solve.p50_us", "us"),
    ("krawtchouk.self_ms", "ms/op"),
    ("linalg.eigh_calls", "count/op"),
    ("linalg.svd_calls", "count/op"),
    ("linalg.eig_hermitian.self_ms", "ms/op"),
    ("linalg.numerical_kernel.self_ms", "ms/op"),
    ("linalg.numerical_rank.self_ms", "ms/op"),
    ("linalg.real_operator_matrix.self_ms", "ms/op"),
    ("serialize.self_ms", "ms/op"),
    ("cli.command_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)


def _p50(values) -> float:
    return median(values) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def span_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Every span-derived metric of METRICS, by name."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    face_ops = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
            if s[NAME] in FACE_AND_OPERATORS:
                face_ops[s[PARENT]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]

    def p50(name, scale):
        return _p50([dur[i] for i in by_name[name]]) * scale

    def self_ms(prefix):
        total = sum(own[i] for name, idx in by_name.items()
                    if name == prefix or name.startswith(prefix + ".") for i in idx)
        return total * 1e3 / n_ops

    def per_call(name, field):
        return _mean([spans[i][field] for i in by_name[name]])

    def found_ratio(name):
        return _mean([1.0 if spans[i][FOUND] else 0.0 for i in by_name[name]])

    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    extreme = by_name["extremality.is_extreme_in_T"]
    return {
        "extremality.is_extreme_in_T.p50_ms": p50("extremality.is_extreme_in_T", 1e3),
        "extremality.phi_D_operator.p50_ms": p50("extremality.phi_D_operator", 1e3),
        "extremality.phi_E_operator.p50_ms": p50("extremality.phi_E_operator", 1e3),
        "extremality.intersection.self_ms": _p50([dur[i] - face_ops[i] for i in extreme]) * 1e3,
        "extremality.face_of.p50_us": p50("extremality.face_of", 1e6),
        "extremality.self_ms": self_ms("extremality"),
        "extremality.appendix.p50_ms": p50("op.appendix", 1e3),
        "states.state_type.p50_us": p50("states.state_type", 1e6),
        "states.is_ppt.p50_us": p50("states.is_ppt", 1e6),
        "states.self_ms": self_ms("states"),
        "states.search_product_vector.p50_ms": p50(SEARCH_PV, 1e3),
        "states.search_product_vector.eigh_calls": per_call(SEARCH_PV, EIGH),
        "states.search_product_vector.found_ratio": found_ratio(SEARCH_PV),
        "maps.boundary_witness_search.p50_ms": p50(WITNESS, 1e3),
        "maps.boundary_witness_search.eigh_calls": per_call(WITNESS, EIGH),
        "maps.boundary_witness_search.found_ratio": found_ratio(WITNESS),
        "maps.block_positivity_sample.p50_ms": p50(POSITIVITY, 1e3),
        "maps.block_positivity_sample.eigh_calls": per_call(POSITIVITY, EIGH),
        "maps.self_ms": self_ms("maps"),
        "maps.decomposable_map.p50_us": p50("maps.decomposable_map", 1e6),
        "krawtchouk.solve.calls": len(by_name["krawtchouk.solve"]) / n_ops,
        "krawtchouk.solve.p50_us": p50("krawtchouk.solve", 1e6),
        "krawtchouk.self_ms": self_ms("krawtchouk"),
        "linalg.eigh_calls": sum(spans[i][EIGH] for i in roots) / n_ops,
        "linalg.svd_calls": sum(spans[i][SVD] for i in roots) / n_ops,
        "linalg.eig_hermitian.self_ms": self_ms("linalg.eig_hermitian"),
        "linalg.numerical_kernel.self_ms": self_ms("linalg.numerical_kernel"),
        "linalg.numerical_rank.self_ms": self_ms("linalg.numerical_rank"),
        "linalg.real_operator_matrix.self_ms": self_ms("linalg.real_operator_matrix"),
        "serialize.self_ms": self_ms("serialize"),
        "cli.command_ms": p50("cli.main", 1e3),
    }
