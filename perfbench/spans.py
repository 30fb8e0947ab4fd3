"""Span bookkeeping shared by the traced child and the benchmark driver.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span in the same list, or -1 for a root. A span's self time
is its duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

from collections import defaultdict

# (module, attribute, span name). Every module attribute bound to the
# original object is replaced, so aliases made by ``from .x import f`` and
# values of module-level dicts (the acceptance CRITERIA table) are traced too.
FUNCTION_SPANS = [
    ("convolution", "conv2d_cyclic", "convolution"),
    ("hypergeom", "_char_rows", "hypergeom.char_rows"),
    ("hypergeom", "trace_naive", "hypergeom.naive"),
    ("hypergeom", "trace_all_fast", "hypergeom.fast"),
    ("hypergeom", "char_poly", "hypergeom.charpoly"),
    ("hypergeom", "newton_polygon", "hypergeom.polygon"),
    ("hypergeom", "verify_purity", "hypergeom.purity"),
    ("hypergeom", "verify_det", "hypergeom.det"),
    ("lambda_adic", "val_lambda", "lambda_adic.val"),
    ("lambda_adic", "reduce_mod_lambda", "lambda_adic.reduce"),
    ("ordinarity", "build_ordinary_test", "ordinarity.build"),
    ("ordinarity", "verify_norm_identity", "ordinarity.norm_identity"),
    ("ordinarity", "unit_root_check", "ordinarity.unit_root"),
    ("linalg", "solve_linear", "linalg.solve"),
    ("linalg", "null_space", "linalg.null_space"),
    ("linalg", "det", "linalg.det"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("breuil", "change_of_variables_solver", "breuil.cov"),
    ("breuil", "solve_monodromy", "breuil.monodromy"),
    ("breuil", "monodromy_feasibility_checker", "breuil.monodromy"),
    ("breuil", "normal_form_in_windows", "breuil.normal_form"),
    ("unitary", "diagonalize_to_identity", "unitary.diagonalize"),
    ("unitary", "_pairing", "unitary.pairing"),
    ("unitary", "matrix_eigenvalues", "unitary.eigen"),
    ("unitary", "induced_spectrum", "unitary.induced"),
    ("acceptance", "run_report", "acceptance.run_report"),
    ("util", "stable_json", "util.json"),
] + [("acceptance", f"criterion_{k}", f"acceptance.criterion_{k}")
     for k in range(1, 12)]

# (module, class, method, span name)
METHOD_SPANS = [
    ("ff", "FieldDesc", "__init__", "ff.build"),
    ("lambda_adic", "LambdaPrime", "_lift", "lambda_adic.lift"),
]

# Counters kept by the traced child besides span counts.
COUNTERS = ["ff.elems_created", "ff.table_elems", "convolution.cells",
            "convolution.product_bits", "hypergeom.fast_hits",
            "lambda_adic.precision_retries", "breuil.chain_checks",
            "util.out_bytes"]


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def layer_metrics(docs):
    """Per-layer metrics summed over the traced operations of one pass.

    ``docs`` are the records the traced child writes: ``{"spans": [...],
    "counters": {...}}``. Times named ``<span>_s`` are self times, except the
    acceptance criteria and the determinism rerun, which are whole durations.
    """
    span_names = {name for *_, name in FUNCTION_SPANS + METHOD_SPANS}
    self_s = dict.fromkeys(span_names, 0.0)
    calls = dict.fromkeys(span_names, 0)
    counters = dict.fromkeys(COUNTERS, 0)
    criteria = {}
    run_reports = []
    for doc in docs:
        spans = doc["spans"]
        for (name, start, end, _), st in zip(spans, self_times(spans)):
            if name in self_s:
                self_s[name] += st
                calls[name] += 1
            if name.startswith("acceptance.criterion_"):
                criteria.setdefault(name, end - start)
            elif name == "acceptance.run_report":
                run_reports.append(end - start)
        for k, v in doc["counters"].items():
            counters[k] += v

    m = {}
    for name in span_names:
        m[f"{name}_s"] = self_s[name]
        m[f"{name}_calls"] = calls[name]
    m.update(counters)
    m["convolution.s"] = m.pop("convolution_s")
    m["convolution.calls"] = m.pop("convolution_calls")
    m["ff.tables_built"] = calls["ff.build"]
    m["unitary.pairings"] = calls["unitary.pairing"]
    fast = calls["hypergeom.fast"]
    m["hypergeom.fast_cache_hit_frac"] = counters["hypergeom.fast_hits"] / fast if fast else 0.0
    for k in range(1, 12):
        name = f"acceptance.criterion_{k}"
        m[f"{name}_s"] = criteria.get(name, 0.0)
    m["acceptance.determinism_s"] = sum(run_reports[1:], 0.0)
    return m
