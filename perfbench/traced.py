"""Run one dwork-forge command with spans around calls into each layer.

Usage: python3 perfbench/traced.py TRACE_JSON SUBCOMMAND [ARGS...]

The command's output is exactly what ``python -m dwork_forge.cli`` prints.
Spans stay in memory and are written to TRACE_JSON when the command ends;
self times are computed by the reader (spans.layer_metrics).
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

from spans import FUNCTION_SPANS, METHOD_SPANS

SPANS = []      # [name, start, end, parent]
STACK = []
COUNTERS = Counter()


def _traced(name, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = len(SPANS)
        SPANS.append([name, perf_counter(), 0.0, STACK[-1] if STACK else -1])
        STACK.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            STACK.pop()
            SPANS[idx][2] = perf_counter()
        return result if after is None else after(result, *args, **kwargs)
    return wrapper


def _counted(counter, fn):
    def wrapper(*args, **kwargs):
        COUNTERS[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _replace_everywhere(modules, orig, new):
    """Rebind every module attribute (and module-level dict value) that is
    ``orig`` to ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    if v is orig:
                        value[key] = new


# -- per-layer hooks: work counts taken outside the timed interval -----------

def _conv_sizes(a, b, L, N):
    """Cells and the Kronecker product's bit size, as conv2d_cyclic packs it."""
    COUNTERS["convolution.cells"] += L * N
    max_a = max((max(row) for row in a), default=0)
    max_b = max((max(row) for row in b), default=0)
    if max_a and max_b:
        bound = min(sum(map(sum, a)) * max_b, sum(map(sum, b)) * max_a)
        B = ((bound.bit_length() + 2 + 7) // 8) * 8
        COUNTERS["convolution.product_bits"] += B * (2 * L - 1) * (2 * N - 1)


def _fast_hit(result, *args, **kwargs):
    # A cached trace_all_fast opens no child span (no character rows, no
    # convolution), so its own span is still the last one recorded.
    COUNTERS["hypergeom.fast_hits"] += SPANS[-1][0] == "hypergeom.fast"
    return result


def _table_elems(result, desc, *args, **kwargs):
    COUNTERS["ff.table_elems"] += sum(
        len(getattr(desc, t, ())) for t in ("_pow", "_dlog", "_zech"))
    return result


def _out_bytes(result, *args, **kwargs):
    COUNTERS["util.out_bytes"] += len(result.encode("utf-8"))
    return result


def _wrap_checker(result, *args, **kwargs):
    degs, check = result   # the returned closure is criterion 9's hot loop
    return degs, _traced("breuil.monodromy", check)


BEFORE = {"conv2d_cyclic": _conv_sizes}
AFTER = {"trace_all_fast": _fast_hit, "stable_json": _out_bytes,
         "monodromy_feasibility_checker": _wrap_checker,
         "FieldDesc.__init__": _table_elems}


def install(modules):
    mods = list(modules.values())
    for mod_name, attr, name in FUNCTION_SPANS:
        orig = getattr(modules[mod_name], attr)
        _replace_everywhere(mods, orig, _traced(name, orig, BEFORE.get(attr), AFTER.get(attr)))
    for mod_name, cls_name, meth, name in METHOD_SPANS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, meth, _traced(name, getattr(cls, meth), None,
                                   AFTER.get(f"{cls_name}.{meth}")))

    ff, br, la = modules["ff"], modules["breuil"], modules["lambda_adic"]
    elem_init = ff.FFElem.__init__

    def counted_init(self, field, k):   # positional: FFElem is the hottest call
        COUNTERS["ff.elems_created"] += 1
        elem_init(self, field, k)
    ff.FFElem.__init__ = counted_init
    _replace_everywhere(mods, br.chain_slope_check,
                        _counted("breuil.chain_checks", br.chain_slope_check))
    val_auto = la.val_lambda_auto

    def val_lambda_auto(a, lam):
        result = val_auto(a, lam)
        COUNTERS["lambda_adic.precision_retries"] += result[1] is not lam
        return result
    _replace_everywhere(mods, val_auto, val_lambda_auto)


def main(argv):
    out_path, cmd = argv[0], argv[1:]
    cli = importlib.import_module("dwork_forge.cli")
    modules = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
               if name == "dwork_forge" or name.startswith("dwork_forge.")}
    install(modules)
    main_fn = _traced("cli", cli.main)     # the root span of every trace
    try:
        rc = main_fn(cmd)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": SPANS, "counters": COUNTERS}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
