"""dwork_forge: exact-arithmetic verification of hypergeometric Frobenius
data on the Dwork family, the rank-one Breuil module extension calculus, and
constructive finite unitary group normalization.

Every layer module is registered lazily: it is in sys.modules and is an
attribute of the package from the start, but its code is compiled and run
on its first attribute access, so a process runs only the layers it uses.
cli is not registered: ``python -m dwork_forge.cli`` runs it as __main__,
and a registered copy would be run a second time.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("acceptance", "breuil", "convolution", "cyclotomic", "ff",
              "hypergeom", "lambda_adic", "linalg", "ordinarity", "unitary",
              "util"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module
