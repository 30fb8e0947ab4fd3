"""The package root registers every layer lazily: a process runs the code of
only the layers it uses, and every layer still resolves by name."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import dwork_forge

LAYERS = ("acceptance", "breuil", "convolution", "cyclotomic", "ff", "hypergeom",
          "lambda_adic", "linalg", "ordinarity", "unitary", "util")

# The names the package root used to re-export, each from its layer.
FORMER_ROOT_EXPORTS = {
    "cyclotomic": ("CyclotomicInt", "ExactDivisionFailed", "conj", "embed_complex"),
    "ff": ("FFElem", "FieldDesc", "IncompatibleFields", "InvalidDegree",
           "NNotDividingQMinus1", "NotPrime", "TooLarge", "char_value",
           "extension_of", "field_make", "norm_to_subfield"),
    "hypergeom": ("CharPolyRecord", "HGParams", "NoSumZeroSet", "char_poly",
                  "newton_polygon", "select_chi", "trace_all_fast", "trace_at",
                  "trace_naive", "verify_det", "verify_purity"),
    "lambda_adic": ("LambdaPrime", "lambda_prime", "reduce_mod_lambda", "val_lambda"),
    "ordinarity": ("OrdinaryTest", "build_ordinary_test", "exponents_c",
                   "lucas_check", "ordinary_locus", "u_poly", "unit_root_check",
                   "verify_norm_identity"),
}

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))


def _child(*args):
    """A fresh interpreter that compiles from source and fails on any warning."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


# type() reads no attribute of the module, so it does not trigger a lazy load
_RAN = ("import contextlib, io, sys, types\n"
        "import dwork_forge.cli as cli\n"
        "def ran():\n"
        "    return sorted(n.rpartition('.')[2] for n, m in sys.modules.items()\n"
        "                  if n.startswith('dwork_forge.')\n"
        "                  and type(m) is types.ModuleType)\n"
        "print(ran())\n"
        "if len(sys.argv) > 1:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(sys.argv[1:]) == 0\n"
        "    print(ran())\n")

CLI_LAYERS = ["cli", "ff", "util"]
HG_LAYERS = ["convolution", "cyclotomic", "hypergeom", "lambda_adic"]


def test_importing_cli_runs_only_cli_ff_and_util():
    out = _child("-c", _RAN)
    assert out.stderr == "" and out.returncode == 0
    assert out.stdout == f"{CLI_LAYERS}\n"


@pytest.mark.parametrize("argv,layers", [
    ("breuil-generic --p 3 --e 1 --f 1", ["breuil", "linalg"]),
    ("breuil-oracle --p 5 --e 2 --f 1 --s 3 --t 0 --y 1:1", ["breuil", "linalg"]),
    ("breuil-chain --d 2 --e 1 --f 2", ["breuil", "linalg"]),
    ("unitary-sym --p 5 --beta 1 --n 1 --m 2", ["linalg", "unitary"]),
    ("unitary-normalize --q 5 --matrix [[[2,0],[0,0]],[[0,0],[3,0]]]",
     ["linalg", "unitary"]),
    ("hg-trace --N 3 --n 2 --q 7 --x 3", HG_LAYERS),
    ("hg-charpoly --N 3 --n 2 --q 7 --x 3 --l 7", HG_LAYERS),
    ("hg-scan --N 3 --n 2 --q 7 --l 7", HG_LAYERS),
    ("ordinary-scan --N 3 --n 2 --l 7", HG_LAYERS + ["ordinarity"]),
])
def test_subcommand_runs_only_its_layers(argv, layers):
    out = _child("-c", _RAN, *argv.split(" "))
    assert out.stderr == "" and out.returncode == 0
    assert out.stdout == f"{CLI_LAYERS}\n{sorted(CLI_LAYERS + layers)}\n"


def test_cli_as_main_module_runs_once_without_warnings():
    # a registered cli would be run again by runpy, with a RuntimeWarning
    out = _child("-m", "dwork_forge.cli", "breuil-chain", "--d", "2", "--e", "1",
                 "--f", "1")
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == ('{"chains_checked":1,"d":2,"e":1,"f":1,"forced":true,'
                          '"schema_version":1}\n')


@pytest.mark.parametrize("layer", LAYERS)
def test_every_layer_resolves_from_the_package(layer):
    mod = getattr(dwork_forge, layer)
    assert mod is sys.modules[f"dwork_forge.{layer}"]
    assert mod is importlib.import_module(f"dwork_forge.{layer}")
    assert mod.__name__ == f"dwork_forge.{layer}"   # runs the layer's code
    assert type(mod) is types.ModuleType


@pytest.mark.parametrize("layer", sorted(FORMER_ROOT_EXPORTS))
def test_former_root_exports_import_from_their_layer(layer):
    mod = importlib.import_module(f"dwork_forge.{layer}")
    assert [name for name in FORMER_ROOT_EXPORTS[layer] if not hasattr(mod, name)] == []


@pytest.mark.parametrize("layer,name", [("convolution", "conv2d_cyclic"),
                                        ("hypergeom", "trace_at")])
def test_running_a_trace_layer_leaves_numpy_unloaded(layer, name):
    # numpy is imported by the first call that builds an array
    out = _child("-c", f"import sys, dwork_forge.{layer} as m; m.{name}\n"
                       "print(type(m).__name__, 'numpy' in sys.modules)")
    assert out.stderr == "" and out.returncode == 0
    assert out.stdout == "module False\n"


def test_every_package_exception_is_bad_input_or_a_failed_check():
    # bad input is a ValueError (exit 2), a failed check a VerificationFailed
    # (exit 1); nothing else may escape a subcommand
    from dwork_forge.util import VerificationFailed
    errors = []
    for info in pkgutil.iter_modules(dwork_forge.__path__):
        mod = importlib.import_module(f"dwork_forge.{info.name}")
        errors += [cls for cls in vars(mod).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException)
                   and cls.__module__ == mod.__name__]
    assert len(errors) > 10
    assert [cls.__qualname__ for cls in errors
            if issubclass(cls, ValueError) == issubclass(cls, VerificationFailed)] == []
