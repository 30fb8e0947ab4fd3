"""Tests of the benchmark itself: the output checker, the span arithmetic,
the input generator and the traced child."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, Checker, digest, op_key  # noqa: E402
from spans import layer_metrics, self_times  # noqa: E402
from workloads import f49_adjoint, f49_det, hermitian_gram, operations  # noqa: E402

SCAN = ["hg-scan", "--N", "3", "--n", "2", "--q", "7", "--l", "7"]
CHARPOLY = ["hg-charpoly", "--N", "3", "--n", "2", "--q", "7", "--x", "3"]
TRACE = ["hg-trace", "--N", "3", "--n", "2", "--q", "7", "--x", "3"]
ORD = ["ordinary-scan", "--N", "3", "--n", "2", "--l", "7"]


def _scan_out(ok=True, count=5):
    return json.dumps({"points": [{}] * count,
                       "summary": {"det_purity_all_pass": ok, "count": count}})


def _trace_out(trace, x_dlog=2):
    return json.dumps({"N": 3, "n": 2, "q": 7, "x_dlog": x_dlog, "trace": trace})


def _normalize(C):
    A = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    argv = ["unitary-normalize", "--q", "7", "--matrix", json.dumps(A)]
    return argv, json.dumps({"C": C, "certificate": True})


GOOD = [
    (SCAN, _scan_out()),
    (CHARPOLY, json.dumps({"checks": {"det": "pass", "purity": "pass"}, "slopes": None})),
    (TRACE, _trace_out([1, 3])),                      # |1 + 3 zeta| = sqrt 7
    (ORD, "x_dlog,identity_ok\n1,1\n2,1\n"),
    _normalize([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
    (["selftest", "--seed", "0"], json.dumps({"all_passed": True, "criteria": []})),
]

CORRUPT = [
    (SCAN, _scan_out(ok=False)),
    (SCAN, _scan_out(count=4)),                      # a point went missing
    (SCAN, _scan_out()[:-1]),                        # truncated JSON
    (CHARPOLY, json.dumps({"checks": {"det": "pass", "purity": "fail"}})),
    (TRACE, _trace_out([6, 0])),                      # above 2 sqrt 7
    (TRACE, _trace_out([1, 3], x_dlog=6)),            # not a dlog mod 6
    (TRACE, _trace_out([1])),                         # not in Z[zeta_3]
    (ORD, "x_dlog,identity_ok\n1,1\n2,0\n"),
    _normalize([[[2, 0], [0, 0]], [[0, 0], [1, 0]]]),  # C^dagger A C != I
    (["selftest", "--seed", "0"],
     json.dumps({"all_passed": False, "criteria": [{"id": 4, "passed": False}]})),
]


@pytest.mark.parametrize("argv,out", GOOD)
def test_checker_accepts_good_output(argv, out):
    Checker({}).check(argv, 0, out.encode())


@pytest.mark.parametrize("argv,out", CORRUPT)
def test_checker_rejects_corrupted_output(argv, out):
    with pytest.raises(CheckFailed):
        Checker({}).check(argv, 0, out.encode())


def test_checker_rejects_exit_status_digest_and_repeat_mismatch():
    argv, out = GOOD[0][0], GOOD[0][1].encode()
    with pytest.raises(CheckFailed, match="exit status"):
        Checker({}).check(argv, 1, out)
    with pytest.raises(CheckFailed, match="digest"):
        Checker({op_key(argv): digest(b"other")}).check(argv, 0, out)
    checker = Checker({op_key(argv): digest(out)})
    checker.check(argv, 0, out)
    with pytest.raises(CheckFailed, match="repeat"):
        checker.check(argv, 0, out.replace(b'"count": 5', b'"count":  5'))


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == 10.0


def test_layer_metrics_aggregates_spans_and_counters():
    doc = {"spans": [
        ["cli", 0.0, 10.0, -1],
        ["acceptance.run_report", 0.0, 6.0, 0],
        ["acceptance.criterion_1", 0.0, 6.0, 1],
        ["hypergeom.fast", 1.0, 5.0, 2],
        ["convolution", 2.0, 4.5, 3],
        ["acceptance.run_report", 6.0, 9.0, 0],
        ["acceptance.criterion_1", 6.0, 9.0, 5],
        ["hypergeom.fast", 7.0, 7.5, 6],
    ], "counters": {"hypergeom.fast_hits": 1, "convolution.cells": 12}}
    m = layer_metrics([doc, {"spans": [], "counters": {"convolution.cells": 3}}])
    assert m["convolution.s"] == 2.5 and m["convolution.calls"] == 1
    assert m["hypergeom.fast_s"] == 1.5 + 0.5 and m["hypergeom.fast_calls"] == 2
    assert m["hypergeom.fast_cache_hit_frac"] == 0.5
    assert m["acceptance.criterion_1_s"] == 6.0        # first run, whole duration
    assert m["acceptance.determinism_s"] == 3.0        # the second run_report
    assert m["convolution.cells"] == 15
    assert m["linalg.solve_calls"] == 0 and m["ff.tables_built"] == 0


def test_generator_is_seeded_and_valid():
    for w in ("scan", "algebra", "selftest"):
        assert operations(w, 3) == operations(w, 3)
    assert operations("scan", 1) != operations("scan", 2)
    for seed in range(20):
        for argv in operations("scan", seed):
            if "--x" in argv:
                q, x = int(argv[argv.index("--q") + 1]), int(argv[argv.index("--x") + 1])
                assert 2 <= x <= q - 1
    A = [[tuple(v) for v in row] for row in hermitian_gram(random.Random(5))]
    assert f49_adjoint(A) == A and f49_det(A) != (0, 0)


def test_traced_child_output_and_aliases(tmp_path):
    """The traced child prints what the CLI prints, and the span for
    trace_all_fast also appears under ordinarity, which imports it by name."""
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": "/usr/bin:/bin"}
    argv = ["ordinary-scan", "--N", "3", "--n", "2", "--l", "7", "--d", "1"]
    plain = subprocess.run([sys.executable, "-m", "dwork_forge.cli", *argv],
                           env=env, capture_output=True, check=True, timeout=60)
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(HERE / "traced.py"), str(trace), *argv],
                            env=env, capture_output=True, check=True, timeout=60)
    assert traced.stdout == plain.stdout
    spans = json.loads(trace.read_text())["spans"]
    names = [s[0] for s in spans]
    fast = [s for s in spans if s[0] == "hypergeom.fast"]
    assert fast and spans[fast[0][3]][0] == "ordinarity.norm_identity"
    assert "convolution" in names and "ff.build" in names and names[0] == "cli"
