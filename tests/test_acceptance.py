"""Acceptance gate: every spec criterion at its stated tolerance.

Runs the selftest once per module and asserts each criterion, printing one
line each. Criterion 12 compares the report with the one a fresh interpreter
computes for the same seed; the tests at the end swap the child launcher or
the parent's report to check that every failure of that child is a failed
verdict, never a crash or an orphan process.
"""

import json
import os
import re
import signal
import subprocess
import sys
from collections import Counter

import pytest

from dwork_forge import acceptance
from dwork_forge import breuil as br
from dwork_forge import hypergeom as hg
from dwork_forge import ordinarity as od
from dwork_forge import unitary as un
from dwork_forge.cyclotomic import ExactDivisionFailed
from dwork_forge.ff import field_make
from dwork_forge.util import VerificationFailed, check, stable_json

from breuil_oracles import breuil_sweep_tuples

DESCRIPTIONS = {
    1: "trace oracle equivalence (fast == naive, < 30 s)",
    2: "determinant |const| = q^(n(n-1)/2), exact signed check",
    3: "purity |alpha|^2 = q^(n-1) within 1e-6",
    4: "norm identity, exact mod lambda, zero failures",
    5: "unit-root implication at u-nonvanishing points",
    6: "Lucas congruence, 500 seeded instances per l",
    7: "Breuil slope invariants, exhaustive sweep (< 60 s)",
    8: "witness disjunction for negative-total tuples",
    9: "non-surjectivity oracle (witness/window/monodromy)",
    10: "chain slope forcing, exhaustive",
    11: "unitary suite (normalization, sym powers, induced)",
    12: "determinism: byte-identical report from a fresh interpreter",
}


@pytest.fixture(scope="module")
def report():
    rep, timings, ok = acceptance.selftest(seed=0)
    return rep, timings


@pytest.mark.parametrize("cid", sorted(DESCRIPTIONS))
def test_criterion(report, cid):
    rep, timings = report
    entry = next(c for c in rep["criteria"] if c["id"] == cid)
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"{status} criterion {cid}: {DESCRIPTIONS[cid]} "
          f"[{timings.get(cid, 0.0):.1f}s]")
    assert entry["passed"], entry


def test_timing_budgets(report):
    rep, _ = report
    c1 = next(c for c in rep["criteria"] if c["id"] == 1)
    c7 = next(c for c in rep["criteria"] if c["id"] == 7)
    assert c1["budget_s"] == 30 and c7["budget_s"] == 60


def test_advisory_full_ordinarity_reported(report):
    rep, _ = report
    c5 = next(c for c in rep["criteria"] if c["id"] == 5)
    assert "advisory_fully_ordinary" in c5
    # expected (not asserted by the criterion) to hold at 100% here
    assert c5["advisory_fully_ordinary"] is True


def _criterion_12(rep):
    return next(c for c in rep["criteria"] if c["id"] == 12)


FAKE_REPORT = {"schema_version": 1, "seed": 0, "criteria": [],
               "all_passed": True}


@pytest.fixture
def fake_parent(monkeypatch):
    """The parent computes a fixed, cheap report instead of the real one."""
    monkeypatch.setattr(acceptance, "run_report",
                        lambda seed: ({**FAKE_REPORT, "criteria": []}, {}))


def _python_child(code):
    return lambda seed: subprocess.Popen([sys.executable, "-c", code],
                                         stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE)


def test_rerun_for_another_seed_fails(monkeypatch):
    launch = acceptance._launch_rerun
    monkeypatch.setattr(acceptance, "_launch_rerun", lambda seed: launch(seed + 1))
    rep, _, ok = acceptance.selftest(seed=0)
    assert not ok and _criterion_12(rep)["passed"] is False
    assert all(c["passed"] for c in rep["criteria"] if c["id"] != 12)


def test_child_exit_status_fails_even_with_equal_bytes(monkeypatch, fake_parent):
    code = (f"import sys; sys.stdout.write({stable_json(FAKE_REPORT)!r}); "
            "sys.exit(1)")
    monkeypatch.setattr(acceptance, "_launch_rerun", _python_child(code))
    rep, _, ok = acceptance.selftest(seed=0)
    entry = _criterion_12(rep)
    assert not ok and entry["passed"] is False
    assert "status 1" in entry["error"]


def test_child_that_cannot_start_fails(monkeypatch, fake_parent):
    monkeypatch.setattr(acceptance.sys, "executable",
                        os.path.join(os.sep, "nonexistent", "python3"))
    rep, _, ok = acceptance.selftest(seed=0)
    entry = _criterion_12(rep)
    assert not ok and entry["passed"] is False
    assert entry["error"].startswith("fresh interpreter did not start")


def test_child_is_reaped_when_the_parent_report_raises(monkeypatch):
    children = []

    def launch(seed):
        children.append(_python_child("import time; time.sleep(60)")(seed))
        return children[-1]

    def broken_report(seed):
        raise RuntimeError("parent report failed")

    monkeypatch.setattr(acceptance, "_launch_rerun", launch)
    monkeypatch.setattr(acceptance, "run_report", broken_report)
    with pytest.raises(RuntimeError):
        acceptance.selftest(seed=0)
    (child,) = children
    assert child.returncode == -signal.SIGKILL
    assert child.stdout.closed and child.stderr.closed


def test_stale_parent_cache_is_caught(monkeypatch):
    # An in-process rerun would re-read this emptied sweep and agree with it.
    sweep = acceptance._sweep
    params, k, _ = sweep(3, 2, 7)
    monkeypatch.setattr(acceptance, "_sweep", lambda *key: (params, k, [])
                        if key == (3, 2, 7) else sweep(*key))
    rep, _, ok = acceptance.selftest(seed=0)
    assert not ok and _criterion_12(rep)["passed"] is False


def test_child_refuses_another_copy_of_the_package():
    pkg = os.path.dirname(os.path.abspath(acceptance.__file__))
    child = subprocess.run(
        [sys.executable, "-c", acceptance._RERUN, os.path.dirname(pkg),
         os.path.join(pkg, "elsewhere"), "0"], capture_output=True, timeout=60)
    assert child.returncode != 0 and child.stdout == b""


def test_cli_import_leaves_subprocess_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(acceptance.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import dwork_forge.cli; print('subprocess' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def _difference(e, s, t):
    return tuple(si - ti - e for si, ti in zip(s, t))


def test_criteria_7_and_8_compute_slope_data_once_per_difference():
    tuples = list(breuil_sweep_tuples())
    negative = [(p, e, f, s, t) for p, e, f, s, t in tuples
                if sum(s) - sum(t) - e * f < 0]
    distinct = {(_difference(e, s, t), p, f) for p, e, f, s, t in tuples}
    cases = {(p, e, f, _difference(e, s, t)) for p, e, f, s, t in tuples}
    negative_cases = {(p, e, f, _difference(e, s, t))
                      for p, e, f, s, t in negative}
    br._slopes.cache_clear()
    assert acceptance.criterion_7()["tuples"] == len(tuples)
    assert acceptance.criterion_8()["tuples"] == len(negative)
    info = br._slopes.cache_info()
    assert info.misses == len(distinct)
    assert info.hits + info.misses == len(cases) + len(negative_cases)


def test_sweep_differences_cover_the_sweep_with_multiplicities():
    totals = Counter()
    for p, e, f, s, t, mult in acceptance._breuil_sweep_differences():
        assert all(0 <= v <= e * (p - 2) for v in s + t)
        totals[(p, e, f)] += mult
    assert totals == {(p, e, f): (e * (p - 2) + 1) ** (2 * f)
                      for p in (3, 5) for e in (1, 2, 3) for f in (1, 2)}


def test_each_sweep_tuple_is_decided_as_its_representative():
    reps = {(p, e, f, _difference(e, s, t)): (s, t, mult)
            for p, e, f, s, t, mult in acceptance._breuil_sweep_differences()}
    counts = Counter()
    for p, e, f, s, t in breuil_sweep_tuples():
        c = _difference(e, s, t)
        rs, rt, _ = reps[(p, e, f, c)]
        counts[(p, e, f, c)] += 1
        # the representative has the largest heights of its class
        assert all(x <= rx and y <= ry for x, y, rx, ry in zip(s, t, rs, rt))
        assert br.slope_data(s, t, e, p, f) == br.slope_data(rs, rt, e, p, f)
        if sum(c) < 0:
            i, x = br.genericity_obstruction(s, t, e, p, f)
            ri, rx = br.genericity_obstruction(rs, rt, e, p, f)
            # so the witness checks of criterion 8 read the same
            assert (i, x - s[i], x - t[i]) == (ri, rx - rs[i], rx - rt[i])
    assert counts == {key: mult for key, (_, _, mult) in reps.items()}


def test_criterion_11_certifies_each_normal_form_once(monkeypatch):
    calls = {"normal_form": 0, "certifies_identity": 0}

    def counted(name):
        fn = getattr(un, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(un, name, counted(name))
    entry = acceptance.criterion_11(0)
    assert entry["passed"]
    forms = sum(v for k, v in entry["details"].items()
                if k.startswith("normalize_"))
    assert calls["certifies_identity"] == calls["normal_form"] > forms


def _cold_acceptance_caches(cold_cache):
    return [cold_cache(acceptance, name)
            for name in ("_sweep", "_ordinary_test", "_norm_identity")]


def test_criterion_5_alone_builds_the_sweep_it_reuses(report, cold_cache):
    rep, _ = report
    expected = {c["id"]: c for c in rep["criteria"] if c["id"] in (2, 5)}
    sweep, _, _ = _cold_acceptance_caches(cold_cache)
    c5, _ = acceptance.run_criterion(5)
    # its d = 1 newton polygons went onto criterion 2's records
    built = sweep.cache_info().misses
    for N, n, l in acceptance.NORM_CONFIGS:
        assert all(rec.slopes is not None for rec in sweep(N, n, l)[2])
    assert sweep.cache_info().misses == built
    c2, _ = acceptance.run_criterion(2)
    assert {2: c2, 5: c5} == expected


def test_criterion_5_reads_the_norm_identity_rows_of_criterion_4(monkeypatch,
                                                                 cold_cache):
    # the unit-trace branch, (11,3,23) at d = 2, evaluates no u(x) of its
    # own and does not run the norm identity a second time
    _cold_acceptance_caches(cold_cache)
    u_calls, identities = [], []
    u_at = od.OrdinaryTest.u_at
    monkeypatch.setattr(od.OrdinaryTest, "u_at",
                        lambda test, x: u_calls.append(x) or u_at(test, x))
    verify = od.verify_norm_identity
    monkeypatch.setattr(od, "verify_norm_identity",
                        lambda test, d: identities.append(d) or verify(test, d))
    c4 = acceptance.criterion_4()
    assert len(identities) == len(c4["details"]) == 2 * len(acceptance.NORM_CONFIGS)
    u_calls.clear()
    identities.clear()
    c5 = acceptance.criterion_5()
    assert c5["passed"]
    assert any(d["mode"] == "unit-trace" for d in c5["details"])
    assert not identities
    assert len(u_calls) == sum(d["checked"] + d["u_zero_skipped"]
                               for d in c5["details"]
                               if d["mode"] == "newton-polygon")


def _weight_on_a_clean_degree(monkeypatch):
    weights = br._monodromy_weights

    def weighted(top, bot):
        degs, n_null, key_weights = weights(top, bot)

        def moved(key):
            w = key_weights(key)
            return [(0, 0)] if w == [] and n_null else w
        return degs, n_null, moved
    monkeypatch.setattr(br, "_monodromy_weights", weighted)


def _reverse_keys(monkeypatch):
    mismatch = br.monodromy_subspace_mismatch
    monkeypatch.setattr(
        br, "monodromy_subspace_mismatch",
        lambda top, bot, keys, clean: mismatch(top, bot, keys[::-1], clean))


def _drop_forbidden_degree(monkeypatch):
    forbidden = br.breuil_forbidden_degrees

    def dropped(top, bottom):
        return [set(sorted(ds)[:-1]) for ds in forbidden(top, bottom)]
    monkeypatch.setattr(br, "breuil_forbidden_degrees", dropped)


CRITERION_9_ERROR = re.compile(
    r"\(e, s, t\) = \((\d+), (\d+), (\d+)\), coefficients \(([\d, ]*)\): "
    r"table (True|False), clean degrees (True|False)")


@pytest.mark.parametrize("mutate, wrong", [
    (_weight_on_a_clean_degree, "table"),
    (_reverse_keys, "table"),
    (_drop_forbidden_degree, "clean degrees"),
])
def test_criterion_9_names_a_mismatching_verdict(monkeypatch, mutate, wrong):
    mutate(monkeypatch)
    entry = acceptance.criterion_9(0)
    assert entry["passed"] is False
    match = CRITERION_9_ERROR.fullmatch(entry["error"])
    assert match, entry["error"]
    e, s_, t_ = (int(g) for g in match.group(1, 2, 3))
    coeffs = [int(c) for c in match[4].split(",") if c.strip()]
    monkeypatch.undo()
    # the side the mutation touched disagrees with the unmutated checker
    F = field_make(5, 1)
    top = br.make_rank_one(5, 1, e, (s_,), F.one())
    bot = br.make_rank_one(5, 1, e, (t_,), F.one())
    _, check = br.monodromy_feasibility_checker(top, bot)
    truth = check({(0, l): F.from_int(c) for l, c in enumerate(coeffs) if c})
    verdicts = {"table": match[5] == "True", "clean degrees": match[6] == "True"}
    assert len(coeffs) == s_ and verdicts[wrong] != truth
    assert all(v == truth for side, v in verdicts.items() if side != wrong)


@pytest.mark.parametrize("error", [ExactDivisionFailed, hg.RootFindingFailed,
                                   br.PreconditionViolated, br.WindowTooSmall,
                                   un.Degenerate])
def test_raised_check_failure_fails_the_criterion(monkeypatch, error):
    def refuse(rec):
        raise error("refused")
    monkeypatch.setattr(hg, "verify_purity", refuse)
    entry, _ = acceptance.run_criterion(3)
    assert entry == {"id": 3, "name": "purity of weight n-1", "passed": False,
                     "error": f"{error.__name__}: refused"}


def test_raised_check_failure_is_named_without_docstrings():
    # -OO strips docstrings, so the name must not come from one
    src = os.path.dirname(os.path.dirname(os.path.abspath(acceptance.__file__)))
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from dwork_forge import acceptance, hypergeom\n"
            "def refuse(rec):\n"
            "    raise hypergeom.RootFindingFailed('refused')\n"
            "hypergeom.verify_purity = refuse\n"
            "print(json.dumps(acceptance.run_criterion(3)[0]))\n")
    proc = subprocess.run([sys.executable, "-OO", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"id": 3, "name": acceptance.NAMES[3],
                                       "passed": False,
                                       "error": "RootFindingFailed: refused"}


def test_every_criterion_reports_its_table_name(report):
    rep, _ = report
    assert {c["id"]: c["name"] for c in rep["criteria"]} == acceptance.NAMES


def test_failed_assert_is_a_named_failed_criterion(monkeypatch):
    # criterion 10 verifies with util.check, which names the first bad chain
    monkeypatch.setattr(br, "chain_slope_check", lambda chain, e: False)
    entry, _ = acceptance.run_criterion(10)
    assert entry == {"id": 10, "name": "chain slope forcing (exhaustive)",
                     "passed": False,
                     "error": "VerificationFailed: (1, 1, 1, ((0,),))"}


def test_layer_check_is_a_named_failed_criterion(monkeypatch):
    # a layer's own invariant check fails the criterion that drives it
    def refuse(*args):
        check(False, "recurrence")
    monkeypatch.setattr(br, "slope_data", refuse)
    entry, _ = acceptance.run_criterion(7)
    assert entry == {"id": 7, "name": acceptance.NAMES[7], "passed": False,
                     "error": "VerificationFailed: recurrence"}


def test_check_raises_verification_failed():
    check(True, "unused")
    with pytest.raises(VerificationFailed, match=r"^\(1, 2\)$"):
        check(False, (1, 2))
    assert all(issubclass(error, VerificationFailed) for error in (
        ExactDivisionFailed, hg.RootFindingFailed, br.WindowTooSmall))


# Each patch breaks one util.check of criteria 8-11; python -O keeps them all.
OPTIMIZED_BREAKS = {
    "witness bounds": (8, "breuil.genericity_obstruction = "
                          "lambda s, t, e, p, f: (0, t[0])"),
    "witness verdict": (9, "breuil.obstruction_frame_verdicts = "
                           "lambda top, bot, witness: (True, [])"),
    "clean classes": (9, "breuil.obstruction_frame_verdicts = "
                         "lambda top, bot, witness: (False, ['x'])"),
    "spot checks": (9, "breuil.monodromy_feasibility_checker = "
                       "lambda top, bot: (None, lambda y: None)"),
    "chain slopes": (10, "breuil.chain_slope_check = lambda chain, e: False"),
    "is_gu": (11, "unitary.is_gu = lambda B, p, Fq: None"),
}


@pytest.mark.parametrize("broken", sorted(OPTIMIZED_BREAKS))
def test_criterion_check_fails_under_optimize(broken):
    k, patch = OPTIMIZED_BREAKS[broken]
    src = os.path.dirname(os.path.dirname(os.path.abspath(acceptance.__file__)))
    code = ("import json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from dwork_forge import acceptance, breuil, unitary\n"
            f"{patch}\n"
            f"print(json.dumps(acceptance.run_criterion({k})[0]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(proc.stdout)
    assert entry["id"] == k and entry["passed"] is False
    assert entry["error"].startswith("VerificationFailed: ")
