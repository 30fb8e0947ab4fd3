"""The acceptance suite: one function per criterion, a deterministic report.

Each criterion function returns a JSON-serializable dict with a "passed" flag
and enough detail to audit the run; run_criterion adds the id and name, and
turns a failed check (VerificationFailed) or a refused input (ValueError)
into a failing entry. Report payloads contain no wall-clock data, so two
runs with the same seed are byte-identical; timings are carried
separately. The selftest driver prints one pass/fail line per criterion.
Criterion 12 compares the report with the one a fresh interpreter computes
for the same seed, so no in-process cache can hide nondeterminism.
"""

from __future__ import annotations

import os
import random
import sys
import time
from functools import cache
from itertools import product

from . import breuil as br
from . import hypergeom as hg
from . import ordinarity as od
from . import unitary as un
from .ff import extension_of, field_make, table_fits
from .util import SCHEMA_VERSION, VerificationFailed, check, stable_json

TRACE_CONFIGS = [
    (3, 2, 7), (3, 2, 13),
    (5, 2, 11), (5, 2, 31),
    (11, 3, 23),
]

NORM_CONFIGS = [(3, 2, 7), (11, 3, 23)]   # (N, n, l), d in {1, 2}

DET_SIGN = 1  # calibrated once on the (3,2,7) sweep; also holds for (11,3,23)

# The name of each criterion, in its report entry whether it passes or fails.
NAMES = {
    1: "trace oracle equivalence",
    2: "determinant q^(n(n-1)/2), sign calibrated",
    3: "purity of weight n-1",
    4: "norm identity trace = Norm(u(x)) mod lambda",
    5: "unit root at u-nonvanishing points",
    6: "Lucas congruence",
    7: "Breuil slope invariants (exhaustive)",
    8: "witness existence (lemma disjunction)",
    9: "non-surjectivity oracle (p=5, f=1)",
    10: "chain slope forcing (exhaustive)",
    11: "unitary suite",
    12: "determinism (byte-identical reports)",
}


def criterion_1():
    """Trace oracle equivalence: trace_all_fast == trace_naive everywhere.

    The readout trace_at is compared with the oracle at every point too, and
    the same agree flag covers both engines."""
    t0 = time.monotonic()
    details = []
    ok = True
    for N, n, q in TRACE_CONFIGS:
        params = hg.select_chi(N, n)
        k = field_make(q, 1)
        fast = hg.trace_all_fast(params, k)
        agree = all(fast[x] == hg.trace_naive(params, k, x) == hg.trace_at(params, k, x)
                    for x in fast)
        ok &= agree and len(fast) == q - 2
        details.append({"N": N, "n": n, "q": q, "points": len(fast),
                        "agree": agree})
    ok &= time.monotonic() - t0 < 30.0
    return {"passed": ok, "budget_s": 30, "details": details}


@cache
def _sweep(N, n, q):
    """(params, F_q, the char_poly record at every point), shared by
    criteria 2, 3 and 5."""
    params = hg.select_chi(N, n)
    k = field_make(q, 1)
    recs = [hg.char_poly(params, k, x) for x in hg.trace_all_fast(params, k)]
    return params, k, recs


def criterion_2():
    """Determinant: |const|^2 = q^(n(n-1)), exactly in Z[zeta_N], so
    |const| = q^(n(n-1)/2) in every embedding; exact sign."""
    details = []
    ok = True
    for N, n, q in TRACE_CONFIGS:
        _, _, recs = _sweep(N, n, q)
        signs = set()
        abs_ok = True
        for rec in recs:
            rep = hg.verify_det(rec)
            abs_ok &= rep.abs_ok
            signs.add(rep.sign)
        this_ok = abs_ok and signs == {DET_SIGN}
        ok &= this_ok
        details.append({"N": N, "n": n, "q": q, "abs_ok": abs_ok,
                        "signs": sorted(str(s) for s in signs)})
    return {"passed": ok, "sign": DET_SIGN, "details": details}


def criterion_3():
    """Purity: every root has |alpha|^2 = q^(n-1) within 1e-6 relative."""
    details = []
    ok = True
    for N, n, q in TRACE_CONFIGS:
        _, _, recs = _sweep(N, n, q)
        this_ok = all(hg.verify_purity(rec) for rec in recs)
        ok &= this_ok
        details.append({"N": N, "n": n, "q": q, "pure": this_ok})
    return {"passed": ok, "details": details}


@cache
def _ordinary_test(N, n, l):
    return od.build_ordinary_test(hg.select_chi(N, n), l)


@cache
def _norm_identity(N, n, l, d):
    """What criteria 4 and 5 read off verify_norm_identity's arrays for
    (N, n, l) over F_{q_v^d}, computed once: (points, the x_dlog where the
    identity fails, points with u(x) != 0, the x_dlog of those whose reduced
    trace is zero). Only these are kept, not the arrays."""
    ident = od.verify_norm_identity(_ordinary_test(N, n, l), d)
    unit_zero = ident.u_nonzero & (ident.trace_red == 0)
    return (len(ident.x_dlog), ident.x_dlog[~ident.ok].tolist(),
            int(ident.u_nonzero.sum()), ident.x_dlog[unit_zero].tolist())


def criterion_4():
    """Exact mod-lambda norm identity at every point, d in {1, 2}.

    Sign note: the calibrated identity is trace = +Norm(u(x)) for every n;
    the (-1)^(n-1) prefactor inside the trace cancels against the
    (-1)^(n-1) produced by the n-1 vanishing character sums. Zero failures
    required.
    """
    details = []
    ok = True
    for N, n, l in NORM_CONFIGS:
        for d in (1, 2):
            points, failures, _, _ = _norm_identity(N, n, l, d)
            ok &= not failures
            details.append({"N": N, "n": n, "l": l, "d": d,
                            "points": points, "failures": failures})
    return {"passed": ok, "sign": od.NORM_IDENTITY_SIGN, "details": details}


def criterion_5():
    """Unit-root implication u(x) != 0 => min normalized slope = 0.

    Slope records are computed wherever the field-size envelope allows the
    d = 1..n extension scans: (3,2,7) at d in {1,2} and (11,3,23) at d = 1.
    For (11,3,23) at d = 2 the polygon would need traces over F_23^6
    (~1.5e8 points, beyond the 2^20 table limit), so the min-slope clause is
    verified there through its exact equivalent, the unit-trace clause
    u(x) != 0 => val_lambda(trace) = 0, which is what forces the slope-0
    segment; it reads u(x) != 0 and the reduced trace off criterion 4's
    norm-identity arrays. Full ordinarity is advisory.
    """
    details = []
    ok = True
    advisory_all = True
    for N, n, l in NORM_CONFIGS:
        test = _ordinary_test(N, n, l)
        for d in (1, 2):
            K = extension_of(test.field_v, d)
            if table_fits(K.p, K.f * n):
                if d == 1:    # criterion 2's sweep over the same field
                    recs = _sweep(N, n, K.q)[2]
                else:
                    recs = [hg.char_poly(test.params, K, x)
                            for x in hg.trace_all_fast(test.params, K)]
                checked = skipped = full = 0
                for rec in recs:
                    hg.newton_polygon(rec, test.lam)
                    rep = od.unit_root_check(test, rec)  # raises on violation
                    if rep.skipped:
                        skipped += 1
                    else:
                        checked += 1
                        full += rep.fully_ordinary
                advisory = (full == checked)
                advisory_all &= advisory
                details.append({"N": N, "n": n, "l": l, "d": d,
                                "mode": "newton-polygon", "checked": checked,
                                "u_zero_skipped": skipped,
                                "fully_ordinary": advisory})
            else:
                points, _, checked, bad = _norm_identity(N, n, l, d)
                skipped = points - checked
                ok &= not bad
                details.append({"N": N, "n": n, "l": l, "d": d,
                                "mode": "unit-trace", "checked": checked,
                                "u_zero_skipped": skipped, "violations": bad})
    return {"passed": ok, "advisory_fully_ordinary": advisory_all,
            "details": details}


def criterion_6(seed):
    """Lucas congruence on 500 seeded random (c, d, r) instances per l."""
    rng = random.Random(seed)
    details = []
    ok = True
    for l in (5, 7, 11):
        fails = 0
        for _ in range(500):
            d = rng.randint(1, 3)
            c = rng.randint(1, l - 2)
            digits = [rng.randint(0, l - 2) for _ in range(d)]
            if not od.lucas_check(c, l, d, digits, l):
                fails += 1
        ok &= fails == 0
        details.append({"l": l, "instances": 500, "failures": fails})
    return {"passed": ok, "details": details}


def _breuil_sweep_differences():
    """(p, e, f, s, t, multiplicity) over the sweep's (p, e, f): one
    representative (s, t) per distinct s - t, from breuil.frame_classes."""
    for p in (3, 5):
        for e in (1, 2, 3):
            for f in (1, 2):
                for _, s, t, mult in br.frame_classes(p, e, f):
                    yield p, e, f, s, t, mult


def criterion_7():
    """Exhaustive slope invariants: recurrence and r_i in [1, p]. They read
    (s, t, e) only through c = s - t - e, so one representative per c
    stands for all of its tuples."""
    t0 = time.monotonic()
    count = 0
    for p, e, f, s, t, mult in _breuil_sweep_differences():
        br.slope_data(s, t, e, p, f)  # checks both invariants
        count += mult
    ok = time.monotonic() - t0 < 60.0
    return {"passed": ok, "tuples": count, "budget_s": 60}


def criterion_8():
    """Witness disjunction for every negative-total tuple in the sweep, once
    per c: i reads the floors and r, x - t_i = c_i + floor(n_{i+1}) + delta
    (delta in {1, 2}), and x <= s_i - e is floor(n_{i+1}) + delta <= 0."""
    count = 0
    for p, e, f, s, t, mult in _breuil_sweep_differences():
        if sum(s) - sum(t) - e * f >= 0:
            continue
        # evaluates the disjunction once and checks that some index meets it
        i, x = br.genericity_obstruction(s, t, e, p, f)
        check((x - t[i]) % p != 0 and x <= s[i] - e, (p, e, f, s, t))
        count += mult
    return {"passed": True, "tuples": count}


def criterion_9(seed):
    """Non-surjectivity oracle at p=5, f=1, e in {1,2}.

    For each (s, t) with s - t - e < 0: monodromy feasibility agrees with the
    forbidden-degree predicate on all candidate y over F_5; the constructed
    witness class is change-of-variables infeasible; and every clean
    BK-allowed class normalizes into the image windows and its window class
    is feasible. The first is the identity K = V of the subspace of feasible
    y and that of the clean ones, proved once per pair by
    breuil.monodromy_subspace_mismatch; a y where it fails is named with
    (e, s, t). Four seeded y per pair spot-check the clean-degree predicate
    against the batch checker and the one-shot solver, with and without a
    random unit d (verdicts are d-independent).
    """
    p, f = 5, 1
    F = field_make(p, 1)
    one = F.one()
    rng = random.Random(seed)
    pairs = 0
    y_checked = 0
    details = []
    for e in (1, 2):
        hi = e * (p - 2)
        for s_ in range(hi + 1):
            for t_ in range(hi + 1):
                if s_ - t_ - e >= 0:
                    continue
                top = br.make_rank_one(p, f, e, (s_,), one)
                bot = br.make_rank_one(p, f, e, (t_,), one)
                # monodromy feasibility == forbidden-degree predicate, all y
                forb = br.breuil_forbidden_degrees(top, bot)[0]
                mismatch = br.monodromy_subspace_mismatch(
                    top, bot, [(0, l) for l in range(s_)],
                    [l not in forb for l in range(s_)])
                if mismatch is not None:
                    y, v = mismatch
                    clean = forb.isdisjoint(
                        l for l, c in enumerate(y) if not c.is_zero())
                    error = (f"(e, s, t) = ({e}, {s_}, {t_}), coefficients "
                             f"{tuple(c.encoding for c in y)}: table {v}, "
                             f"clean degrees {clean}")
                    return {"passed": False, "error": error}
                y_checked += p ** s_
                # the witness class is reached by no crystalline extension
                i, x = br.genericity_obstruction((s_,), (t_,), e, p, f)
                reached, failures = br.obstruction_frame_verdicts(
                    top, bot, (i, x))
                check(not reached, (e, s_, t_))
                # constructive direction: each clean basis class round-trips
                check(not failures, (e, s_, t_, failures))
                # spot check the predicate against the batch checker and the
                # one-shot solver, with and without a random unit d
                _, feasible = br.monodromy_feasibility_checker(top, bot)
                for _ in range(4):
                    coeffs = tuple(rng.randrange(p) for _ in range(s_))
                    y = {(0, l): F.from_int(c) for l, c in enumerate(coeffs) if c}
                    v1 = br.solve_monodromy(top, bot, y) != br.INFEASIBLE
                    d_unit = {0: F.from_dlog(rng.randrange(p - 1)),
                              1: F.from_int(rng.randrange(p))}
                    v2 = br.solve_monodromy(top, bot, y, d_unit) != br.INFEASIBLE
                    check(v1 == v2 == feasible(y)
                          == forb.isdisjoint(l for _, l in y), (e, s_, t_, coeffs))
                pairs += 1
        details.append({"e": e, "pairs_done": pairs})
    return {"passed": True, "pairs": pairs, "y_candidates": y_checked,
            "details": details}


def criterion_10():
    """Chain-slope forcing, exhaustive over d <= 4, e <= 2, f <= 2."""
    chains = 0
    for d, e, f in product((1, 2, 3, 4), (1, 2), (1, 2)):
        for chain in br.increasing_chains(d, e, f):
            check(br.chain_slope_check(chain, e), (d, e, f, chain))
            chains += 1
    return {"passed": True, "chains": chains}


def criterion_11(seed):
    """Unitary suite: normalization, symmetric powers, induced spectra."""
    rng = random.Random(seed)
    details = {}
    for q in (3, 5, 7):
        for n in (2, 3, 4):
            Fq, Fq2 = un.gu_fields(q)
            add = Fq2.k_add
            done = 0
            while done < 200:
                M = [[Fq2.k_of_encoding(rng.randrange(Fq2.q))
                      for _ in range(n)] for _ in range(n)]
                A = [[add(x, y) for x, y in zip(r1, r2)]
                     for r1, r2 in zip(M, un.adjoint_ks(Fq2, M, q))]
                sp = un.HermitianSpace(q, Fq2, A)
                if not sp.nondegenerate:
                    continue
                un.normal_form(sp)    # checks C-dagger A C = I
                done += 1
            details[f"normalize_q{q}_n{n}"] = done
    for p, m, n in ((7, 2, 1), (11, 3, 2), (13, 2, 3)):
        beta = 2 if p != 7 else 3
        B, eigs, alpha = un.sym_power_embed(beta, n, m, p)
        Fq = field_make(p, 1)
        check(m == 1 or un.is_gu(B, p, Fq) == Fq.one(), (p, m, n))
        details[f"sym_p{p}_m{m}_n{n}"] = "su+spectrum"
    for m in (2, 3):
        qbase = 13
        Fb = field_make(qbase, 1)
        for _ in range(25):
            psis = [Fb.from_dlog(rng.randrange(qbase - 1)) for _ in range(m)]
            un.induced_spectrum(psis, Fb)  # checks det(X - M) = X^m - c
        details[f"induced_m{m}"] = 25
    return {"passed": True, "details": details}


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11,
}

SEEDED = {6, 9, 11}


def run_criterion(k, seed=0):
    """(entry, elapsed seconds) for criterion k. The entry is its id and name
    and what the criterion returned; a failed check or a refused input ends
    it with passed: false and the error."""
    t0 = time.monotonic()
    try:
        result = CRITERIA[k](seed) if k in SEEDED else CRITERIA[k]()
    except (ValueError, VerificationFailed) as exc:
        result = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"id": k, "name": NAMES[k], **result}, time.monotonic() - t0


def run_report(seed=0):
    """Criteria 1..11 as one deterministic report dict (no timing inside)."""
    report = {"schema_version": SCHEMA_VERSION, "seed": seed, "criteria": []}
    timings = {}
    for k in sorted(CRITERIA):
        res, elapsed = run_criterion(k, seed)
        report["criteria"].append(res)
        timings[k] = elapsed
    report["all_passed"] = all(c["passed"] for c in report["criteria"])
    return report, timings


# The criterion-12 child: import dwork_forge from the parent's source tree
# (argv[1]), refuse any other copy (argv[2] is the parent's package
# directory) and write the report for seed argv[3] to stdout.
_RERUN = """\
import os, sys
sys.path.insert(0, sys.argv[1])
from dwork_forge import acceptance
if os.path.dirname(os.path.abspath(acceptance.__file__)) != sys.argv[2]:
    sys.exit("imported " + acceptance.__file__ + ", not the parent's package")
from dwork_forge.util import stable_json
sys.stdout.write(stable_json(acceptance.run_report(int(sys.argv[3]))[0]))
"""


def _launch_rerun(seed):
    """Start a fresh interpreter that computes run_report(seed) and writes
    its stable_json bytes to stdout; the caller reaps it."""
    import subprocess   # only the selftest path pays for this import
    pkg = os.path.dirname(os.path.abspath(__file__))
    return subprocess.Popen(
        [sys.executable, "-c", _RERUN, os.path.dirname(pkg), pkg, str(seed)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


def _rerun_verdict(child, expected: str):
    """(passed, error) for the child's report against the expected bytes."""
    out, err = child.communicate()
    if child.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        return False, (f"fresh interpreter exited with status {child.returncode}"
                       + (f": {lines[-1]}" if lines else ""))
    if out != expected.encode():
        return False, "fresh interpreter's report differs"
    return True, None


def selftest(seed=0):
    """Run every criterion; returns (report, timings, all_passed).

    Criterion 12 starts a fresh interpreter on the same seed before this
    process computes its own report, so the two run side by side; it passes
    only if the child exits with status 0 and its report bytes equal this
    one's.
    """
    child = verdict = None
    try:
        child = _launch_rerun(seed)
    except OSError as exc:
        verdict = False, f"fresh interpreter did not start: {exc}"
    try:
        report, timings = run_report(seed)
        t0 = time.monotonic()
        same, error = verdict or _rerun_verdict(child, stable_json(report))
        timings[12] = time.monotonic() - t0
        entry = {"id": 12, "name": NAMES[12],
                 "passed": same}
        if error:
            entry["error"] = error
        report["criteria"].append(entry)
        report["all_passed"] = report["all_passed"] and same
    finally:
        if child is not None and child.returncode is None:
            child.kill()
            child.communicate()
    return report, timings, report["all_passed"]
