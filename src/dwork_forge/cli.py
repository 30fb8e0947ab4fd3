"""Batch driver CLI.

Subcommands: hg-trace, hg-charpoly, hg-scan, ordinary-scan, breuil-generic,
breuil-oracle, breuil-chain, unitary-normalize, unitary-sym, selftest.
Outputs UTF-8 JSON (or CSV where stated) to --out or stdout; identical
configuration and seed give byte-identical reports. Bad input ends in one
``error:`` line and exit status 2, a failed hard check in one and status 1;
a failed det, purity or norm identity check prints its output and exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import acceptance
from . import breuil as br
from . import hypergeom as hg
from . import lambda_adic as la
from . import ordinarity as od
from . import unitary as un
from .ff import (check_table_size, extension_of, field_make, invalid_encoding,
                 prime_power, table_fits)
from .util import SCHEMA_VERSION, VerificationFailed, stable_json


class ConfigInvalid(ValueError):
    pass


def _exponents(args):
    """--R's exponent set, or None once select_chi's refusals that need no
    search have passed: the search is left to the caller."""
    if args.R:
        return hg.hg_params(args.N, args.n, tuple(int(r) for r in args.R.split(",")))
    hg.check_chi(args.N, args.n)
    return None


def _hg_setup(args, charpoly):
    """(params, F_q, place or None) of a trace command. It refuses q, N,
    F_{q^n} (char_poly's tower), the exponents, the place and the point
    --x, in that order, all before select_chi's search and any field table."""
    p, f = prime_power(args.q)
    if args.N < 1 or (args.q - 1) % args.N != 0:
        raise ConfigInvalid(f"N = {args.N} must be a positive divisor of "
                            f"q - 1 = {args.q - 1}")
    if charpoly:
        check_table_size(p, f * args.n)
    params = _exponents(args)
    lam = la.lambda_prime(args.N, args.l, args.tau) if charpoly and args.l else None
    x = getattr(args, "x", None)    # hg-scan has no --x
    if x is not None and not 0 <= x < args.q:
        raise invalid_encoding(x, p, f)
    if params is None:
        params = hg.select_chi(args.N, args.n)
    return params, field_make(p, f), lam


def _checked_point(params, k, x, lam):
    """char_poly at x, its slopes when there is a place, and both checks:
    (the record's JSON dict, whether det and purity passed)."""
    rec = hg.char_poly(params, k, x)
    if lam is not None:
        hg.newton_polygon(rec, lam)
    det = hg.verify_det(rec)
    pure = hg.verify_purity(rec)
    return rec.to_json_dict(), det.passed and pure


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_hg_trace(args):
    params, k, _ = _hg_setup(args, charpoly=False)
    x = k.from_encoding(args.x)
    t = hg.trace_at(params, k, x)
    payload = {"schema_version": SCHEMA_VERSION, "N": params.N, "n": params.n,
               "R": list(params.rho_exponents), "q": args.q, "x_dlog": k.dlog(x),
               "trace": list(t.coeffs)}
    _emit(args, stable_json(payload))
    return 0


def cmd_hg_charpoly(args):
    params, k, lam = _hg_setup(args, charpoly=True)
    record, ok = _checked_point(params, k, k.from_encoding(args.x), lam)
    _emit(args, stable_json(record))
    return 0 if ok else 1


def cmd_hg_scan(args):
    params, k, lam = _hg_setup(args, charpoly=True)
    records, all_ok = [], True
    for x in hg.trace_all_fast(params, k):
        record, ok = _checked_point(params, k, x, lam)
        records.append(record)
        all_ok &= ok
    payload = {"schema_version": SCHEMA_VERSION, "config": {
        "N": params.N, "n": params.n, "R": list(params.rho_exponents),
        "q": args.q, "l": args.l, "tau": args.tau % params.N,
        "sum_zero": params.sum_zero,
        "trivial_stabilizer": params.trivial_stabilizer},
        "points": records,
        "summary": {"det_purity_all_pass": all_ok, "count": len(records)}}
    _emit(args, stable_json(payload))
    return 0 if all_ok else 1


def cmd_ordinary_scan(args):
    import csv   # its only user; every other command starts without it
    params = _exponents(args)
    if params is None:
        # the residue field depends on N and l alone: refuse it before
        # select_chi's search
        la.residue_field(args.N, args.l, args.tau)
        params = hg.select_chi(args.N, args.n)
    test = od.build_ordinary_test(params, args.l, args.tau)
    K = extension_of(test.field_v, args.d)
    ident = od.verify_norm_identity(test, args.d)
    polygons = {}
    if table_fits(K.p, K.f * params.n):    # char_poly builds F_{q^n}
        for x in hg.trace_all_fast(params, K):
            rec = hg.char_poly(params, K, x)
            hg.newton_polygon(rec, test.lam)
            od.unit_root_check(test, rec)
            polygons[K.dlog(x)] = rec.slopes
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["x_dlog", "u_x", "trace_mod_lambda", "norm_u",
                "identity_ok", "min_slope", "slopes"])
    for x_dlog, u_nonzero, trace_red, norm_u, ok in zip(
            ident.x_dlog.tolist(), ident.u_nonzero.tolist(),
            ident.trace_red.tolist(), ident.norm_u.tolist(), ident.ok.tolist()):
        sl = polygons.get(x_dlog)
        w.writerow([
            x_dlog,
            "nonzero" if u_nonzero else "0",
            trace_red,
            norm_u,
            int(ok),
            str(min(sl)) if sl else "NA",
            " ".join(str(s) for s in sl) if sl else "NA",
        ])
    _emit(args, buf.getvalue())
    return 0 if ident.ok.all() else 1


def _frame_report(p, e, f, s, t, verdicts):
    n, r = br.slope_data(s, t, e, p, f)
    entry = {"p": p, "e": e, "f": f, "s": list(s), "t": list(t),
             "n": [f"{x.numerator}/{x.denominator}" for x in n],
             "r": list(r), "obstruction": None, "solver": None}
    if sum(s[j] - t[j] - e for j in range(f)) < 0:
        i, x = br.genericity_obstruction(s, t, e, p, f)
        entry["obstruction"] = {"i": i, "x": x}
        reached, clean_ok = verdicts(s, t)
        entry["solver"] = {
            "witness": "feasible" if reached else "infeasible",
            "in_window": "feasible" if clean_ok else "infeasible"}
    return entry


def cmd_breuil_generic(args):
    p, e, f = args.p, args.e, args.f
    F = br.frame_field(p, e, f, sweep=not (args.s or args.t))
    hi = e * (p - 2)
    from itertools import product as iproduct
    if args.s or args.t:
        if not (args.s and args.t):
            raise ConfigInvalid("give both --s and --t or neither")
        s = tuple(int(v) for v in args.s.split(","))
        t = tuple(int(v) for v in args.t.split(","))
        br.require_breuil_height(br.make_rank_one(p, f, e, s, F.one()),
                                 br.make_rank_one(p, f, e, t, F.one()))
        tuples = [(s, t)]

        def verdicts(s, t):
            return br.frame_verdicts(s, t, e, p, f, F)
    else:
        tuples = [(s, t) for s in iproduct(range(hi + 1), repeat=f)
                  for t in iproduct(range(hi + 1), repeat=f)]
        verdicts = br.sweep_frame_verdicts(p, e, f, F)
    entries = [_frame_report(p, e, f, s, t, verdicts) for s, t in tuples]
    payload = {"schema_version": SCHEMA_VERSION, "frames": entries}
    _emit(args, stable_json(payload))
    return 0


def _parse_y_term(part):
    """((j, deg), coeff) from a --y term "deg:coeff" (j = 0) or "j.deg:coeff"."""
    try:
        spec, c = part.split(":")
        j, l = spec.split(".") if "." in spec else (0, spec)
        return (int(j), int(l)), int(c)
    except ValueError:
        raise ConfigInvalid(f"--y term {part!r} is not deg:coeff "
                            "or j.deg:coeff with integers") from None


def cmd_breuil_oracle(args):
    p, e, f = args.p, args.e, args.f
    F = br.frame_field(p, e, f)
    one = F.one()
    s = tuple(int(v) for v in args.s.split(","))
    t = tuple(int(v) for v in args.t.split(","))
    top = br.make_rank_one(p, f, e, s, one)
    bot = br.make_rank_one(p, f, e, t, one)
    br.require_breuil_height(top, bot)    # before any range(s_j) is built
    y = {}
    if args.y:
        for part in args.y.split(","):
            key, c = _parse_y_term(part)
            y[key] = y.get(key, F.zero()) + F.from_int(c)
    mono = br.solve_monodromy(top, bot, y)
    forb = br.breuil_forbidden_degrees(top, bot)
    windows, dim, _ = br.etale_image_windows(top, bot)
    payload = {"schema_version": SCHEMA_VERSION, "p": p, "e": e, "f": f,
               "s": list(s), "t": list(t), "d_unit": "1",
               "forbidden_degrees": [sorted(fs) for fs in forb],
               "monodromy": "infeasible" if mono == br.INFEASIBLE else "feasible",
               "image_windows": [[w.start, w.stop - 1] for w in windows],
               "image_dimension": dim}
    _emit(args, stable_json(payload))
    return 0


def cmd_breuil_chain(args):
    d, e, f = args.d, args.e, args.f
    count = 0
    for chain in br.increasing_chains(d, e, f):
        br.chain_slope_check(chain, e)
        count += 1
    payload = {"schema_version": SCHEMA_VERSION, "d": d, "e": e, "f": f,
               "chains_checked": count, "forced": True}
    _emit(args, stable_json(payload))
    return 0


def _matrix_from_json(data, Fq2, p):
    if not (isinstance(data, list) and data and all(
            isinstance(row, list) and len(row) == len(data) for row in data)):
        raise ConfigInvalid("--matrix must be a non-empty square list of rows")

    def elem(pair):
        if type(pair) is int:
            pair = [pair, 0]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(v) is int for v in pair)):
            raise ConfigInvalid(f"matrix entry {pair!r} is not an integer "
                                "or an [a, b] pair")
        a, b = pair
        return Fq2.from_encoding((a % p) + (b % p) * p)
    return [[elem(v) for v in row] for row in data]


def _matrix_to_json(M, p):
    out = []
    for row in M:
        out.append([[e.encoding % p, e.encoding // p] for e in row])
    return out


def cmd_unitary_normalize(args):
    p, f = prime_power(args.q)
    if f != 1:
        raise ConfigInvalid("unitary-normalize supports prime q")
    Fq2 = un.gu_fields(args.q)[1]
    data = json.loads(args.matrix)
    A = _matrix_from_json(data, Fq2, p)
    # normal_form certifies C-dagger A C = I or raises VerificationFailed
    C = un.diagonalize_to_identity(un.hermitian_space(args.q, A))
    payload = {"schema_version": SCHEMA_VERSION, "q": args.q,
               "C": _matrix_to_json(C, p), "certificate": True}
    _emit(args, stable_json(payload))
    return 0


def cmd_unitary_sym(args):
    B, eigs, alpha = un.sym_power_embed(args.beta, args.n, args.m, args.p)
    payload = {"schema_version": SCHEMA_VERSION, "p": args.p, "beta": args.beta,
               "n": args.n, "m": args.m,
               "matrix": _matrix_to_json(B, args.p),
               "spectrum_dlogs": sorted(e.k for e in eigs),
               "alpha_dlog": alpha.k}
    _emit(args, stable_json(payload))
    return 0


def cmd_selftest(args):
    report, timings, ok = acceptance.selftest(seed=args.seed)
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        t = timings.get(c["id"])
        suffix = f" ({t:.1f}s)" if t is not None else ""
        print(f"{status} criterion {c['id']}: {c['name']}{suffix}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(stable_json(report))
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other bad input: one line, status 2.
    Subparsers are made with the same class."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def build_parser():
    ap = _Parser(
        prog="dwork-forge",
        description="Exact Frobenius/Breuil/unitary verification suite")
    sub = ap.add_subparsers(dest="cmd", required=True)

    for name, help_text, fn, point, slopes in (
            ("hg-trace", "one Frobenius trace", cmd_hg_trace, True, False),
            ("hg-charpoly", "characteristic polynomial at x", cmd_hg_charpoly,
             True, True),
            ("hg-scan", "full point scan with det/purity checks", cmd_hg_scan,
             False, True)):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--R", type=str, default="",
                        help="comma-separated exponents; default select_chi")
        sp.add_argument("--q", type=int, required=True)
        if point:
            sp.add_argument("--x", type=int, required=True,
                            help="integer encoding of the point")
        if slopes:
            sp.add_argument("--l", type=int, default=0,
                            help="prime for lambda-adic slopes (optional)")
            sp.add_argument("--tau", type=int, default=1)
        sp.add_argument("--out", type=str, default="")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("ordinary-scan", help="norm identity / unit-root CSV")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--R", type=str, default="")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--tau", type=int, default=1)
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_ordinary_scan)

    sp = sub.add_parser("breuil-generic", help="frame sweep with obstructions")
    for flag in ("--p", "--e", "--f"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--s", type=str, default="")
    sp.add_argument("--t", type=str, default="")
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_breuil_generic)

    sp = sub.add_parser("breuil-oracle", help="monodromy/window oracle for one tuple")
    for flag in ("--p", "--e", "--f"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--s", type=str, required=True)
    sp.add_argument("--t", type=str, required=True)
    sp.add_argument("--y", type=str, default="",
                    help="terms j.deg:coeff (or deg:coeff for f=1), comma-separated")
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_breuil_oracle)

    sp = sub.add_parser("breuil-chain", help="chain slope forcing sweep")
    for flag in ("--d", "--e", "--f"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_breuil_chain)

    sp = sub.add_parser("unitary-normalize", help="Gram matrix -> identity form")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--matrix", type=str, required=True,
                    help="JSON rows of [a,b] pairs meaning a + b*xbar in F_{q^2}")
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_unitary_normalize)

    sp = sub.add_parser("unitary-sym", help="symmetric-power embedding into SU_m")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--beta", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_unitary_sym)

    sp = sub.add_parser("selftest", help="run every acceptance criterion")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default="")
    sp.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    # Nothing here calls BLAS, but numpy's bundled OpenBLAS starts a worker
    # thread at import that spins on a spare core; one thread means no pool.
    # Set before any subcommand imports numpy; a user's own value is kept,
    # and the selftest rerun child inherits it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:              # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:      # a hard check failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
