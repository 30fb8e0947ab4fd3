"""Output checker: an operation passes only if its output says it passed.

Exit status alone is not trusted: ``hg-charpoly`` exits 0 even when a check
fails, so each subcommand's verdict is parsed from its output. On top of the
verdict, every repeat of an operation must produce the same bytes, and an
operation listed in ``digests.json`` (every operation at seed 0, and every
seed-independent one) must match its digest.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
from math import gcd

from workloads import f49_adjoint, f49_matmul


class CheckFailed(Exception):
    pass


def op_key(argv):
    """The identity of an operation: its argv without output paths."""
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(out):
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_hg_scan(argv, out):
    data = _json(out)
    q = int(_arg(argv, "--q"))
    summary = data["summary"]
    if summary["det_purity_all_pass"] is not True:
        raise CheckFailed("det_purity_all_pass is not true")
    if summary["count"] != len(data["points"]) or summary["count"] != q - 2:
        raise CheckFailed(f"scan covered {summary['count']} points, want {q - 2}")


def _check_hg_trace(argv, out):
    """The trace of Frobenius on a rank-n sheaf pure of weight n-1 is a sum
    of n roots of absolute value q^((n-1)/2), under every complex embedding
    of Q(zeta_N) (the Weil bound)."""
    data = _json(out)
    N, n, q = (int(_arg(argv, f)) for f in ("--N", "--n", "--q"))
    if (data["N"], data["n"], data["q"]) != (N, n, q):
        raise CheckFailed("output is for other parameters")
    if not 0 <= data["x_dlog"] < q - 1:
        raise CheckFailed(f"x_dlog {data['x_dlog']} is not a dlog mod {q - 1}")
    coeffs = data["trace"]
    if len(coeffs) != N - 1 or not all(isinstance(c, int) for c in coeffs):
        raise CheckFailed(f"trace {coeffs} is not in Z[zeta_{N}]")
    bound = n * q ** ((n - 1) / 2)
    for k in range(1, N):
        if gcd(k, N) == 1:
            z = cmath.exp(2j * cmath.pi * k / N)
            if abs(sum(c * z ** j for j, c in enumerate(coeffs))) > bound * (1 + 1e-9):
                raise CheckFailed(f"trace {coeffs} breaks the Weil bound {bound:.1f}")


def _check_hg_charpoly(argv, out):
    data = _json(out)
    if data["checks"] != {"det": "pass", "purity": "pass"}:
        raise CheckFailed(f"checks are {data['checks']}")
    if "--l" in argv and not data["slopes"]:
        raise CheckFailed("no slopes although --l was given")


def _check_ordinary_scan(argv, out):
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        raise CheckFailed("no rows")
    bad = [r["x_dlog"] for r in rows if r["identity_ok"] != "1"]
    if bad:
        raise CheckFailed(f"identity fails at x_dlog {bad[:5]}")


def _check_unitary_normalize(argv, out):
    data = _json(out)
    if data["certificate"] is not True:
        raise CheckFailed("certificate is not true")
    # Re-check C^dagger A C = I with the generator's own F_49 arithmetic.
    A = [[tuple(v) for v in row] for row in json.loads(_arg(argv, "--matrix"))]
    C = [[tuple(v) for v in row] for row in data["C"]]
    n = len(A)
    ident = [[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    if f49_matmul(f49_adjoint(C), f49_matmul(A, C)) != ident:
        raise CheckFailed("C^dagger A C is not the identity")


def _check_selftest(argv, out):
    data = _json(out)
    if data["all_passed"] is not True:
        failed = [c["id"] for c in data["criteria"] if not c["passed"]]
        raise CheckFailed(f"selftest criteria failed: {failed}")


def _check_json(argv, out):
    _json(out)


VERDICTS = {
    "hg-scan": _check_hg_scan,
    "hg-trace": _check_hg_trace,
    "hg-charpoly": _check_hg_charpoly,
    "ordinary-scan": _check_ordinary_scan,
    "unitary-normalize": _check_unitary_normalize,
    "selftest": _check_selftest,
    "breuil-generic": _check_json,
    "breuil-oracle": _check_json,
    "breuil-chain": _check_json,
    "unitary-sym": _check_json,
}


class Checker:
    """Checks every output of one benchmark run against verdicts, earlier
    repeats of the same operation, and the recorded digests."""

    def __init__(self, digests):
        self.digests = digests
        self.seen = {}

    def check(self, argv, returncode, output: bytes):
        """Raise CheckFailed unless this output of ``argv`` is correct.

        For ``selftest`` the output is the ``--out`` report, not stdout,
        because stdout carries wall-clock timings.
        """
        if returncode != 0:
            raise CheckFailed(f"exit status {returncode}")
        try:
            text = output.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckFailed("output is not UTF-8") from None
        try:
            VERDICTS[argv[0]](argv, text)
        except (KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from None
        key, d = op_key(argv), digest(output)
        if self.seen.setdefault(key, d) != d:
            raise CheckFailed("output differs from an earlier repeat")
        want = self.digests.get(key)
        if want is not None and want != d:
            raise CheckFailed("output does not match the recorded digest")
