import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dwork_forge
from dwork_forge import breuil as br
from dwork_forge import cli
from dwork_forge import ff
from dwork_forge import hypergeom as hg
from dwork_forge import unitary as un
from dwork_forge.cli import main
from dwork_forge.cyclotomic import ExactDivisionFailed
from dwork_forge.linalg import SingularMatrix
from dwork_forge.util import VerificationFailed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_quiet(argv):
    """(exit status, stdout, stderr) of one in-process call; the SystemExit
    of a usage error gives its status."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_hg_trace(capsys):
    code, out = run_cli(capsys, "hg-trace", "--N", "3", "--n", "2",
                        "--q", "7", "--x", "3")
    assert code == 0
    data = json.loads(out)
    assert data["trace"] == [2, 0] and data["R"] == [1, 2]


def test_hg_charpoly_with_slopes(capsys):
    code, out = run_cli(capsys, "hg-charpoly", "--N", "3", "--n", "2",
                        "--q", "7", "--x", "3", "--l", "7")
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == {"det": "pass", "purity": "pass"}
    assert data["slopes"] == ["0/1", "1/1"]
    assert data["coeffs"][2] == [1, 0]


def test_hg_charpoly_n3_over_a_large_cubic_extension(capsys):
    # the d = 3 trace field F_43^3 has 79506 nonzero points; the readout
    # evaluates only the embedded x there
    code, out = run_cli(capsys, "hg-charpoly", "--N", "7", "--n", "3",
                        "--q", "43", "--x", "5")
    assert code == 0
    assert json.loads(out)["checks"] == {"det": "pass", "purity": "pass"}


def test_hg_scan_summary(capsys):
    code, out = run_cli(capsys, "hg-scan", "--N", "3", "--n", "2", "--q", "7")
    assert code == 0
    data = json.loads(out)
    assert data["summary"] == {"det_purity_all_pass": True, "count": 5}


def test_hg_scan_rejects_bad_config(capsys):
    code, _ = run_cli(capsys, "hg-scan", "--N", "3", "--n", "2", "--q", "11")
    assert code == 2  # 3 does not divide 10


def test_hg_scan_fails_fast_on_an_oversized_extension(capsys):
    # char_poly would need F_{1000003^2}, past TABLE_LIMIT: the scan stops
    # before it builds F_q or the trace map
    t0 = time.perf_counter()
    code = main(["hg-scan", "--N", "3", "--n", "2", "--q", "1000003",
                 "--l", "7"])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: q = 1000003^2 exceeds table limit 1048576\n"


def test_hg_scan_records_tau_mod_N(capsys):
    # tau = 1, 4 and -2 name one place mod 3, so one config and one output
    outs = {run_cli(capsys, "hg-scan", "--N", "3", "--n", "2", "--q", "7",
                    "--l", "7", "--tau", tau) for tau in ("1", "4", "-2")}
    assert len(outs) == 1
    code, out = outs.pop()
    assert code == 0 and json.loads(out)["config"]["tau"] == 1


@pytest.mark.parametrize("argv", [
    "hg-scan --N 999983 --n 3 --q 1999967",
    "hg-trace --N 999983 --n 3 --q 1999967 --x 2",
    "hg-charpoly --N 999983 --n 7 --q 1999967 --x 2",
])
def test_trace_commands_refuse_q_before_select_chi(monkeypatch, argv):
    # 999983 | 1999967 - 1: the exponent-set search took 1.5-2 s before
    # the same refusal
    def no_search(N, n):
        raise AssertionError("select_chi ran")
    monkeypatch.setattr(hg, "select_chi", no_search)
    code, out, err = run_quiet(argv.split(" "))
    assert (code, out) == (2, "")
    assert err == "error: q = 1999967 exceeds table limit 1048576\n"


def test_hg_charpoly_refuses_its_tower_before_any_field(monkeypatch):
    # char_poly needs F_{1048573^2}: refused before F_1048573 is built
    def no_field(p, f):
        raise AssertionError(f"field_make({p}, {f}) ran")
    monkeypatch.setattr(cli, "field_make", no_field)
    monkeypatch.setattr(ff, "field_make", no_field)
    code, out, err = run_quiet(["hg-charpoly", "--N", "3", "--n", "2",
                                "--q", "1048573", "--x", "5"])
    assert (code, out) == (2, "")
    assert err == "error: q = 1048573^2 exceeds table limit 1048576\n"


def _failed_purity(rec):
    rec.checks["purity"] = "fail"
    return False


def _failed_det(rec):
    rec.checks["det"] = "fail"
    return hg.DetReport(False, False, None, rec.q)


@pytest.mark.parametrize("name,fake,checks", [
    ("verify_purity", _failed_purity, {"det": "pass", "purity": "fail"}),
    ("verify_det", _failed_det, {"det": "fail", "purity": "pass"}),
])
def test_hg_charpoly_prints_its_record_and_exits_1_on_a_failed_check(
        monkeypatch, name, fake, checks):
    monkeypatch.setattr(hg, name, fake)
    code, out, err = run_quiet(["hg-charpoly", "--N", "3", "--n", "2",
                                "--q", "7", "--x", "3", "--l", "7"])
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data["checks"] == checks and data["slopes"] == ["0/1", "1/1"]


def test_ordinary_scan_csv(capsys):
    code, out = run_cli(capsys, "ordinary-scan", "--N", "3", "--n", "2",
                        "--l", "7", "--d", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("x_dlog,u_x,trace_mod_lambda,norm_u,"
                        "identity_ok,min_slope,slopes")
    assert len(lines) == 6
    assert all(line.split(",")[4] == "1" for line in lines[1:])


def test_breuil_generic_frame(capsys):
    code, out = run_cli(capsys, "breuil-generic", "--p", "5", "--e", "1",
                        "--f", "1", "--s", "0", "--t", "1")
    assert code == 0
    frame = json.loads(out)["frames"][0]
    assert frame["n"] == ["-1/2"] and frame["r"] == [3]
    assert frame["obstruction"] == {"i": 0, "x": -1}
    assert frame["solver"] == {"witness": "infeasible", "in_window": "feasible"}


def test_breuil_oracle(capsys):
    code, out = run_cli(capsys, "breuil-oracle", "--p", "5", "--e", "2",
                        "--f", "1", "--s", "3", "--t", "0", "--y", "1:1")
    assert code == 0
    data = json.loads(out)
    assert data["forbidden_degrees"] == [[1]]
    assert data["monodromy"] == "infeasible"
    assert data["image_windows"] == [[2, 3]]


ORACLE_FRAMES = [(3, 2, 1), (5, 1, 1), (5, 2, 1), (7, 1, 1), (3, 1, 2),
                 (3, 2, 2), (5, 1, 2)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_breuil_oracle_adds_y_terms_that_land_on_one_key(data):
    # --y reads j mod f, so c at (j, l) is the class of c1 at (j + k1 f, l)
    # plus c2 at (j + k2 f, l) whenever c1 + c2 = c mod p
    p, e, f = data.draw(st.sampled_from(ORACLE_FRAMES))
    hi = e * (p - 2)
    s = data.draw(st.lists(st.integers(1, hi), min_size=f, max_size=f))
    t = data.draw(st.lists(st.integers(0, hi), min_size=f, max_size=f))
    j = data.draw(st.integers(0, f - 1))
    l = data.draw(st.integers(0, s[j] - 1))
    c, c1 = data.draw(st.integers(0, p - 1)), data.draw(st.integers(0, p - 1))
    c2 = (c - c1) % p + p * data.draw(st.integers(-1, 1))
    k1, k2 = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    frame = ["breuil-oracle", "--p", str(p), "--e", str(e), "--f", str(f),
             "--s", ",".join(map(str, s)), "--t", ",".join(map(str, t)), "--y"]
    whole = run_quiet(frame + [f"{j}.{l}:{c}"])
    split = run_quiet(frame + [f"{j + k1 * f}.{l}:{c1},{j + k2 * f}.{l}:{c2}"])
    assert whole[0] == 0 and split == whole


def test_breuil_chain(capsys):
    code, out = run_cli(capsys, "breuil-chain", "--d", "2", "--e", "1", "--f", "1")
    assert code == 0
    assert json.loads(out)["chains_checked"] == 1


def test_unitary_normalize(capsys):
    code, out = run_cli(capsys, "unitary-normalize", "--q", "5",
                        "--matrix", "[[[2,0],[0,0]],[[0,0],[3,0]]]")
    assert code == 0
    assert json.loads(out)["certificate"] is True


def test_unitary_sym(capsys):
    code, out = run_cli(capsys, "unitary-sym", "--p", "11", "--beta", "2",
                        "--n", "2", "--m", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["spectrum_dlogs"]) == 3


def test_byte_identical_reruns(capsys, tmp_path):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "hg-scan", "--N", "5", "--n", "2",
                            "--q", "11", "--l", "11")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_file(capsys, tmp_path):
    path = tmp_path / "t.json"
    code, _ = run_cli(capsys, "hg-trace", "--N", "3", "--n", "2", "--q", "7",
                      "--x", "3", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["trace"] == [2, 0]


def test_table_limit_is_a_typed_error(capsys):
    # the d = 2 trace field F_1051^2 is over the table limit
    code = main(["hg-charpoly", "--N", "3", "--n", "2", "--q", "1051", "--x", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ordinary_scan_refuses_its_residue_field_before_select_chi(monkeypatch):
    # F_{2^ord(2 mod 999983)} = F_2^499991 depends on N and l alone; the
    # exponent-set search took about 1.5 s before the same refusal
    def no_search(N, n):
        raise AssertionError("select_chi ran")
    monkeypatch.setattr(hg, "select_chi", no_search)
    code, out, err = run_quiet(["ordinary-scan", "--N", "999983", "--n", "3", "--l", "2"])
    assert (code, out) == (2, "")
    assert err == "error: q = 2^499991 exceeds table limit 1048576\n"


def test_point_encoding_out_of_range(capsys):
    code = main(["hg-trace", "--N", "3", "--n", "2", "--q", "7", "--x", "99"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: invalid encoding 99 for F_7\n"


@pytest.mark.parametrize("argv,err", [
    # F_1048573's tables took 0.2 s and 41 MB before the same line
    ("hg-trace --N 3 --n 2 --q 1048573 --x 2000000",
     "invalid encoding 2000000 for F_1048573"),
    ("hg-trace --N 13 --n 2 --q 27 --x 27", "invalid encoding 27 for F_3^3"),
    ("hg-charpoly --N 13 --n 2 --q 27 --x 27", "invalid encoding 27 for F_3^3"),
    ("hg-trace --N 3 --n 2 --q 7 --x -1", "invalid encoding -1 for F_7"),
    ("hg-charpoly --N 3 --n 2 --q 7 --x -1", "invalid encoding -1 for F_7"),
])
def test_point_refused_before_any_field(monkeypatch, cold_cache, argv, err):
    def no_table(self, p, f):
        raise AssertionError(f"F_{p}^{f} was built")
    monkeypatch.setattr(ff.FieldDesc, "__init__", no_table)
    cold_cache(cli, "field_make")   # a field an earlier test made is no hit
    code, out, got = run_quiet(argv.split(" "))
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_unitary_normalize_over_f2(capsys):
    # F_4 / F_2 with the hyperbolic Gram matrix [[0, 1], [1, 0]]
    code, out = run_cli(capsys, "unitary-normalize", "--q", "2",
                        "--matrix", "[[[0,0],[1,0]],[[1,0],[0,0]]]")
    assert code == 0
    assert json.loads(out)["certificate"] is True


@pytest.mark.parametrize("argv", [
    "breuil-generic --p 5 --e 1 --f 2 --s 1 --t 1,1",
    "unitary-normalize --q 7 --matrix []",
    "unitary-normalize --q 7 --matrix [[1,0],[0]]",
    "unitary-normalize --q 7 --matrix 5",
    "unitary-normalize --q 7 --matrix [[1.5]]",
    # JSON booleans are not integers, though Python's bool is an int
    "unitary-normalize --q 7 --matrix [[true]]",
    "unitary-normalize --q 7 --matrix [[[1,false]]]",
    "unitary-sym --p 11 --beta 2 --n 2 --m 0",
    "unitary-sym --p 11 --beta 2 --n 2 --m -1",
    "unitary-sym --p 11 --beta 2 --n -1 --m 3",
    "breuil-chain --d 0 --e 1 --f 1",
    "breuil-chain --d -1 --e 1 --f 1",
    "breuil-chain --d 2 --e -1 --f 1",
    "breuil-generic --p 2 --e 1 --f 1",
    "breuil-generic --p 5 --e 0 --f 1",
    "breuil-generic --p 5 --e 1 --f 0",
    "breuil-oracle --p 2 --e 1 --f 1 --s 0 --t 0",
    "breuil-oracle --p 5 --e 0 --f 1 --s 0 --t 0",
    "breuil-oracle --p 5 --e 1 --f 0 --s 0 --t 0",
    "breuil-generic --p 9 --e 1 --f 1",
    "breuil-generic --p 3 --e 1 --f 1 --s 0 --t -3",
    # fields over the table limit (q = 2^61 - 1, p = 10^18 + 3, 7^(10^8)):
    # the size is compared before trial division or building p^f
    "hg-trace --N 3 --n 2 --q 2305843009213693951 --x 5",
    "unitary-normalize --q 2305843009213693951 --matrix [[1]]",
    "unitary-sym --p 1000000000000000003 --beta 1 --n 1 --m 2",
    "breuil-generic --p 1000000000000000003 --e 1 --f 1 --s 1 --t 1",
    "ordinary-scan --N 3 --n 2 --l 7 --d 100000000",
    # N = 0 is refused before the exponents are reduced mod N
    "hg-trace --N 0 --n 1 --R 1 --q 7 --x 3",
    "hg-charpoly --N 0 --n 1 --R 1 --q 7 --x 3",
    "hg-scan --N 0 --n 1 --R 1 --q 7",
    "ordinary-scan --N 0 --n 1 --R 1 --l 7 --d 2",
    # N = 1 is refused by the exponent checks, before its place is built
    "hg-scan --N 1 --n 2 --q 7 --l 7",
    "hg-charpoly --N 1 --n 1 --R 1 --q 7 --x 3 --l 7",
])
def test_bad_input_is_a_typed_error(capsys, argv):
    code = main(argv.split(" "))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("d", ["-1", "0"])
def test_extension_degree_below_one_is_a_typed_error(capsys, d):
    code = main(["ordinary-scan", "--N", "3", "--n", "2", "--l", "7",
                 "--d", d])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: extension degree d = {d} must be at least 1\n"


@pytest.mark.parametrize("N,n", [(3, "-1"), (3, "0"), (1, "0")])
def test_exponent_count_below_one_is_a_typed_error(capsys, N, n):
    # refused before the exponent sets are enumerated
    code = main(["hg-trace", "--N", str(N), "--n", n, "--q", "7", "--x", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: n = {n} must be at least 1\n"


@pytest.mark.parametrize("term", ["abc", "0:x", "1.2.3:1", "1:", ":1"])
def test_breuil_oracle_malformed_y_term(capsys, term):
    code = main(["breuil-oracle", "--p", "5", "--e", "2", "--f", "1",
                 "--s", "3", "--t", "0", "--y", f"1:1,{term}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --y term {term!r} is not deg:coeff "
                            "or j.deg:coeff with integers\n")


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("p", [1, 4, 8, 9])
def test_unitary_sym_needs_an_odd_prime(capsys, p, beta):
    # F_p^2 exists for a prime power p, but the form needs p an odd prime
    code = main(["unitary-sym", "--p", str(p), "--beta", str(beta), "--n", "1",
                 "--m", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: p = {p} must be an odd prime\n"


@pytest.mark.parametrize("cmd", ["breuil-generic", "breuil-oracle"])
def test_breuil_height_above_e_p_minus_2_is_rejected(capsys, cmd):
    # e(p-2) = 1 for (p, e) = (3, 1): s = 9 is out of range for both commands
    code = main([cmd, "--p", "3", "--e", "1", "--f", "1", "--s", "9", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: both sides must have Breuil height <= e(p-2)\n"


ALGEBRA_COMMANDS = [
    "breuil-generic --p 7 --e 1 --f 1",
    "breuil-oracle --p 5 --e 2 --f 1 --s 3 --t 0 --y 1:1",
    "breuil-chain --d 2 --e 1 --f 2",
    "unitary-sym --p 61 --beta 2 --n 3 --m 3",
    "unitary-normalize --q 5 --matrix [[[2,0],[0,0]],[[0,0],[3,0]]]",
]


def test_algebra_commands_leave_numpy_unloaded():
    # numpy is imported by the first function that builds an array; fields
    # up to SCALAR_TABLE_LIMIT (here up to F_61^2) build list tables, so the
    # Breuil and unitary commands never load it, and hg-scan does
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
            "import dwork_forge.cli as cli; seen = ['numpy' in sys.modules]\n"
            "for argv in sys.argv[2:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv.split(' ')) == 0, argv\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(seen)")
    argv = ALGEBRA_COMMANDS + ["hg-scan --N 3 --n 2 --q 7"]
    out = subprocess.run([sys.executable, "-c", code, src, *argv],
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out == str([False] * (1 + len(ALGEBRA_COMMANDS)) + [True]) + "\n"


@pytest.mark.parametrize("argv,solves", [("--p 7 --e 3 --f 1", 18),
                                         ("--p 3 --e 2 --f 2", 24)])
def test_breuil_generic_solves_once_per_difference(monkeypatch, capsys, argv,
                                                   solves):
    # one obstruction_frame_verdicts per d = s - t with sum(d_j - e) < 0:
    # d in [-15, 2] at (7, 3, 1), every d in [-2, 2]^2 but (2, 2) at (3, 2, 2)
    solve = br.obstruction_frame_verdicts
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(br, "obstruction_frame_verdicts", counted)
    assert main(["breuil-generic", *argv.split(" ")]) == 0
    capsys.readouterr()
    assert len(calls) == solves


def test_algebra_commands_leave_dataclasses_and_csv_unloaded():
    # the Breuil and unitary data are plain __slots__ classes, and csv is
    # imported by ordinary-scan alone; a fresh interpreter per command
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))
    code = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
            "import dwork_forge.cli as cli\n"
            "def seen():\n"
            "    return [m for m in ('csv', 'dataclasses') if m in sys.modules]\n"
            "before = seen()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[2].split(' ')) == 0\n"
            "print(before, seen())")
    for argv in ALGEBRA_COMMANDS:
        out = subprocess.run([sys.executable, "-c", code, src, argv],
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        assert out == "[] []\n", argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_process_starts_no_blas_worker_threads():
    # numpy's bundled OpenBLAS starts a worker pool at import unless
    # OPENBLAS_NUM_THREADS says one thread; main sets it before numpy loads
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))
    code = ("import contextlib, io, os, sys; sys.path.insert(0, sys.argv[1]); "
            "import dwork_forge.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(sys.argv[2].split(' ')) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code, src,
                          "hg-trace --N 3 --n 2 --q 7 --x 3"], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert out == "1 1\n"


def test_cli_keeps_a_user_blas_thread_count(capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    code, _ = run_cli(capsys, "hg-trace", "--N", "3", "--n", "2", "--q", "7", "--x", "3")
    assert code == 0 and os.environ["OPENBLAS_NUM_THREADS"] == "3"


@pytest.mark.parametrize("l", [2 ** 61 - 1, 2 ** 89 - 1])
def test_huge_lambda_prime_is_one_error_line(capsys, l):
    # 2^61 - 1 is prime but its residue field has no table; 2^89 - 1 is past
    # the exact range of the primality test
    code = main(["hg-charpoly", "--N", "3", "--n", "2", "--q", "7", "--x", "3",
                 "--l", str(l)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_breuil_oracle_chi_equal_dimension_counts_the_special_term(capsys):
    # s = 4, t = 0 at (p, e, f) = (5, 2, 1): alpha difference 1, so
    # chi_1 = chi_2 and the special degree 5 joins the windows [3, 4]
    code, out = run_cli(capsys, "breuil-oracle", "--p", "5", "--e", "2",
                        "--f", "1", "--s", "4", "--t", "0")
    assert code == 0
    F = br.frame_field(5, 2, 1)
    top = br.make_rank_one(5, 1, 2, (4,), F.one())
    bot = br.make_rank_one(5, 1, 2, (0,), F.one())
    assert br.chi_equal(top, bot)
    assert json.loads(out)["image_dimension"] == \
        len(br._window_class_space(top, bot)) == 3


@pytest.mark.parametrize("flag", ["--l", "--tau"])
def test_hg_trace_takes_no_slope_options(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["hg-trace", "--N", "3", "--n", "2", "--q", "7", "--x", "3",
              flag, "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "hg-trace --N 3 --n 2 --q 7 --x 3 --l 7",      # unknown option
    "hg-trace --N 3 --n 2 --x 3",                   # missing required option
    "hg-trace --N 3 --n 2 --q seven --x 3",         # not an integer
    "",                                             # no subcommand
])
def test_usage_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# the selftest --out report digests of the seeds the gate is held to
SELFTEST_SHA256 = {
    0: "3d599992ca5633c4e6a6ba3b4791e241dff3e4a4fab3a4fe620bf9b0309e7ed6",
    7: "b246daeaa78dfece8791f797d0a21f57bc9e7947bd8ea259e01156c39f97c5e7",
    669: "a272fbbafdae3e34da553766a3ba5f56d055cf4021b0521709415ca54e6bc339",
}


def test_selftest_report_is_the_same_under_optimize(tmp_path):
    # every check is a util.check, which -O keeps, so -O changes no byte
    src = os.path.dirname(os.path.dirname(os.path.abspath(dwork_forge.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from dwork_forge.cli import main; sys.exit(main(sys.argv[2:]))")
    digests = {}
    for seed in SELFTEST_SHA256:
        for flags in ([], ["-O"]):
            out = tmp_path / f"report{seed}_{len(flags)}.json"
            proc = subprocess.run([sys.executable, *flags, "-c", code, src,
                                   "selftest", "--seed", str(seed), "--out",
                                   str(out)],
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            digests[seed, len(flags)] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == {(seed, o): sha for seed, sha in SELFTEST_SHA256.items()
                       for o in (0, 1)}


@pytest.mark.parametrize("argv,layer,name,error", [
    ("breuil-chain --d 2 --e 1 --f 1", br, "chain_slope_check", VerificationFailed),
    ("hg-charpoly --N 3 --n 2 --q 7 --x 3", hg, "char_poly", ExactDivisionFailed),
    ("unitary-normalize --q 5 --matrix [[1]]", un, "diagonalize_to_identity",
     SingularMatrix),
])
def test_failed_check_in_a_subcommand_is_one_error_line(capsys, monkeypatch, argv,
                                                       layer, name, error):
    def refuse(*args):
        raise error("refused")
    monkeypatch.setattr(layer, name, refuse)
    code = main(argv.split(" "))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {error.__name__}: refused\n"


@pytest.mark.parametrize("argv", [
    "hg-trace --N 2147483659 --n 2 --q 7 --x 3",
    "hg-trace --N 2147483659 --n 2 --q 2147483660 --x 3",
    "hg-scan --N 2147483659 --n 2 --R 1,2 --q 2147483660",
    # q past the table limit, refused before select_chi's search
    "hg-scan --N 999983 --n 3 --q 1999967",
    "hg-trace --N 999983 --n 3 --q 1999967 --x 2",
    "hg-charpoly --N 999983 --n 7 --q 1999967 --x 2",
    "ordinary-scan --N 999983 --n 2 --l 7",
    "ordinary-scan --N 2147483659 --n 2 --R 1,2147483658 --l 7",
    "ordinary-scan --N 2147483659 --n 3 --l 7",
    # the chain search's level table, (e(d-1) + 1)^f levels of f heights
    "breuil-chain --d 2 --e 1 --f 100000000000000000000",
    "breuil-chain --d 3 --e 1 --f 30",
    "breuil-chain --d 1 --e 1 --f 100000000000000000000",
    # the chain count: 2,989,441 and about 5.4e35 chains, levels that fit
    "breuil-chain --d 8 --e 3 --f 2",
    "breuil-chain --d 20 --e 1 --f 3",
    # frames times frame_system_bound: (3, 1, 7) is 16,384 x 154, the first
    # f over the limit at (p, e) = (3, 1); e = 63,550 is the first one-frame
    # e at (p, f) = (3, 1), 63,549 fits
    "breuil-generic --p 5 --e 1000000000000000000000000000000 --f 2",
    "breuil-generic --p 3 --e 30 --f 2",
    "breuil-generic --p 3 --e 1 --f 7",
    "breuil-generic --p 5 --e 100000000 --f 1 --s 0 --t 0",
    "breuil-oracle --p 5 --e 100000000 --f 1 --s 0 --t 0",
    "breuil-oracle --p 3 --e 63550 --f 1 --s 0 --t 0",
    # a height over e(p-2) = 1, refused before the 10^11 degrees below s
    "breuil-oracle --p 3 --e 1 --f 1 --s 100000000000 --t 1",
    # m^3 > 2^20 from m = 102
    "unitary-sym --p 1021 --beta 2 --n 1 --m 1000",
    "unitary-sym --p 1021 --beta 2 --n 1 --m 102",
])
def test_large_N_is_refused_before_any_enumeration(capsys, argv):
    t0 = time.perf_counter()
    code = main(argv.split(" "))
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,layer,limit", [
    # 16 frames of at most 36 equations; m^3 = 27
    ("breuil-generic --p 5 --e 1 --f 1", br, 16 * 36),
    ("breuil-oracle --p 5 --e 1 --f 1 --s 1 --t 2", br, 36),
    ("unitary-sym --p 11 --beta 2 --n 2 --m 3", un, 27),
])
def test_cost_bounds_admit_their_edge(capsys, monkeypatch, argv, layer, limit):
    monkeypatch.setattr(layer, "TABLE_LIMIT", limit)
    assert main(argv.split(" ")) == 0
    capsys.readouterr()
    monkeypatch.setattr(layer, "TABLE_LIMIT", limit - 1)
    assert main(argv.split(" ")) == 2
    assert "exceed" in capsys.readouterr().err


def test_unitary_sym_cost_does_not_grow_with_p(capsys):
    # the spectrum is fixed by the construction and the elimination skips
    # pairs that do not pair: no scan over the 1021^2 elements of F_{p^2}
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "unitary-sym", "--p", "1021", "--beta", "2",
                        "--n", "1", "--m", "25")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "650e7f784cba06b0bea07070e0c644be94cd86da579bd6efee74d17fb913d6d6")


def test_long_chain_is_not_a_recursion(capsys):
    # one chain of 2000 levels: the enumeration has no recursion depth
    code, out = run_cli(capsys, "breuil-chain", "--d", "2000", "--e", "1",
                        "--f", "1")
    assert code == 0 and json.loads(out)["chains_checked"] == 1


# The CLI fuzz: every subcommand's grammar, as {flag: value} for a small
# valid call and {flag: [values]} refused before any work or malformed.
# A drawn call spoils at most one flag. The valid values keep off the slow
# trace-engine inputs (n = 5 at large q, n = 1 at q = 776161, ordinary-scan
# with d >= 2 at l = 3).
HUGE_Q = [1048583, 2305843009213693951, 7 ** 100]
BAD_R = ["x", "1,x", "0", "1,1", ",", "1,2,3,4,5"]
BAD_Y = ["abc", "0:x", "1.2.3:1", "1:", ":1", "9:1", "-1:1", "0.-1:1", "1:1,"]
BAD_MATRIX = ["[]", "[[1,0],[0]]", "5", "[[1.5]]", "[[true]]", "{",
              "[[[1,2,3]]]", "[[]]", '"a"']


def _spoiled(draw, cmd, good, bad):
    flag = draw(st.sampled_from([None] * 3 + sorted(bad)))
    if flag is not None:
        good = dict(good, **{flag: draw(st.sampled_from(bad[flag]))})
    return [cmd] + [str(v) for item in good.items() for v in item]


def _heights(f, hi):
    return st.lists(st.integers(0, hi), min_size=f, max_size=f).map(
        lambda v: ",".join(map(str, v)))


@st.composite
def hg_argv(draw):
    cmd = draw(st.sampled_from(["hg-trace", "hg-charpoly", "hg-scan"]))
    N, n, q = draw(st.sampled_from([
        (3, 2, 4), (3, 2, 7), (3, 2, 13), (3, 2, 16), (5, 2, 11), (5, 2, 16),
        (7, 2, 8), (7, 3, 8), (7, 3, 29), (5, 4, 11)]))
    good = {"--N": N, "--n": n, "--q": q}
    bad = {"--N": [-1, 0, 2, 9, 2147483659], "--n": [-1, 0, 7],
           "--q": [-7, 0, 1, 6, 10] + HUGE_Q, "--R": BAD_R}
    if cmd != "hg-scan":
        good["--x"] = draw(st.integers(2, q - 1))
        bad["--x"] = [-1, 0, 1, q]
    if cmd != "hg-trace" and draw(st.booleans()):
        good["--l"] = draw(st.sampled_from([2, 3, 7, 13, 29]))
        good["--tau"] = draw(st.integers(-2, 4))
        bad["--l"] = [-1, 4, 2 ** 61 - 1]
    return _spoiled(draw, cmd, good, bad)


@st.composite
def ordinary_argv(draw):
    N, n, l = draw(st.sampled_from([(3, 2, 7), (3, 2, 13), (3, 2, 2),
                                    (5, 2, 11), (7, 3, 2), (7, 3, 29)]))
    good = {"--N": N, "--n": n, "--l": l, "--d": draw(st.integers(1, 2)),
            "--tau": draw(st.integers(-1, 3))}
    bad = {"--N": [-1, 0, 1048583], "--n": [-1, 0], "--l": [-1, 0, 4, 5],
           "--d": [-1, 0, 100000000], "--R": BAD_R}
    return _spoiled(draw, "ordinary-scan", good, bad)


@st.composite
def breuil_argv(draw):
    cmd = draw(st.sampled_from(["breuil-generic", "breuil-oracle"]))
    p, e, f = draw(st.sampled_from(ORACLE_FRAMES))
    good = {"--p": p, "--e": e, "--f": f}
    bad = {"--p": [-1, 2, 9, 1000000000000000003],
           "--e": [-1, 0, 30, 63550, 100000000], "--f": [0, 7],
           "--s": ["", "x", "1,,2", "100000000000"], "--t": ["", "-3"]}
    if cmd == "breuil-oracle" or draw(st.booleans()):
        good["--s"] = s = draw(_heights(f, e * (p - 2)))
        good["--t"] = draw(_heights(f, e * (p - 2)))
    if cmd == "breuil-oracle":
        s = [int(v) for v in s.split(",")]
        terms = draw(st.lists(st.tuples(st.integers(0, 2 * f), st.integers(0, 6),
                                        st.integers(-2, 9)), max_size=3))
        terms = [f"{j}.{l % s[j % f]}:{c}" for j, l, c in terms if s[j % f]]
        if terms:
            good["--y"] = ",".join(terms)
        bad["--y"] = BAD_Y
    return _spoiled(draw, cmd, good, bad)


@st.composite
def chain_argv(draw):
    good = {"--d": draw(st.integers(1, 4)), "--e": draw(st.integers(1, 2)),
            "--f": draw(st.integers(1, 2))}
    bad = {"--d": [-1, 0, 20], "--e": [-1, 0], "--f": [0, 10 ** 20]}
    return _spoiled(draw, "breuil-chain", good, bad)


@st.composite
def normalize_argv(draw):
    size = draw(st.integers(1, 3))
    if draw(st.booleans()):     # diagonal entries in F_q: a Hermitian form
        M = [[draw(st.integers(-2, 8)) if i == j else 0 for j in range(size)]
             for i in range(size)]
    else:
        entry = st.one_of(st.integers(-2, 8),
                          st.lists(st.integers(-2, 8), min_size=2, max_size=2))
        M = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                          min_size=size, max_size=size))
    good = {"--q": draw(st.sampled_from([2, 3, 5, 7, 11])),
            "--matrix": json.dumps(M, separators=(",", ":"))}
    bad = {"--q": [-3, 0, 1, 4, 9] + HUGE_Q, "--matrix": BAD_MATRIX}
    return _spoiled(draw, "unitary-normalize", good, bad)


@st.composite
def sym_argv(draw):
    good = {"--p": draw(st.sampled_from([3, 5, 7, 11, 61])),
            "--beta": draw(st.integers(1, 3)), "--n": draw(st.integers(0, 3)),
            "--m": draw(st.integers(1, 5))}
    bad = {"--p": [-1, 1, 2, 4, 1000000000000000003], "--beta": [-1, 0],
           "--n": [-1, -2], "--m": [-1, 0, 102, 1000]}
    return _spoiled(draw, "unitary-sym", good, bad)


USAGE_ERRORS = [["selftest", "--seed", "x"], ["selftest", "--bogus"], ["nope"],
                [], ["hg-trace", "--N", "3"],
                ["breuil-chain", "--d", "1.5", "--e", "1", "--f", "1"]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(hg_argv(), ordinary_argv(), breuil_argv(), chain_argv(),
                 normalize_argv(), sym_argv(), st.sampled_from(USAGE_ERRORS)))
def test_every_drawn_call_ends_in_a_result_or_one_error_line(argv):
    code, out, err = run_quiet(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert out == "" and err.startswith("error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
