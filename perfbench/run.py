"""The dwork-forge benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Each operation is one ``python -m dwork_forge.cli`` invocation in a fresh
interpreter, run one at a time against ``src/`` of the checkout this file
sits in. Every output is checked (checks.py). The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, and the
``per_layer`` metrics with ``--trace 1``.

With ``--trace 0`` the run makes passes over the workload's operations
until ``--seconds`` have passed. ``wall_s`` and ``cpu_s`` are the sums over
operations of each operation's median, i.e. the time of a median pass.

With ``--trace 1`` the run makes one untraced pass and one traced pass
(traced.py), whatever ``--seconds`` says, so that count metrics are those of
exactly one pass and repeat exactly for a seed.

    python3 perfbench/run.py --record-digests

rewrites digests.json from the seed-0 outputs of every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, Checker, op_key
from spans import layer_metrics
from workloads import operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ["scan", "algebra", "selftest"]

RUN_BUDGET_S = 170      # the whole run must end within 180 s
OP_TIMEOUT_S = 120
SETUP_SAMPLES = 5       # at the start; more follow every operation
SETUP_EVERY_S = 2.0


class SetupFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("DWORK_FORGE_THREADS", None)   # threads change timings
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Runs operations one at a time and records what each one cost."""

    def __init__(self, tmp: Path, checker: Checker):
        self.tmp = tmp
        self.checker = checker
        self.env = child_env()
        self.started = perf_counter()
        self.attempted = 0
        self.failures = []

    def spawn(self, argv, timeout):
        """Run argv to completion; returns (wall_s, rusage, status, stdout)."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode, out_path.read_bytes()

    def op(self, argv, trace_doc=None):
        """One checked operation; returns a sample dict.

        With ``trace_doc`` set to a list, the operation runs under traced.py
        and its span record is appended to that list.
        """
        self.attempted += 1
        cmd = list(argv)
        report = self.tmp / "report.json"
        if argv[0] == "selftest":
            cmd += ["--out", str(report)]
        if trace_doc is None:
            prefix = [sys.executable, "-m", "dwork_forge.cli"]
        else:
            trace_path = self.tmp / "trace.json"
            prefix = [sys.executable, str(HERE / "traced.py"), str(trace_path)]
        timeout = max(1.0, min(OP_TIMEOUT_S, RUN_BUDGET_S - (perf_counter() - self.started)))
        wall, usage, rc, out = self.spawn(prefix + cmd, timeout)
        if argv[0] == "selftest":
            out = report.read_bytes() if report.exists() else b""
            report.unlink(missing_ok=True)
        try:
            if rc < 0 and wall >= timeout:
                raise CheckFailed(f"timed out after {wall:.1f} s")
            self.checker.check(argv, rc, out)
        except CheckFailed as exc:
            err = (self.tmp / "stderr").read_text(errors="replace").strip()
            self.failures.append(f"{op_key(argv)}: {exc}"
                                 + (f" [{err.splitlines()[-1]}]" if err else ""))
        if trace_doc is not None:
            if trace_path.exists():
                trace_doc.append(json.loads(trace_path.read_text(encoding="utf-8")))
                trace_path.unlink()
            else:
                trace_doc.append({"spans": [], "counters": {}})
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024}


def environment(runner):
    """Check that the checkout's own src/ is what gets imported; this first
    import also writes the bytecode cache, so setup samples start warm."""
    probe = ("import json, platform, numpy, dwork_forge; print(json.dumps("
             "{'dwork_forge': dwork_forge.__file__, 'python': platform.python_version(),"
             " 'numpy': numpy.__version__}))")
    _, _, rc, out = runner.spawn([sys.executable, "-c", probe], 60)
    if rc != 0:
        raise SetupFailed("dwork_forge is not importable from src/")
    info = json.loads(out)
    if not Path(info["dwork_forge"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupFailed(f"dwork_forge resolves outside src/: {info['dwork_forge']}")
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        info["commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        info["commit"] = None
    info["nproc"] = len(os.sched_getaffinity(0))
    return info


def setup_sample(runner):
    """Time to start the interpreter and import dwork_forge.cli."""
    wall, _, rc, _ = runner.spawn([sys.executable, "-c", "import dwork_forge.cli"], 60)
    if rc != 0:
        raise SetupFailed("import dwork_forge.cli failed")
    return wall


def quartiles(xs):
    """(q1, median, q3) as ``statistics.quantiles(xs, n=4)`` gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def closed_loop(runner, ops, seconds):
    """Passes over the operations, in order, until ``seconds`` have passed.

    The first pass always completes, and so does the operation that is
    running at the deadline. Set-up samples follow every operation, one per
    started SETUP_EVERY_S seconds of it, so that they are spread over the
    run's time like the operations are.
    """
    samples = [[] for _ in ops]
    setups = [setup_sample(runner) for _ in range(SETUP_SAMPLES)]
    deadline = perf_counter() + seconds
    done = 0
    while done < len(ops) or perf_counter() < deadline:
        i = done % len(ops)
        samples[i].append(runner.op(ops[i]))
        for _ in range(math.ceil(samples[i][-1]["wall"] / SETUP_EVERY_S)):
            setups.append(setup_sample(runner))
        done += 1
    return samples, setups


def end_to_end(runner, ops, seconds, log):
    samples, setup_samples = closed_loop(runner, ops, seconds)
    walls = [quartiles([s["wall"] for s in ss]) for ss in samples]
    for argv, ss, (q1, med, q3) in zip(ops, samples, walls):
        log(f"op {op_key(argv)[:72]}: n={len(ss)} median {med:.4f} s "
            f"(q1 {q1:.4f}, q3 {q3:.4f}) samples {[round(s['wall'], 4) for s in ss]}")
    q1, med, q3 = (sum(w[j] for w in walls) for j in range(3))
    metrics = {
        "wall_s": med,
        "cpu_s": sum(statistics.median(s["cpu"] for s in ss) for ss in samples),
        "peak_rss_mb": max(s["rss_mb"] for ss in samples for s in ss),
        "setup_s": statistics.median(setup_samples),
    }
    log(f"wall_s quartiles: q1 {q1:.4f} s, q3 {q3:.4f} s (sums of per-op quartiles)")
    log(f"setup_s samples: {' '.join(f'{x:.4f}' for x in setup_samples)}")
    return metrics


def per_layer(runner, ops):
    untraced = [runner.op(argv) for argv in ops]
    docs = []
    traced = [runner.op(argv, trace_doc=docs) for argv in ops]
    metrics = layer_metrics(docs)
    for sub in {argv[0] for w in WORKLOADS for argv in operations(w, 0)}:
        walls = [s["wall"] for argv, s in zip(ops, untraced) if argv[0] == sub]
        metrics[f"cli.{sub}.wall_s"] = statistics.median(walls) if walls else 0.0
    untraced_s = sum(s["wall"] for s in untraced)
    metrics["trace.overhead_frac"] = sum(s["wall"] for s in traced) / untraced_s - 1
    return metrics


def run(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    checker = Checker(json.loads(DIGESTS.read_text()))
    ops = operations(args.workload, args.seed)

    def log(msg):
        print(f"# {msg}", flush=True)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        runner = Runner(tmp, checker)
        log(f"workload={args.workload} seed={args.seed} seconds={seconds} "
            f"trace={args.trace} client=closed-loop x1")
        log(f"env {json.dumps(environment(runner), sort_keys=True)}")
        if args.trace:
            metrics = per_layer(runner, ops)
        else:
            metrics = end_to_end(runner, ops, seconds, log)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(runner.failures)
    for f in runner.failures:
        log(f"FAILED {f}")
    log(f"fail_frac {failed / runner.attempted} ratio ({failed}/{runner.attempted} operations)")
    result = {}
    for m in listed:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        log(f"{m['name']} {metrics[m['name']]} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": result}))


def record_digests():
    """Write the seed-0 output digest of every operation to digests.json."""
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        runner = Runner(tmp, Checker({}))
        environment(runner)
        for w in WORKLOADS:
            for argv in operations(w, 0):
                runner.op(argv)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if runner.failures:
        sys.exit("not recorded, operations failed:\n" + "\n".join(runner.failures))
    DIGESTS.write_text(json.dumps(runner.checker.seen, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind so that Runner.spawn kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.record_digests:
            record_digests()
        elif args.workload is None:
            ap.error("--workload is required")
        else:
            run(args)
    except SetupFailed as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
