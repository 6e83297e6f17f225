#!/usr/bin/env python3
"""The cckit benchmark: seeded instance sets solved through the CLI.

    python3 perfbench/run.py --workload market --seed 1 --seconds 30 --trace 0

Run from the root of a cckit checkout. One process, one caller, closed
loop: each instance is solved by ``cckit.cli.main([...])`` in-process only
after the previous one returned, with BLAS pinned to one thread. A run

1. times 5 to 9 fresh interpreters that import ``cckit.cli`` and write the
   workload's instance files (``setup_s`` is their median);
2. runs the shipped fixtures once against their known answers (smoke pass);
3. solves one instance of each class untimed (warm-up);
4. solves the whole instance set once, timing each CLI call (the timed
   pass: a fixed amount of work, whatever ``--seconds`` says);
5. re-verifies every output with numpy (``verify.py``), outside the timed
   calls, and requires each repeat solve of an instance to give the same
   bytes as its warm-up.

With ``--trace 1`` the run makes one untraced pass, then one traced pass
(``layers.py``), and reports the per-layer table instead of the end-to-end
metrics. The last line of stdout is the result as one JSON
object; the lines before it are the same numbers for a reader.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import verify  # noqa: E402

#: fresh interpreters timed for setup_s: at least the first number, and
#: more while they have taken less than SETUP_BUDGET_S, up to the second
SETUP_PROBES = (5, 9)
SETUP_BUDGET_S = 3.0

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

#: a solve still running after this long is stopped and counts as failed.
#: The slowest instance class takes about 1.5 s a solve (3-4 s traced); an
#: optimize instance whose projected descent runs its whole 100000-iteration
#: budget takes minutes (README.md), and without a limit would set the
#: length of the run.
SOLVE_LIMIT_S = 15.0

FIXTURE_COMMANDS = {
    "econ_asymmetric": "equilibrium", "econ_symmetric": "equilibrium",
    "table_antisym": "equilibrium", "kkm_intervals": "kkm",
    "minimize_jensen": "minimize", "saddle_pennies": "saddle",
    "seq_alternating": "extract", "seq_escaping": "extract",
}


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class SolveTimeout(BaseException):
    """Raised in a solve that passed SOLVE_LIMIT_S. A BaseException, so no
    ``except Exception`` inside cckit can swallow it."""


def _expire(signum, frame):
    raise SolveTimeout


class Run:
    """Counts what was attempted and what failed, with the reasons."""

    def __init__(self, cli_main, work: str):
        self.cli_main = cli_main
        self.work = work
        self.attempted = 0
        self.failures: list = []
        signal.signal(signal.SIGALRM, _expire)

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def solve(self, inst: dict, call=None):
        """Solve one instance through the CLI; (rc, seconds, bytes, output)."""
        self.attempted += 1
        out_path = os.path.join(self.work, inst["name"] + ".out.json")
        argv = [inst["command"], inst["file"], *inst["flags"], "--out", out_path]
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, SOLVE_LIMIT_S)
            try:
                rc = call(argv) if call else self.cli_main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except SolveTimeout:
            dt = time.perf_counter() - t0
            self.fail(inst["name"], f"stopped after {SOLVE_LIMIT_S:g} s")
            return None, dt, b"", {}
        except Exception:  # an escaped bug fails the instance, not the run
            dt = time.perf_counter() - t0
            self.fail(inst["name"], "raised " + traceback.format_exc(limit=3))
            return None, dt, b"", {}
        dt = time.perf_counter() - t0
        with open(out_path, "rb") as fh:
            raw = fh.read()
        return rc, dt, raw, json.loads(raw)


def setup_probes(workload: str, seed: int, work: str):
    """Fresh set-ups: (median wall time, how many, the first one's manifest,
    whether every one wrote the same bytes)."""
    times, digests = [], set()
    for k in range(SETUP_PROBES[1]):
        if k >= SETUP_PROBES[0] and sum(times) >= SETUP_BUDGET_S:
            break
        out = os.path.join(work, f"setup{k}")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe_setup.py"),
             "--workload", workload, "--seed", str(seed), "--out", out],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        digest = hashlib.sha256()
        for name in sorted(os.listdir(out)):
            if name != "manifest.json":
                with open(os.path.join(out, name), "rb") as fh:
                    digest.update(fh.read())
        digests.add(digest.hexdigest())
        if k:
            shutil.rmtree(out)
    with open(os.path.join(work, "setup0", "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return statistics.median(times), len(times), manifest, len(digests) == 1


def smoke(run: Run) -> None:
    for name, command in sorted(FIXTURE_COMMANDS.items()):
        inst = {"name": "fixture_" + name, "command": command, "flags": [],
                "file": os.path.join(FIXTURES, name + ".json")}
        rc, _, _, out = run.solve(inst)
        if rc is not None:
            why = verify.fixture(name, rc, out)
            if why:
                run.fail(inst["name"], why)


def solve_checked(run: Run, inst: dict, reference: dict, call=None):
    """Solve, re-verify, and compare the output's digest with that of the
    instance's first solve. The instance body is read back from its file
    for the check and dropped after it, so the process holds one at most."""
    rc, dt, raw, out = run.solve(inst, call)
    if rc is None:
        return dt, None
    tol = float(inst["flags"][inst["flags"].index("--tol") + 1])
    with open(inst["file"], encoding="utf-8") as fh:
        body = json.load(fh)
    why = verify.check(inst["command"], body, rc, out, tol)
    if why:
        run.fail(inst["name"], why)
    digest = hashlib.sha256(raw).digest()
    if reference.setdefault(inst["name"], digest) != digest:
        run.fail(inst["name"], "output bytes differ from an earlier solve")
    return dt, out


def timed_pass(run, manifest, reference):
    """One solve of every instance; (class, CLI call seconds) per solve."""
    return [(inst["cls"], solve_checked(run, inst, reference)[0])
            for inst in manifest]


def end_to_end(samples, setup_s, probes) -> dict:
    ms = sorted(1000.0 * s for _, s in samples)
    n = len(ms)
    tail_at = max(0, n - TAIL_BEYOND - 1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (sum(s for _, s in samples), "s"),
        "solve_ms.p50": (statistics.median(ms), "ms"),
        "solve_ms.tail": (ms[tail_at], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    pct = 100.0 * (tail_at + 1) / n
    notes = {
        "wall_s": f"sum of {n} CLI call times",
        "solve_ms.p50": f"{n} solves",
        "solve_ms.tail": f"p{pct:.1f} of {n} solves, {n - tail_at - 1} beyond",
        "setup_s": f"median of {probes} fresh interpreters",
        "peak_rss_mb": "getrusage maxrss",
    }
    for cls in dict.fromkeys(c for c, _ in samples):
        times = [1000.0 * s for c, s in samples if c == cls]
        notes[f"class {cls}"] = (f"{len(times)} solves, median "
                                 f"{statistics.median(times):.1f} ms, "
                                 f"range {min(times):.1f}-{max(times):.1f} ms")
    return metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main() -> None:
    ap = argparse.ArgumentParser(description="cckit benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(gen.MIX) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="accepted for a uniform command line; the timed pass "
                         "is a fixed instance set and does not depend on it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(SRC, "cckit", "cli.py"))
            and os.path.isdir(FIXTURES)):
        _die(f"no cckit checkout around the benchmark (need {SRC}/cckit "
             f"and {FIXTURES})")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    work = os.path.join(ROOT, ".bench_out",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))


def run_all(args) -> dict:
    """Each workload in its own interpreter, in turn; their tables are
    passed through and their results merged, metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in gen.MIX:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _die(f"{workload} failed:\n{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def bench(args, work: str) -> dict:
    setup_s, probes, manifest, same_inputs = setup_probes(args.workload,
                                                          args.seed, work)
    sys.path.insert(0, SRC)
    from cckit.cli import main as cli_main

    run = Run(cli_main, work)
    if not same_inputs:
        run.fail("setup", "the same seed wrote different instance files")

    smoke(run)
    reference: dict = {}
    firsts = {}
    for inst in manifest:
        firsts.setdefault(inst["cls"], inst)
    for inst in firsts.values():
        solve_checked(run, inst, reference)

    if args.trace:
        metrics, notes = traced(run, manifest, reference, firsts,
                                os.path.join(ROOT, ".bench_out",
                                             f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        samples = timed_pass(run, manifest, reference)
        metrics, notes = end_to_end(samples, setup_s, probes)

    digest = hashlib.sha256()
    for name in sorted(reference):
        digest.update(name.encode() + b"\0" + reference[name])
    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(manifest)}")
    for name, (value, unit) in metrics.items():
        note = notes.pop(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    for name, note in notes.items():
        print(f"  {name:<40} {note}")
    print(f"  {'failed_frac':<40} {failed / run.attempted:>14.6g} ratio  "
          f"{failed} of {run.attempted} attempted")
    print(f"  outputs digest {digest.hexdigest()}")
    for line in run.failures:
        print(f"  FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(run, manifest, reference, firsts, spans_path):
    from layers import Tracer

    untraced_wall = sum(dt for _, dt in timed_pass(run, manifest, reference))
    tracer = Tracer()
    tracer.install()
    outputs = {}

    def traced_main(name):
        def call(argv):
            tracer.begin(name)
            return tracer.call(run.cli_main, "cli.main", argv)
        return call

    try:
        traced_wall = 0.0
        for inst in manifest:
            dt, out = solve_checked(run, inst, reference,
                                    traced_main(inst["name"]))
            outputs[inst["name"]] = out or {}  # a failed solve adds no counters
            traced_wall += dt
        counts = {name: tracer.call_counts(name) for name in outputs}
        # deterministic counters must repeat exactly on a second traced solve
        for inst in firsts.values():
            again = "again:" + inst["name"]
            solve_checked(run, inst, reference, traced_main(again))
            first, second = counts[inst["name"]], tracer.call_counts(again)
            moved = sorted(k for k in first.keys() | second.keys()
                           if first.get(k) != second.get(k))
            if moved:
                run.fail(inst["name"], "counters differ on a repeat solve: "
                         + ", ".join(moved))
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics([i["name"] for i in manifest], outputs)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    tracer.write_spans(spans_path)
    metrics = {k: (v, layer_unit(k)) for k, v in layer.items()}
    # equal across runs of one seed: wrapper call counts and walk rounds
    counters = hashlib.sha256(json.dumps(counts, sort_keys=True).encode())
    notes = {"trace.overhead_s": f"traced {traced_wall:.3f} s - untraced "
                                 f"{untraced_wall:.3f} s; {len(tracer.spans)} spans kept, "
                                 f"{tracer.dropped} over the cap",
             "counters digest": counters.hexdigest()}
    for cls in dict.fromkeys(i["cls"] for i in manifest):
        shares, total = tracer.layer_shares(
            [i["name"] for i in manifest if i["cls"] == cls])
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        notes[f"class {cls}"] = f"traced {total:.3f} s, self time: " + ", ".join(
            f"{layer} {100 * t / total:.0f}%" for layer, t in top)
    return metrics, notes


if __name__ == "__main__":
    main()
