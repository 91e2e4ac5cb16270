"""Outside-in benchmark for ncfactor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout: ncfactor is imported from `src/`.  The
load model is a closed loop with one client: each op is issued after the
previous one returns, in one single-threaded process per workload.

`--trace 0` sets up the workload several times (import, seeded instance
generation, input files, one warm-up op of each kind) and reports the
median set-up time, then makes whole passes over the workload's fixed
op list, stopping at the pass boundary nearest to `--seconds` of op time
once at least MIN_SAMPLES ops are timed.
`--trace 1` runs one untraced pass and two traced passes of the same ops
and reports per-layer spans and counts (see tracing.py); the counts must
repeat exactly across the two traced passes.

Every op's output is checked outside the timed region.  The output
digest (sha256 of the first pass's outputs in op order) must be the same
for every pass, traced or not.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records the run's conditions.  `--smoke` runs every workload
at a tiny size in fresh processes and checks names, units, failures and
digests; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

NC_MODULES = ("errors", "fields", "ncpoly", "matrix", "words", "circuits", "embedding",
              "automaton", "factoring", "quaternion", "linmat", "cli")
SETUP_REPS = 5
# p90 then has at least ten samples above it
MIN_SAMPLES = 100
SMOKE_SEED = 1


class SetupError(Exception):
    """The checkout cannot be benchmarked (no ncfactor sources)."""


def import_ncfactor():
    """Fresh import of every ncfactor module from the checkout's src/."""
    if not (SRC / "ncfactor" / "__init__.py").is_file():
        raise SetupError("no ncfactor package under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ncfactor" or m.startswith("ncfactor.")]:
        del sys.modules[name]
    nc = types.SimpleNamespace(**{m: importlib.import_module("ncfactor." + m)
                                  for m in NC_MODULES})
    if Path(nc.cli.__file__).resolve().parent != (SRC / "ncfactor").resolve():
        raise SetupError("imported ncfactor from %s, not %s" % (nc.cli.__file__, SRC))
    return nc


def execute(nc, op):
    """Run one op: (seconds, output bytes or None, error text or None)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if op.call is not None:
            out = op.call()
            code = 0
        else:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = nc.cli.main(op.argv)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, None, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, "exit %s: %s" % (code, stderr.getvalue().strip())
    if op.call is None:
        if op.out is None:
            out = stdout.getvalue().encode()
        else:
            with open(op.out, "rb") as fh:
                out = fh.read()
    return elapsed, out, None


class Outputs:
    """First output of every op index, and the failures seen so far."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.digests = [None] * len(ops)
        self.ok_runs = [0] * len(ops)
        self.errors = {}
        self.attempted = 0
        self.failed = 0

    def record(self, index, out, error):
        self.attempted += 1
        if error is None:
            digest = hashlib.sha256(out).hexdigest()
            if self.digests[index] is None and index not in self.errors:
                self.first[index] = out
                self.digests[index] = digest
            if digest == self.digests[index]:
                self.ok_runs[index] += 1
                return
            error = "output differs from the op's first output"
        self.failed += 1
        self.errors.setdefault(index, error)

    def check(self):
        """Check every first output; a failed check fails each execution."""
        for index, out in enumerate(self.first):
            if out is None:
                continue
            try:
                reason = self.ops[index].check(out)
            except Exception as exc:  # a malformed output is a failed check
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            if reason is not None:
                self.errors[index] = reason
                self.failed += self.ok_runs[index]
                self.ok_runs[index] = 0
        return self

    def digest(self):
        """sha256 over the first outputs in op order."""
        h = hashlib.sha256()
        for d in self.digests:
            h.update((d or "missing").encode())
        return h.hexdigest()


def setup(name, seed, tiny, workdir, probe):
    """Import, generate the seeded instances, write inputs, warm up one op
    of each kind.  Returns (nc, ops, seconds)."""
    from workloads import WORKLOADS, Builder

    start = time.perf_counter()
    nc = import_ncfactor()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    builder = Builder(nc, random.Random(seed), str(workdir), probe)
    WORKLOADS[name](builder, tiny)
    ops = builder.ops()
    for op in builder.warmups():
        execute(nc, op)
    return nc, ops, time.perf_counter() - start


def run_pass(nc, ops, outputs, tracer=None):
    """One pass over the op list; returns each op's seconds."""
    times = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        elapsed, out, error = execute(nc, op)
        times.append(elapsed)
        outputs.record(index, out, error)
        if tracer is not None and out is not None and op.argv is not None:
            tracer.counts["cli.bytes_out"] += len(out)
    return times


def timed_loop(nc, ops, outputs, seconds, min_samples):
    """Whole passes over the ops, stopping at the pass boundary nearest to
    `seconds` of op time once at least `min_samples` ops are timed;
    returns every op time.  Stopping only between passes keeps the mix of
    op kinds, and so the percentiles, the same in every run."""
    times = []
    last = 0.0
    while not times or sum(times) + last / 2 < seconds or len(times) < min_samples:
        pass_times = run_pass(nc, ops, outputs)
        last = sum(pass_times)
        times += pass_times
    return times


def percentile_summary(times):
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    p50, p90 = statistics.median(times), cuts[8]
    return p50, p90, {"samples": len(times), "method": "statistics.quantiles inclusive",
                      "p50_s": p50, "p90_s": p90,
                      "samples_above_p90": sum(1 for t in times if t > p90)}


def git_commit():
    """Commit of the checkout from .git, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(args, ops):
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "tiny": args.tiny, "ops_per_pass": len(ops),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit()}


def run_untraced(args, workdir):
    """Median of SETUP_REPS set-ups, then the timed loop; end-to-end metrics."""
    setups = []
    for _ in range(SETUP_REPS):
        nc, ops, seconds = setup(args.workload, args.seed, args.tiny, workdir, None)
        setups.append(seconds)
    outputs = Outputs(ops)
    times = timed_loop(nc, ops, outputs, args.seconds, 1 if args.tiny else MIN_SAMPLES)
    outputs.check()
    p50, p90, summary = percentile_summary(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (p50 * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = dict(conditions(args, ops), setup_runs_s=setups, passes=len(times) // len(ops),
                percentiles=summary, output_digest=outputs.digest())
    return [outputs], metrics, info, []


def run_traced(args, workdir):
    """One untraced pass, then two traced passes; per-layer metrics."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    nc, ops, _seconds = setup(args.workload, args.seed, args.tiny, workdir,
                              tracer.count_blocks)
    untraced = Outputs(ops)
    base = sum(run_pass(nc, ops, untraced))
    passes = []
    try:
        tracer.install(nc)
        for _ in range(2):
            tracer.reset()
            outputs = Outputs(ops)
            wall = sum(run_pass(nc, ops, outputs, tracer))
            passes.append((outputs, wall, tracer.totals(), tracer.self_seconds()))
    finally:
        tracer.uninstall()
    (first, wall1, counts, selfs1), (second, wall2, counts2, selfs2) = passes
    problems = []
    if counts != counts2:
        problems.append("per-layer counts differ between traced passes: %s"
                        % sorted(k for k in counts if counts[k] != counts2[k]))
    digests = [o.check().digest() for o in (untraced, first, second)]
    if len(set(digests)) > 1:
        problems.append("output digests differ between untraced and traced passes")
    selfs = {layer: (selfs1[layer] + selfs2[layer]) / 2 for layer in selfs1}
    metrics = layer_metrics(counts, selfs, (wall1 + wall2) / 2 / base - 1)
    info = dict(conditions(args, ops), untraced_pass_s=base, traced_pass_s=[wall1, wall2],
                output_digest=digests[0], exact_counts=counts)
    return [untraced, first, second], metrics, info, problems


def run(args):
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK))
    try:
        passes, metrics, info, problems = (run_traced if args.trace else run_untraced)(
            args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(o.attempted for o in passes)
    failed = sum(o.failed for o in passes)
    errors = {}
    for outputs in passes:
        for index, reason in outputs.errors.items():
            errors.setdefault(index, "%s: %s" % (outputs.ops[index].kind, reason))
    info["fail_frac"] = failed / attempted
    info["errors"] = {str(k): v for k, v in sorted(errors.items())[:10]}
    info["problems"] = problems
    print(json.dumps({"conditions": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }, sort_keys=True))


def smoke():
    """Every workload at a tiny size in fresh processes with different hash
    seeds, twice untraced and twice traced: metric names and units match
    BENCHMARK.json, nothing fails, output digests agree across all four
    runs and exact counts agree across the two traced runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        problems = []
        digests, counts = set(), []
        for trace, hashseed in ((0, "1"), (0, "2"), (1, "3"), (1, "4")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(SMOKE_SEED), "--seconds", "0", "--trace", str(trace),
                   "--tiny"]
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append("trace=%d: exit %d %s" % (trace, proc.returncode,
                                                          proc.stderr.strip()[-500:]))
                continue
            info, result = json.loads(lines[-2])["conditions"], json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append("trace=%d: metric names/units differ from BENCHMARK.json"
                                % trace)
            if not result["correct"] or result["failed"] or info["fail_frac"] != 0:
                problems.append("trace=%d: %s %s" % (trace, info["errors"], info["problems"]))
            digests.add(info["output_digest"])
            if trace:
                counts.append(info["exact_counts"])
        if len(digests) > 1:
            problems.append("output digests differ across runs")
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append("exact counts differ across traced runs: %s" % sorted(
                k for k in counts[0] if counts[0][k] != counts[1].get(k)))
        print("smoke %s: %s" % (workload, "FAILED" if problems else "ok"), flush=True)
        for problem in problems:
            print("  " + problem)
        failed = failed or bool(problems)
    return 1 if failed else 0


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny instances (smoke test)")
    parser.add_argument("--smoke", action="store_true", help="run the self test")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run(args)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
