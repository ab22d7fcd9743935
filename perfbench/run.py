"""Benchmark of `defset verify` through the real CLI entry point.

    python3 perfbench/run.py --workload grid10 --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from `src/`.  Each pass
is one in-process `defset.cli.main(["verify", "--grid", ...])` call, run as a
closed loop with one caller and no `--jobs`, after clearing the field cache
(`defset.fields.field.cache_clear()`), because every real CLI call is a fresh
process that pays field construction.  Every pass's JSON output is compared
byte for byte with `reference.json`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median pass
time, the import time of `defset.cli` in fresh interpreters, and the peak
resident memory of one pass in a fresh process.  --trace 1 alternates
untraced passes with traced replays (see replay.py) and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record, with the
pass times, provenance and (under --trace 1) every span, goes to
`.perfbench/results/`.  Exit code 0: every output matched the reference;
1: some did not; 2: the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE, expected_exit, git_sha, matching_entries
from workloads import WORKLOADS, grid_arg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
# numeric libraries stay single-threaded, so the run uses one core at a time
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# CLI settings read from the environment; unset so that only the flags here apply
CLI_ENV = ("CAP", "JOBS")

IMPORT_TIMER = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import defset.cli\n"
                "print(time.perf_counter() - t0, defset.cli.__file__)\n")
# VmHWM, not ru_maxrss: Linux carries the parent's high-water mark over exec
# into the child's ru_maxrss, and the parent has run passes of its own
RSS_PASS = ("import sys\n"
            "from defset.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
            "sys.exit(code)\n")


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """Python code in a fresh interpreter, with the environment import_package set."""
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def measure_setup() -> list[float]:
    """Seconds to import defset.cli in fresh interpreters, one at a time."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        done = run_child(IMPORT_TIMER)
        if done.returncode != 0:
            raise BenchError(f"importing defset.cli failed:\n{done.stderr}")
        seconds, path = done.stdout.split(maxsplit=1)
        if not Path(path.strip()).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"defset.cli came from {path.strip()}, not {SRC}")
        if i:  # the first run warms the file and bytecode caches
            samples.append(float(seconds))
    return samples


class WorkloadRun:
    """One workload at one seed: its verify command and its reference check."""

    def __init__(self, name: str, seed: int):
        self.spec = WORKLOADS[name]
        self.entries = self.spec.draw(seed)
        self.ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["variants"][self.spec.variant]
        self.exit_code = expected_exit(self.ref, self.entries)
        self.out = OUT / f"{name}-pass.json"
        self.argv = ["verify", "--grid", grid_arg(self.entries), "--format", "json",
                     "--out", str(self.out), *self.spec.flags()]
        self.attempted = 0
        self.failed = 0

    def check(self, code: int, path: Path | None = None) -> None:
        """Count the pass's entries, and those whose output or exit code is wrong.

        Consumes the output file, so that a pass which writes none fails.
        """
        path = path or self.out
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            text = ""
        path.unlink(missing_ok=True)
        ok = matching_entries(text, self.ref, self.entries)
        if code != self.exit_code:
            ok = [False] * len(ok)
        self.attempted += len(ok)
        self.failed += ok.count(False)


def timed_pass(wl: WorkloadRun, cli, fields) -> float:
    fields.field.cache_clear()
    t0 = time.perf_counter()
    code = cli.main(wl.argv)
    elapsed = time.perf_counter() - t0
    wl.check(code)
    return elapsed


def end_to_end(wl: WorkloadRun, seconds: float, cli, fields) -> tuple[dict, dict]:
    setup = measure_setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(wl, cli, fields))
    done = run_child(RSS_PASS, *wl.argv)
    if not done.stdout.strip():
        raise BenchError(f"the fresh-process pass crashed:\n{done.stderr}")
    wl.check(done.returncode)
    metrics = {
        "verify_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": int(done.stdout.split()[-1]) / 1024,
    }
    return metrics, {"pass_s": passes, "setup_s": setup}


def traced(wl: WorkloadRun, seconds: float, cli, fields) -> tuple[dict, dict]:
    import replay  # imports defset, so only once import_package has run

    max_q = wl.spec.max_q or fields.DEFAULT_MAX_Q
    checks = wl.spec.checks or cli.CHECK_FAMILIES
    fields.field.cache_clear()
    real = [cli.run_verification(p, m, max_q=max_q, checks=checks) for p, m in wl.entries]
    wl.attempted += len(real)
    wl.failed += sum(r.passed != (wl.exit_code == 0) for r in real)

    untraced, builds, per_pass, spans = [], [], [], []
    replay_out = OUT / f"{wl.spec.name}-replay.json"
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        untraced.append(timed_pass(wl, cli, fields))
        builds.append(fields.field.cache_info().misses)
        fields.field.cache_clear()
        tracer = replay.Tracer()
        reports = replay.replay_pass(tracer, wl.entries, max_q, checks, replay_out)
        wl.check(wl.exit_code, replay_out)
        wl.failed += sum(not replay.same_work(a, b) for a, b in zip(reports, real))
        per_pass.append(replay.layer_metrics(tracer.spans))
        spans.append(tracer.spans)

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["fields.builds"] = statistics.median(builds)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(untraced)
    return metrics, {"untraced_pass_s": untraced, "builds": builds,
                     "layers": per_pass, "spans": spans}


def provenance(numpy_version: str) -> dict:
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def import_package():
    if not (SRC / "defset" / "cli.py").is_file():
        raise BenchError(f"no defset sources under {SRC}; run from a checkout of the repository")
    for key in CLI_ENV:
        os.environ.pop(key, None)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy
    from defset import cli, fields
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"defset came from {cli.__file__}, not {SRC}")
    return cli, fields, numpy.__version__


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cli, fields, numpy_version = import_package()
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WorkloadRun(args.workload, args.seed)
    prov = provenance(numpy_version)
    print(f"workload {args.workload} seed {args.seed}: {len(wl.entries)} entries "
          f"{grid_arg(wl.entries)} {' '.join(wl.spec.flags())}".rstrip())
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))

    try:
        if args.trace:
            values, samples = traced(wl, args.seconds, cli, fields)
        else:
            values, samples = end_to_end(wl, args.seconds, cli, fields)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:36} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        layers = " + ".join(f"{k} {values[k]:.4f}" for k in values if k.endswith(".self_s"))
        print(f"layer self-times: {layers} = "
              f"{sum(v for k, v in values.items() if k.endswith('.self_s')):.4f} s "
              f"of traced pass {values['trace.pass_s']:.4f} s")
    else:
        passes = sorted(samples["pass_s"])
        tail = ""
        if len(passes) > 10:  # the highest percentile with ten passes above it
            tail = f", p{100 * (len(passes) - 10) // len(passes)} {passes[-11]:.4f} s"
        print(f"verify_s is the median of {len(passes)} passes (min {passes[0]:.4f} s{tail}, "
              f"max {passes[-1]:.4f} s); setup_s the median of "
              f"{len(samples['setup_s'])} fresh imports")
    print(f"failed_share {wl.failed / wl.attempted:.6g} ({wl.failed} of {wl.attempted} entries)")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "entries": wl.entries, "flags": wl.spec.flags(),
              "provenance": prov, "metrics": metrics, "samples": samples,
              "attempted": wl.attempted, "failed": wl.failed}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    correct = wl.failed == 0
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
