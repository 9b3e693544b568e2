"""Benchmark of the oddcovers command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from `src/`,
nothing is installed. Every job is one fresh `oddcovers` process, run as the
console script runs it, in a closed loop with one client: the next job starts
when the previous one has exited. Every output is checked against
`oracle.py`, which does not import `oddcovers`.

With `--trace 0` it reports the end-to-end metrics: `setup_s` (median wall
time of a fresh `import oddcovers.cli`), `solve_s` (median wall time of one
job, from process start to exit with its output read) and `peak_rss_mb`
(median of the job's `ru_maxrss`). With `--trace 1` it alternates untraced
jobs with jobs run under `tracer.py` and reports the per-layer metrics from
the traced ones (medians over jobs) and `trace.overhead_ratio`.

The metric names and units are the ones `BENCHMARK.json` declares. The last
line of standard output is the result as JSON; a summary with sample counts
and `fail_ratio` goes to standard error, and the full record, with every
sample and the provenance of the run, to `.perfbench/results/`.
`--workload all` runs every workload in turn.

The seed permutes the `--routes` list of the table workloads and the order of
traced and untraced jobs; it never changes the arithmetic asked for.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import tracer

SCHEMA_VERSION = 1
ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
JOB_TIMEOUT_S = 150
SETUP_PER_ROUND = 2
# Wall time of reference.py on an idle 2-core 2.1 GHz Xeon VM, the machine
# the workloads were sized on.
REFERENCE_S = 0.3
REFERENCE_SHARE = 0.4
CONSOLE_SCRIPT = "import sys; from oddcovers.cli import main; sys.exit(main())"


def _table(max_g, route_names, extra=()):
    def argv(rng):
        order = list(route_names)
        rng.shuffle(order)
        return ["table", "--max-g", str(max_g), "--routes", ",".join(order),
                *extra, "--format", "json"]
    return argv, lambda payload: oracle.check_table(payload, max_g, route_names)


# Workload name -> (function of the seeded rng giving the CLI argv, output check).
WORKLOADS = {
    "route_table": _table(16, ("closed", "coeff_form", "genfun", "lagrange")),
    "series_deep": (lambda rng: ["series", "--order", "101", "--format", "json"],
                    lambda payload: oracle.check_series(payload, 101)),
    "schubert_deep": _table(50, ("closed", "schubert"), ("--cap", "50")),
    "certify": (lambda rng: ["verify", "--suite", "all", "--max-g", "5", "--format", "json"],
                oracle.check_verify),
}


@dataclass
class Job:
    kind: str
    seconds: float
    rss_mb: float
    problems: list
    layers: dict = field(default_factory=dict)
    scale: float = 1.0


def judge(code, stdout: bytes, stderr: bytes, check) -> list:
    """Why a job's result is wrong; empty when it is correct."""
    problems = []
    if code != 0:
        problems.append("exit code %s" % code)
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    try:
        problems.extend(check(payload))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problems.append("malformed payload: %r" % exc)
    return problems


def _wait(proc, timeout):
    """Reap `proc` with its resource usage, killing it after `timeout` s."""
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # Wait without reaping, so the pid cannot be reused before the
        # timer is stopped.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = None if expired.is_set() else os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_process(cmd, env, stem):
    """Run one process to exit; return (code, stdout, stderr, seconds, usage)."""
    out_path, err_path = OUT / (stem + ".out"), OUT / (stem + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        code, usage = _wait(proc, JOB_TIMEOUT_S)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    return code, stdout, stderr, time.perf_counter() - start, usage


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    def __init__(self, workload, seed, env):
        self.workload = workload
        self.rng = random.Random(seed)
        self.env = env
        self.argv_of, self.check = WORKLOADS[workload]
        self.jobs = []

    def job(self, kind, timed=True):
        argv = self.argv_of(self.rng)
        spans_path = OUT / ("spans-%s.bin" % self.workload)
        if kind == "traced":
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                   str(spans_path), str(len(self.jobs)), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        code, stdout, stderr, seconds, usage = run_process(cmd, self.env, "job-" + self.workload)
        job = Job(kind, seconds, usage.ru_maxrss * 1024 / 1e6,
                  judge(code, stdout, stderr, self.check))
        if code is None:
            job.problems.append("timed out after %d s" % JOB_TIMEOUT_S)
        if kind == "traced" and not job.problems:
            job.layers = tracer.layer_metrics(tracer.load_spans(str(spans_path)))
            job.layers["cli.output_bytes"] = len(stdout)
        if timed:
            self.jobs.append(job)
        return job

    def setup_time(self):
        """Wall time of a fresh `import oddcovers.cli`, or None if it fails."""
        code, _, _, seconds, _ = run_process(
            [sys.executable, "-c", "import oddcovers.cli"], self.env, "setup")
        return seconds if code == 0 else None

    def reference_block(self, busy):
        """Wall times of reference processes run for REFERENCE_SHARE * busy s."""
        block = []
        while not block or sum(block) < REFERENCE_SHARE * busy:
            code, _, stderr, seconds, _ = run_process(
                [sys.executable, str(ROOT / "perfbench" / "reference.py")], self.env, "reference")
            if code != 0:
                raise RuntimeError("reference.py failed: %s" % stderr.decode()[-500:])
            block.append(seconds)
        return block


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, trace, env, declared):
    """One run of one workload; returns its result record.

    A run is a sequence of rounds. A round runs the workload's jobs and,
    without tracing, SETUP_PER_ROUND fresh imports, then a block of
    reference processes lasting at least REFERENCE_SHARE of the jobs' time.
    Each time measured in a round is scaled by REFERENCE_S over the mean of
    the median reference times of the blocks just before and after it, so a
    slow phase of a shared machine cancels. Metrics are medians of the
    scaled samples.
    """
    bench = Bench(workload, seed, env)
    warm = bench.job("plain", timed=False)
    before = bench.reference_block(warm.seconds)
    refs, setup, raw_setup = list(before), [], []
    deadline = time.perf_counter() + seconds
    while True:
        kinds = ["plain", "traced"] if trace else ["plain"]
        bench.rng.shuffle(kinds)
        jobs = [bench.job(kind) for kind in kinds]
        imports = [] if trace else [bench.setup_time() for _ in range(SETUP_PER_ROUND)]
        after = bench.reference_block(sum(job.seconds for job in jobs))
        refs.extend(after)
        scale = 2 * REFERENCE_S / (_median(before) + _median(after))
        for job in jobs:
            job.scale = scale
        raw_setup.extend(t for t in imports if t is not None)
        setup.extend(t * scale for t in imports if t is not None)
        before = after
        if time.perf_counter() >= deadline:
            break
    plain = [j for j in bench.jobs if j.kind == "plain"]
    traced = [j for j in bench.jobs if j.kind == "traced"]
    samples = {"setup_s": setup,
               "solve_s": [j.seconds * j.scale for j in plain],
               "peak_rss_mb": [j.rss_mb for j in plain]}
    if trace:
        overhead = (_median([j.seconds * j.scale for j in traced])
                    / _median(samples["solve_s"]))
        layered = [j for j in traced if j.layers]
        for spec in declared["per_layer"]:
            name = spec["name"]
            if name == "trace.overhead_ratio":
                samples[name] = [overhead]
            else:
                samples[name] = [j.layers[name] * (j.scale if spec["unit"] == "s" else 1)
                                 for j in layered]
    wanted = declared["per_layer" if trace else "end_to_end"]
    metrics = {spec["name"]: {"value": _median(samples[spec["name"]]), "unit": spec["unit"]}
               for spec in wanted}
    everything = [warm] + bench.jobs
    failed = [j for j in everything if j.problems]
    record = {
        "workload": workload,
        "attempted": len(everything),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(everything),
        "problems": sorted({p for j in failed for p in j.problems})[:20],
        "metrics": metrics,
        "samples": {name: samples[name] for name in metrics},
        "raw_s": {"setup": raw_setup, "jobs": [[j.kind, j.seconds] for j in bench.jobs]},
        "reference_s": refs,
        "traced_jobs": len(traced),
        "plain_jobs": len(plain),
    }
    if trace:
        total = sum(metrics[layer + ".self_s"]["value"] for layer in tracer.LAYERS)
        record["self_share"] = {layer: metrics[layer + ".self_s"]["value"] / total
                                for layer in tracer.LAYERS} if total else {}
    return record


def provenance(args):
    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oddcovers").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    package_version = None
    try:
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as handle:
            package_version = tomllib.load(handle)["project"]["version"]
    except (ImportError, OSError, KeyError, ValueError):
        pass
    return {
        "schema_version": SCHEMA_VERSION,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "package_version": package_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": time.time(),
    }


def _summary(record):
    lines = ["%s: %d jobs, %d failed, fail_ratio %.4f"
             % (record["workload"], record["attempted"], record["failed"], record["fail_ratio"])]
    for name, metric in record["metrics"].items():
        values = record["samples"][name]
        lines.append("  %-28s %14.6g %-6s n=%d" % (name, metric["value"], metric["unit"], len(values)))
    lines.extend("  problem: " + p for p in record["problems"])
    return "\n".join(lines) + "\n"


def _check_import(env) -> str:
    """Why oddcovers.cli does not import from this checkout, or ""."""
    code, stdout, stderr, _, _ = run_process(
        [sys.executable, "-c", "import oddcovers.cli; print(oddcovers.cli.__file__)"],
        env, "import")
    where = Path(stdout.decode().strip() or ".").resolve()
    if code != 0 or where.parent != ROOT / "src" / "oddcovers":
        return "oddcovers.cli does not import from %s: %s" % (ROOT, stderr.decode()[-500:])
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        sys.stderr.write("BENCHMARK.json not found at %s\n" % ROOT)
        return 2
    if not (ROOT / "src" / "oddcovers" / "cli.py").is_file():
        sys.stderr.write("no src/oddcovers package under %s\n" % ROOT)
        return 2
    declared = json.loads(declared_path.read_text())
    env = job_env()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    problem = _check_import(env)
    if problem:
        sys.stderr.write(problem + "\n")
        return 2

    stamp = provenance(args)
    sys.stderr.write("provenance: %s\n" % json.dumps(stamp))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, args.trace, env, declared)
        record["provenance"] = stamp
        path = OUT / "results" / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))
        path.write_text(json.dumps(record, indent=1) + "\n")
        sys.stderr.write(_summary(record))
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
