"""demixcs benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src` directory.  With `--trace 0` the run measures end-to-end metrics
with only outcome capture installed.  With `--trace 1` every job is
followed by a traced twin on the same inputs, and the run reports
per-layer metrics from the traced spans plus the tracing overhead.

Every run measures set-up: fresh processes each import `demixcs.cli` and
build and apply every family the workload uses, half of them before the
jobs and half after, and `setup_s` is the median.  The host's speed
shifts by up to half for tens of seconds at a time, so samples taken
back to back all land in one state; spread over the run they do not.
Jobs run in whole rounds for about `--seconds` (at least one round; the
default is `run_seconds` in BENCHMARK.json).  After timing, every job's
outputs are checked; a failed check prints the reason on stderr, reports
`"correct": false` and exits 1.

Detail records (provenance, job times, output SHA-256 digests, spans) go
to `.perfbench_out/` in the checkout.  The last stdout line is the
result object.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import END, START, Probe, layer_metrics
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5   # per side of the timed jobs


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    spec = bench_spec()
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Refused(Exception):
    """The checkout cannot be benchmarked (no source tree, bad arguments)."""


def import_checkout():
    """Put the checkout's `src` first on sys.path and import demixcs from it."""
    src = ROOT / "src"
    if not (src / "demixcs" / "__init__.py").is_file():
        raise Refused(f"no demixcs source tree under {src}")
    sys.path.insert(0, str(src))
    import demixcs

    if Path(demixcs.__file__).resolve().parent != (src / "demixcs").resolve():
        raise Refused(f"imported demixcs from {demixcs.__file__}, not from {src}")
    return src


def measure_setup(workload, src):
    specs = [f"{f}:{n}:{m}" for f, n, m in workload.families]
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *specs],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(times):
    """Nearest-rank p90 job time as (value, percentile, jobs beyond it).

    From 110 jobs on this leaves at least ten jobs beyond it.  A fixed
    percentile, rather than the highest one with ten jobs beyond, keeps
    the value on the same inputs when a run fits one more round.
    """
    ordered = sorted(times)
    idx = math.ceil(0.9 * len(ordered)) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def provenance(src, workload, seed, jobs):
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((src / "demixcs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "benchmark_seed": seed,
        "program_seeds": sorted({job["seed"] for job in jobs}),
    }


def run_jobs(workload, seed, seconds, traced, probe, workdir):
    """Time whole rounds of jobs for about `seconds`.

    Traced runs follow each job with a traced twin on the same inputs.
    """
    jobs = []
    started = time.perf_counter()

    def one(program_seed, trace):
        wd = workdir / f"job-{len(jobs):05d}"
        if trace:
            probe.install_spans()
            root = probe.begin_job(len(jobs))
            try:
                out = workload.run_job(program_seed, wd)
            finally:
                probe.end_job(root)
                probe.uninstall_spans()
            elapsed = root[END] - root[START]
        else:
            t0 = time.perf_counter()
            out = workload.run_job(program_seed, wd)
            elapsed = time.perf_counter() - t0
        jobs.append(dict(out, seed=program_seed, workdir=str(wd), time=elapsed, traced=trace))

    # start another round only if one more of average length still ends
    # within `seconds`, so long jobs do not overrun twofold
    rounds = 0
    while rounds == 0 or (time.perf_counter() - started) * (rounds + 1) / rounds <= seconds:
        for program_seed in workload.round_seeds(seed, rounds):
            one(program_seed, False)
            if traced:
                one(program_seed, True)
        rounds += 1
    return jobs


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        raise Refused("--seed must be >= 0 and --seconds > 0")

    src = import_checkout()

    workload = WORKLOADS[args.workload]()
    setup = measure_setup(workload, src)

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    probe = Probe()
    probe.install_capture(keep=workload.captures)
    try:
        jobs = run_jobs(workload, args.seed, args.seconds, args.trace, probe, workdir)
    finally:
        probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(workload, src)

    detail = {"provenance": provenance(src, workload, args.seed, jobs),
              "setup_samples_s": setup,
              "jobs": [{k: job[k] for k in ("seed", "time", "traced", "code")} for job in jobs]}
    correct, problem = True, None
    try:
        quality, hashes, counts = workload.verify(jobs, probe)
    except CheckFailed as exc:
        correct, problem = False, str(exc)
        quality, hashes = {}, {}
        counts = {"attempted": len(jobs), "failed": sum(job["code"] != 0 for job in jobs)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(quality=quality, output_sha256=hashes, counts=counts, check_failure=problem)

    untraced = [job["time"] for job in jobs if not job["traced"]]
    wall_s = statistics.median(untraced)
    tail_s, tail_pct, beyond = tail(untraced)
    detail["wall_s_tail"] = {"value": tail_s, "percentile": tail_pct,
                             "jobs": len(untraced), "beyond": beyond}
    failed_frac = counts["failed"] / counts["attempted"]
    if args.trace:
        # means, not medians: layer self times are per-job means and add
        # up to the mean traced job; each traced job has an untraced twin
        # on the same inputs
        traced = [job["time"] for job in jobs if job["traced"]]
        metrics = layer_metrics(probe.spans, len(traced))
        metrics.update({
            "trace.wall_s": statistics.mean(traced),
            "wall_s_tail": tail_s,
            "trace.overhead_frac": statistics.mean(traced) / statistics.mean(untraced) - 1.0,
            "failed_frac": failed_frac,
            "error_l1": quality.get("error_l1", 0.0),
            "error_irls": quality.get("error_irls", 0.0),
        })
        units = metric_units()[1]
        probe.write(OUT / f"{tag}-spans.csv")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "recovery_rate": quality.get("recovery_rate", 0.0),
        }
        units = metric_units()[0]
    detail["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"workload {workload.name}: {len(untraced)} untraced jobs, wall_s median "
          f"{wall_s:.6g} s, wall_s_tail = p{tail_pct:.1f} of {len(untraced)} jobs "
          f"({beyond} beyond it) {tail_s:.6g} s; "
          f"failed {counts['failed']} of {counts['attempted']} operations "
          f"(failed_frac {failed_frac:.6g}); detail in {OUT.name}/{tag}.json")
    if problem:
        print(f"perfbench: CHECK FAILED on {workload.name}: {problem}", file=sys.stderr)
    print(result_line(correct, counts["attempted"], counts["failed"], metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
