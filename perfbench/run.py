"""erwlab benchmark: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload mc_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: erwlab is imported from ``src/`` next
to this directory, never from an installed copy.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Earlier lines print each
metric with its unit and a ``# report`` line with the environment,
checks and workload figures.  Temporary files live in
``.perfbench_tmp/`` and are removed on exit.

A run first starts ``SETUP_SAMPLES`` fresh processes that only set up
(import erwlab, build the seeded inputs, warm up); ``setup_s`` is their
median time to ready, over the samples the host did not hold up (see
``undisturbed``).  It then sets itself up, runs the workload's untimed
checks, and repeats the workload's jobs round-robin for ``--seconds``.
``cpu_s`` is the median CPU time of one checked job and
``work_per_cpu_s`` the median work of its core calls per CPU second.
Set-up times and, for calibrated workloads, job times are scaled to the
host's full speed with a calibration kernel run next to them (see
``calibration_s``).  Wall time per job goes in the report: the host's
scheduling of the two simulator threads spreads it too widely to gate on.  With ``--trace 1``
every third job runs without the tracer, so the tracing overhead is
measured in the same process.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc_long", "mc_short", "exact_rows", "analytic")
SETUP_SAMPLES = 7
THREADS = min(2, os.cpu_count() or 1)
# a sample is undisturbed when its wall/CPU ratio is within this factor
# of the lowest ratio seen in the run
QUIET = 1.1

# CPU seconds the calibration kernel takes with the host at full speed on
# the 2-vCPU Xeon the benchmark was built on; calibrated figures are CPU
# seconds at that speed
CALIBRATION_S = 0.035

Sample = namedtuple("Sample", "wall_s cpu_s cal_s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def import_erwlab():
    """Put the tree's src/ first on sys.path and refuse any other erwlab."""
    if not (SRC / "erwlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no erwlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import erwlab

    if SRC.resolve() not in Path(erwlab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported erwlab from {erwlab.__file__}, not {SRC}")


def set_up(name, seed, tmpdir):
    import workloads

    wl = workloads.WORKLOADS[name](seed, THREADS)
    wl.warm(tmpdir)
    return wl


def calibration_s():
    """CPU seconds of a fixed pure-Python kernel that does not touch erwlab.

    A shared host switches between speed states for seconds to minutes;
    the slow state costs interpreter-bound code 1.5-2x in CPU time.  The
    kernel's time follows the state, so a job's CPU time times
    CALIBRATION_S / calibration_s() no longer depends on it.
    """
    def step(x):
        return x * 1.0000001 + 0.5

    c0 = time.process_time()
    acc = 0.0
    trail = []
    for i in range(240_000):
        acc = step(acc) - i * 1e-9
        trail.append(acc)
    sum(trail)
    return time.process_time() - c0


def time_setup(args):
    """Wall seconds from starting a fresh set-up process to its 'ready'
    line, the CPU seconds the process had used by then, and its
    calibration time measured after 'ready'."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        cal = proc.stdout.read()
        code = proc.wait(timeout=120)
    word, _, cpu = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code}, said {line!r})")
    return Sample(elapsed, float(cpu), float(cal))


def undisturbed(samples):
    """The samples the host did not hold up.

    On a shared virtual machine the host can deschedule the CPUs for a
    second or more, which stretches a sample's wall time but not its CPU
    time.  Samples whose wall/CPU ratio is within QUIET of the lowest
    ratio among ``samples`` count as undisturbed.
    """
    lowest = min(s.wall_s / s.cpu_s for s in samples)
    return [s for s in samples if s.wall_s / s.cpu_s <= QUIET * lowest]


def environment(args):
    cpu = next((ln.split(":", 1)[1].strip() for ln in
                Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    import mpmath
    import numpy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "erwlab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "mpmath": mpmath.__version__, "threads": THREADS,
        "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the tree's git checkout, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl, seconds, trace, tmpdir):
    """Run the jobs round-robin for ``seconds``; return the repetitions."""
    from tracer import Tracer
    from workloads import Rep

    memory = {}
    prepared = Rep(memory, tmpdir)
    if wl.prepare:
        wl.prepare(prepared)
    tracer = Tracer() if trace else None
    reps = []
    deadline = time.perf_counter() + seconds
    # each job is scaled by the mean calibration just before and after it
    before = calibration_s() if wl.calibrated else CALIBRATION_S
    while True:
        i = len(reps)
        traced = bool(trace) and i % 3 != 0
        rep = Rep(memory, tmpdir)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            wl.jobs[i % len(wl.jobs)](rep)
        except Exception:  # a raising public call is a failed operation
            traceback.print_exc()
            rep.check(f"job {i % len(wl.jobs)} ran without raising", False)
        finally:
            rep.wall_s = time.perf_counter() - t0
            rep.cpu_s = time.process_time() - c0
            if traced:
                tracer.uninstall()
        after = calibration_s() if wl.calibrated else CALIBRATION_S
        rep.cal_s = 0.5 * (before + after)
        before = after
        rep.traced = traced
        rep.layers = tracer.collect() if traced else None
        reps.append(rep)
        n_traced = sum(r.traced for r in reps)
        if (time.perf_counter() >= deadline and len(reps) >= len(wl.jobs)
                and (not trace or n_traced >= 2)):
            return prepared, reps


def summarise(args, bench, setup_times, prepared, reps):
    from tracer import layer_value
    from workloads import KNOWN_RED

    checks = prepared.checks + [c for r in reps for c in r.checks]
    failed = sum(not ok for _, ok in checks)
    report = dict(prepared.report)
    for rep in reps:
        report.update(rep.report)
    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    if args.trace:
        per_rep = [{m["name"]: layer_value(r.layers, m["name"]) for m in bench["per_layer"]}
                   for r in traced]
        counted = [{k: v for k, v in values.items()
                    if k.endswith(".calls") or k == "specfun.f_eval_per_inverse"}
                   for values in per_rep]
        checks.append(("traced calls counts repeat", all(c == counted[0] for c in counted)))
        overhead = statistics.median(r.wall_s for r in traced) - statistics.median(
            r.wall_s for r in plain)
        report["trace"] = {"overhead_s": overhead, "plain_reps": len(plain),
                           "traced_reps": len(traced), "calls": counted[0]}
        values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
        specs = bench["per_layer"]
    else:
        quiet = undisturbed(reps)
        values = {
            "setup_s": statistics.median(
                s.wall_s * CALIBRATION_S / s.cal_s for s in undisturbed(setup_times)),
            "cpu_s": statistics.median(r.cpu_s * CALIBRATION_S / r.cal_s for r in reps),
            "work_per_cpu_s": statistics.median(
                r.work * r.cal_s / (r.core_cpu_s * CALIBRATION_S) if r.core_cpu_s else 0.0
                for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / len(checks),
        }
        report["setup_samples"] = [tuple(s) for s in setup_times]
        report["jobs"] = {"wall_s": [r.wall_s for r in reps], "cpu_s": [r.cpu_s for r in reps],
                          "calibration_s": [r.cal_s for r in reps],
                          "undisturbed": len(quiet),
                          "undisturbed_wall_s": statistics.median(r.wall_s for r in quiet)}
        specs = bench["end_to_end"]
    failed_names = sorted({name for name, ok in checks if not ok})
    report["failed_checks"] = failed_names
    report["env"] = environment(args)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{name:<42} {m['value']:>16.6g} {m['unit']}")
    print("# report " + json.dumps(report, sort_keys=True, default=float))
    return {
        "correct": not (set(failed_names) - KNOWN_RED),
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Run every workload in its own process; relay their output."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_erwlab()
    tmpdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, tmpdir)
            print(f"ready {time.process_time()!r}", flush=True)
            print(repr(calibration_s()), flush=True)
            return 0
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_times = [] if args.trace else [time_setup(args) for _ in range(SETUP_SAMPLES)]
        wl = set_up(args.workload, args.seed, tmpdir)
        prepared, reps = measure(wl, args.seconds, args.trace, tmpdir)
        result = summarise(args, bench, setup_times, prepared, reps)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
