"""Outside-in benchmark of the circulant-qft command line.

Run from the repository root:

    python3 perfbench/run.py --workload paper_qpe --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A run generates the workload's configs from the seed and times workload
passes, one pass being one run of the workload's command list:

* --trace 0: passes as fresh `python -m circulant_qft` subprocesses give
  wall_s and peak_rss_mb; passes through `circulant_qft.cli.main` in this
  warm process give solve_s; cold `import circulant_qft.cli` children give
  setup_s.  u_err and qpe_infidelity come from the passes' outputs.  Each
  timing is scaled to a reference host speed (hostspeed.py) and reported
  as the run's median.
* --trace 1: warm passes alternate untraced and traced; the traced ones
  wrap the program's module boundaries (spans.WRAP_TABLE) and give the
  per-layer self times and counts, and `-X importtime` children give the
  import breakdown.

Load is a closed loop with one client: a command starts after the previous
one ended, and at most one child process exists at a time.  Every output
is checked (checks.py); a wrong output counts as a failed invocation.
Human-readable lines come first; the last line of stdout is the JSON
result.  A fuller record, environment included, goes to
.perfbench_run/result-<workload>-seed<seed>-trace<trace>.json, outside the
program's output directories.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path


WORKLOAD_NAMES = ("paper_qpe", "ring8_qpe", "diag_dense")
SRC = Path("src")
WORK = Path(".perfbench_run")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RSS_PASSES = 1  # cold passes that read peak RSS, before any warm pass
MIN_WARM, MIN_TRACED = 2, 2  # passes per run, however short the run
MIN_SETUP = 3  # cold-import samples per run
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT = 120.0  # seconds; a run must end within 180
REF_SELF_CHECK = 0.01  # reference 8x-vs-16x distance, as a share of u_err
SPAN_SUM_TOL = 1e-6  # seconds by which layer self times may miss the total

# Timings, each scaled to the reference host speed and reported as the
# median of the run's samples.
TIMINGS = ("setup_s", "wall_s", "solve_s")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MiB", "u_err": "1", "qpe_infidelity": "1"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import circulant_qft.cli; "
                "print(time.perf_counter() - t)")


def fits(rounds, deadline):
    """Whether one more round, as long as the longest so far, ends by the
    deadline."""
    return time.perf_counter() + max(rounds, default=0.0) < deadline


class BenchmarkError(Exception):
    """The benchmark cannot measure: the program is missing or a child hung."""


def pin_to_one_cpu():
    """Run this process and, by inheritance, every child on one CPU: the
    calibration kernel (hostspeed.py) then reads the speed of the CPU the
    program runs on.  The last CPU is taken, as device interrupts are
    mostly served by the first.  Returns the CPU count before pinning and
    the CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def cap_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def child_env():
    env = dict(os.environ)
    paths = [str(SRC.resolve())] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _alarm(signum, frame):
    raise TimeoutError


def run_child(argv, stdout_path, stderr_path, rss=False):
    """Run one child to completion: (exit code, wall s, peak RSS MiB or None).

    The peak RSS comes from os.wait4.  Linux carries a parent's peak over
    into a child it spawns, so it is read only while this process is still
    smaller than its children, and refused when it cannot be told apart
    from this process's own.
    """
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=child_env())
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException as exc:
                proc.kill()
                proc.wait()
                if isinstance(exc, TimeoutError):
                    raise BenchmarkError(f"{argv} ran over {CHILD_TIMEOUT} s")
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not rss:
        return proc.returncode, wall, None
    if usage.ru_maxrss <= own_peak:
        raise BenchmarkError(
            f"child peak RSS {usage.ru_maxrss} KiB is not above the "
            f"benchmark's own {own_peak} KiB; it cannot be measured")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Ledger:
    """Every command invocation, its outcome, and one directory per
    distinct output that still has to pass the content checks."""

    def __init__(self, checks):
        self.checks = checks
        self.invocations = []  # (key, digest, errors)
        self.first_digest = {}
        self.to_check = {}  # (key, digest) -> output directory
        self.content_errors = {}  # (key, digest) -> errors, once checked

    def record(self, key, out_dir, exit_code, stderr_text):
        """Log one invocation; True when its outputs are new and kept."""
        command, _, extra = key
        errors = []
        if exit_code != 0:
            errors.append(f"{command}: exit code {exit_code}")
        if "Traceback (most recent call last)" in stderr_text:
            errors.append(f"{command}: traceback on stderr")
        files = [out_dir / name for name in
                 self.checks.expected_files(command, list(extra))
                 if name.endswith(self.checks.DETERMINISTIC_SUFFIXES)]
        value = digest(files)
        if self.first_digest.setdefault(key, value) != value:
            errors.append(f"{command}: outputs differ from its first run")
        self.invocations.append((key, value, errors))
        if (key, value) in self.to_check or (key, value) in self.content_errors:
            return False
        self.to_check[(key, value)] = out_dir
        return True

    def check_contents(self, configs):
        """Run the content checks on each output not yet checked; return
        the values they extracted, keyed by command."""
        values = {}
        while self.to_check:
            (key, value), out_dir = self.to_check.popitem()
            command, config, extra = key
            errors, found = self.checks.check_command(
                command, out_dir, configs[config], list(extra))
            self.content_errors[(key, value)] = errors
            values.setdefault(command, found)
        return values

    def _errors(self, invocation):
        key, value, errors = invocation
        return errors + self.content_errors.get((key, value), [])

    @property
    def failed(self):
        return sum(1 for inv in self.invocations if self._errors(inv))

    def failures(self):
        return sorted({e for inv in self.invocations for e in self._errors(inv)})


class Runner:
    """One workload, one seed: the passes, the checks and the metrics."""

    def __init__(self, workload, seed, seconds, checks):
        import hostspeed

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / workload.name
        self.ledger = Ledger(checks)
        self.problems = []  # benchmark-level checks that failed
        self.passes = 0
        self.cli = None
        self.clock = hostspeed.Clock(kernel=None)  # on in _measure_end_to_end
        self.absent = []  # WRAP_TABLE spans missing from the program
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.config_dir = self.dir / "configs"
        self.config_dir.mkdir(parents=True)
        for name, cfg in workload.configs.items():
            (self.config_dir / name).write_text(json.dumps(cfg, indent=1))

    def _pass_dir(self, kind):
        self.passes += 1
        path = self.dir / f"{self.passes:03d}-{kind}"
        path.mkdir()
        return path

    def _argv(self, command, config, extra, out_dir):
        return [command, "--config", str(self.config_dir / config),
                "--out", str(out_dir)] + list(extra)

    def _finish_pass(self, out_dir, kept):
        if not any(kept):
            shutil.rmtree(out_dir)

    def import_seconds(self, flags=()):
        """One cold `import circulant_qft.cli` child: (its interval, timing
        the import alone, and stderr)."""
        log = self.dir / "import"
        with self.clock.interval() as interval:
            code, _, _ = run_child(
                [sys.executable, *flags, "-c", IMPORT_PROBE],
                log.with_suffix(".out"), log.with_suffix(".err"))
        stdout = log.with_suffix(".out").read_text()
        stderr = log.with_suffix(".err").read_text()
        if code != 0:
            raise BenchmarkError(f"cannot import circulant_qft.cli:\n{stderr}")
        interval.seconds = float(stdout.split()[-1])
        return interval, stderr

    def cold_pass(self, rss):
        """Commands as fresh subprocesses: (their intervals, largest peak
        RSS MiB or None when rss is false)."""
        out_dir = self._pass_dir("cold")
        intervals, peaks, kept = [], [], []
        for command, config, extra in self.workload.commands:
            log = out_dir / f".{command}"
            with self.clock.interval() as interval:
                code, interval.seconds, peak = run_child(
                    [sys.executable, "-m", "circulant_qft",
                     *self._argv(command, config, extra, out_dir)],
                    log.with_suffix(".out"), log.with_suffix(".err"), rss)
            intervals.append(interval)
            peaks.append(peak)
            kept.append(self.ledger.record(
                (command, config, tuple(extra)), out_dir, code,
                log.with_suffix(".err").read_text(errors="replace")))
        self._finish_pass(out_dir, kept)
        return intervals, max(peaks) if rss else None

    def warm_pass(self, kind="warm", workload=None):
        """Commands through cli.main in this process: (their intervals,
        bytes written)."""
        workload = workload or self.workload
        out_dir = self._pass_dir(kind)
        intervals, kept = [], []
        for command, config, extra in workload.commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            argv = self._argv(command, config, extra, out_dir)
            with self.clock.interval() as interval:
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), \
                            contextlib.redirect_stderr(stderr):
                        code = self.cli.main(argv)
                except (Exception, SystemExit):  # the CLI must never raise
                    code = None
                    stderr.write(traceback.format_exc())
                interval.seconds = time.perf_counter() - start
            intervals.append(interval)
            kept.append(self.ledger.record(
                (command, config, tuple(extra)), out_dir, code,
                stderr.getvalue()))
        bytes_out = sum(p.stat().st_size for p in out_dir.iterdir())
        self._finish_pass(out_dir, kept)
        return intervals, bytes_out

    def load_cli(self):
        sys.path.insert(0, str(SRC.resolve()))
        import circulant_qft.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"imported {cli.__file__}, not the checkout's")
        self.cli = cli

    def measure(self, trace):
        start = time.perf_counter()
        self.import_seconds()  # compiles bytecode; users do not pay it again
        if trace:
            return self._measure_traced(start)
        return self._measure_end_to_end(start)

    def _measure_end_to_end(self, start):
        """Cold and warm passes alternate for the whole run, so that a slow
        spell of a shared machine falls on both kinds alike.  The first
        passes are cold ones: they read peak RSS before this process loads
        the program and grows past its children.  A round of passes starts
        only while it can end within the run's seconds.

        Each command and each cold import is scaled by the kernel readings
        around it."""
        from hostspeed import Clock

        self.clock = Clock()
        setup, wall, rss, solve = [], [], [], []

        def cold(read_rss):
            setup.append([self.import_seconds()[0]])
            intervals, peak = self.cold_pass(read_rss)
            wall.append(intervals)
            if read_rss:
                rss.append(peak)

        for _ in range(RSS_PASSES):
            cold(True)
        self.load_cli()
        self.warm_pass()  # lets lazy set-up finish; checked, not timed
        rounds = []
        while (len(solve) < MIN_WARM or len(setup) < MIN_SETUP
               or fits(rounds, start + self.seconds)):
            began = time.perf_counter()
            solve.append(self.warm_pass()[0])
            cold(False)
            rounds.append(time.perf_counter() - began)
        timed = {"setup_s": setup, "wall_s": wall, "solve_s": solve}
        samples = {name: [Clock.scaled(p) for p in passes]
                   for name, passes in timed.items()}
        metrics = {name: statistics.median(samples[name]) for name in TIMINGS}
        samples["peak_rss_mb"] = rss
        # the raw record: (start, end, seconds, factor) of every interval and
        # (start, seconds) of every kernel reading, in seconds into the run
        samples["intervals"] = {
            name: [[(i.start - start, i.end - start, i.seconds, i.factor)
                    for i in p] for p in passes]
            for name, passes in timed.items()}
        samples["kernel_readings"] = [(t - start, s)
                                      for t, s in self.clock.readings]
        metrics["peak_rss_mb"] = statistics.median(rss)
        metrics.update(self._accuracy())
        return metrics, samples

    def _accuracy(self):
        """u_err and qpe_infidelity from the checked outputs."""
        import numpy as np
        import workloads
        from checks import model_matrices, window
        from reference import pulse_pair, reference_propagator

        source = self.workload
        values = self.ledger.check_contents(source.configs)
        if "evolve" not in values:  # diag_dense: see workloads.ACCURACY_PROBE
            source = workloads.ACCURACY_PROBE
            for name, cfg in source.configs.items():
                (self.config_dir / name).write_text(json.dumps(cfg, indent=1))
            self.warm_pass("probe", source)
            values = self.ledger.check_contents(
                {**self.workload.configs, **source.configs})
        infidelity = [x for command in ("qpe", "sweep")
                      for x in values.get(command, {}).get("infidelity", [])]
        cfg = source.configs["evolve.json"]
        if "u" not in values.get("evolve", {}) or not infidelity:
            self.problems.append("no checked evolve and qpe output to measure "
                                 "u_err and qpe_infidelity on")
            return {"u_err": None, "qpe_infidelity": None}
        h0, h1 = model_matrices(cfg)
        u_ref, spread = reference_propagator(
            h0, h1, pulse_pair(cfg["pulses"]), window(cfg), cfg["steps"])
        u_err = float(np.linalg.norm(values["evolve"]["u"] - u_ref))
        if not spread <= REF_SELF_CHECK * u_err:
            self.problems.append(
                f"reference self-check: 8x and 16x differ by {spread:.3e}, "
                f"more than {REF_SELF_CHECK:.0%} of u_err {u_err:.3e}")
        return {"u_err": u_err, "qpe_infidelity": float(max(infidelity))}

    def _measure_traced(self, start):
        import spans
        from hostspeed import Clock

        breakdowns = [spans.import_breakdown(
            self.import_seconds(("-X", "importtime"))[1])
            for _ in range(IMPORTTIME_SAMPLES)]
        self.load_cli()
        self.warm_pass()
        untraced, traced, per_pass, rounds = [], [], [], []
        while len(traced) < MIN_TRACED or fits(rounds, start + self.seconds):
            began = time.perf_counter()
            untraced.append(Clock.scaled(self.warm_pass()[0]))
            tracer = spans.Tracer()
            with tracer:
                intervals, bytes_out = self.warm_pass("traced")
            traced.append(Clock.scaled(intervals))
            per_pass.append(self._pass_layers(spans, tracer, bytes_out))
            rounds.append(time.perf_counter() - began)
        self.ledger.check_contents(self.workload.configs)
        self.absent = tracer.absent
        path = WORK / f"spans-{self.workload.name}-seed{self.seed}.json"
        path.write_text(json.dumps({"names": spans.SPANS,
                                    "spans": tracer.spans}))

        metrics = {f"import.{key}_s": statistics.median(b[key] for b in breakdowns)
                   for key in breakdowns[0]}
        counts = per_pass[0][0]
        if any(c != counts for c, _ in per_pass):
            self.problems.append("span counts differ between traced passes")
        metrics.update(counts)
        for name in per_pass[0][1]:
            metrics[name] = statistics.median(t[name] for _, t in per_pass)
        steps = counts["kernels.propagate.steps"]
        metrics["propagator.useful_step_ratio"] = (
            counts["propagator.evolve.requested_steps"] / steps if steps else 0.0)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        return metrics, {"untraced_s": untraced, "traced_s": traced}

    def _pass_layers(self, spans, tracer, bytes_out):
        """(counts, self times) of one traced pass."""
        totals, root_total = spans.summarize(tracer.spans)
        layer_sum = sum(own for _, own in totals.values())
        if abs(layer_sum - root_total) > SPAN_SUM_TOL:
            self.problems.append(
                f"layer self times sum to {layer_sum:.6f} s, traced "
                f"cli.main total is {root_total:.6f} s")
        counts = {f"{span}.calls": calls for span, (calls, _) in totals.items()}
        counts.update(tracer.counts)
        counts["cli.bytes_out"] = bytes_out
        times = {f"{span}.self_s": own for span, (_, own) in totals.items()}
        times["trace.total_s"] = root_total
        return counts, times


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metric_units():
    """The per-layer metrics of a traced run, in report order, with units."""
    import spans
    names = ([f"import.{key}_s" for key in
              ("numpy", "scipy", "circulant_qft", "total")]
             + [f"{span}.calls" for span in spans.SPANS] + spans.COUNTS
             + ["cli.bytes_out"] + [f"{span}.self_s" for span in spans.SPANS]
             + ["trace.total_s", "propagator.useful_step_ratio",
                "trace.overhead_s"])
    return {name: layer_unit(name) for name in names}


def percentile_note(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            value = sorted(samples)[math.ceil(n * p / 100) - 1]
            return f"p{p:g} {value:.6g}"
    return "no percentile has 10 samples beyond it"


def git_commit():
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = Path(".git") / ref[5:]
    return path.read_text().strip() if path.is_file() else f"unknown ({ref})"


def environment(nproc, cpu):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": nproc, "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "commit": git_commit()}


def run_workload(name, seed, seconds, trace, env):
    import checks
    import workloads

    runner = Runner(workloads.WORKLOADS[name](seed), seed, seconds, checks)
    metrics, samples = runner.measure(trace)
    ledger = runner.ledger
    units = layer_metric_units() if trace else END_TO_END_UNITS
    correct = ledger.failed == 0 and not runner.problems
    result = {"correct": correct, "attempted": len(ledger.invocations),
              "failed": ledger.failed,
              "metrics": {m: {"value": metrics[m], "unit": units[m]}
                          for m in units}}

    print(f"== {name} seed {seed} trace {trace} | " + ", ".join(
        f"{k} {v}" for k, v in env.items() if k != "blas_threads")
        + " | " + " ".join(f"{k}={v}" for k, v in env["blas_threads"].items()))
    for metric, entry in result["metrics"].items():
        line = f"  {metric} = {entry['value']} {entry['unit']}"
        values = samples.get(metric)
        if values:
            line += (f"  (median of {len(values)}; "
                     f"{percentile_note(values)})")
        print(line)
    if "kernel_readings" in samples:
        import hostspeed
        seconds = [s for _, s in samples["kernel_readings"]]
        print(f"  host speed: calibration kernel median "
              f"{statistics.median(seconds):.4g} s over {len(seconds)} "
              f"readings, {min(seconds):.4g}-{max(seconds):.4g} s; timings "
              f"are scaled to its reference {hostspeed.REFERENCE_S:g} s")
    print(f"  fail_ratio = {ledger.failed}/{len(ledger.invocations)} "
          f"failed/attempted command invocations")
    for problem in ledger.failures() + runner.problems:
        print(f"  FAILED: {problem}")
    if runner.absent:
        print(f"  absent spans (reported as 0): {', '.join(runner.absent)}")

    record = dict(result, workload=name, seed=seed, trace=trace,
                  seconds=seconds, environment=env, samples=samples,
                  failures=ledger.failures(), problems=runner.problems,
                  absent_spans=runner.absent)
    (WORK / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOAD_NAMES])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circulant_qft" / "__init__.py").is_file():
        print("perfbench: no src/circulant_qft here; run from the root of a "
              "circulant-qft checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc, cpu = pin_to_one_cpu()
    cap_blas_threads()  # before numpy is first imported
    WORK.mkdir(exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, environment(nproc, cpu))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own child, one after the other: a workload run
    in this process would carry its peak RSS into the next one's children."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
