"""The qschur benchmark: seeded closed-loop workloads against the checkout's src/.

Usage::

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  One client runs jobs back to back (a closed
loop) for ``--seconds``; every job's output is checked independently, and
the last line of stdout is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  End-to-end times
are scaled to a machine of fixed speed by reference work timed in the same
run (``reference.py``), so the host's speed drift does not show as a change
of the program.  A traced run runs each of the seed's jobs twice in a row,
untraced and then with span wrappers installed, and reports the per-layer
totals of the traced runs together with their overhead over the untraced
ones.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter

from checks import check_cold, check_decompose, check_wronskian
from jobs import COLD, ROUNDS, Job, cli_args, job_stream, terms
from spans import LayerTotals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_tmp"

#: Wall-clock limit of one job; a job that runs longer is killed and failed.
JOB_TIMEOUT_S = 60.0
#: Every run ends within this many seconds of its start, whatever happens.
RUN_LIMIT_S = 165.0
#: Address-space limit set in each job child (never in this process).
CHILD_MEMORY_BYTES = 1 << 30
#: Set-up samples per untraced run, spread evenly over its job loop so that
#: their median sees the same machine state as the jobs' median.
COLD_SETUP_SAMPLES = 25
WARM_SETUP_SAMPLES = 7
#: Reference-job samples per untraced run, spread over the run the same way.
REFERENCE_SAMPLES = 25
#: Timing metrics are in seconds on a machine where the reference job takes
#: REFERENCE_S and the in-process calibration CALIBRATION_S; this takes out the
#: shared machine's speed drift.  Set-ups and cold jobs are scaled by
#: REFERENCE_S over the run's mean reference time.  The mean, not the median:
#: reference times fall in two modes, and the median jumps between them as
#: their shares change from run to run.  The products-warm jobs are scaled by
#: CALIBRATION_S over the mean of the calibrations their process ran, one
#: just before each job.  One factor per run: scaling each job by its own
#: calibration let the tail pick out the jobs whose factor erred upwards.
REFERENCE_S = 0.125
CALIBRATION_S = 0.02


@dataclass
class Outcome:
    job: Job
    seconds: float
    error: str | None
    maxrss_kb: int = 0
    calibration: float | None = None  # products-warm: seconds, just before the job


def _memory_limit() -> int:
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    return CHILD_MEMORY_BYTES if hard == resource.RLIM_INFINITY else min(
        CHILD_MEMORY_BYTES, hard
    )


class Children:
    """Starts job children with a memory limit and reaps them with rusage."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.limit = _memory_limit()

    def _limit(self) -> None:  # runs in the child, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (self.limit, self.limit))

    def timeout(self) -> float:
        return max(0.0, min(JOB_TIMEOUT_S, self.deadline - monotonic()))

    def popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen(
            argv, cwd=ROOT, env=self.env, preexec_fn=self._limit, **kwargs
        )

    @staticmethod
    def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, int, bool]:
        """Wait up to ``timeout`` s, killing the child after; (code, maxrss_kb, killed)."""
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], timeout)
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        finally:
            os.close(pidfd)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss, not exited

    def run(self, argv: list[str]) -> tuple[int, float, int, bool, str, str]:
        """Run one child to the end: (code, seconds, maxrss_kb, killed, out, err)."""
        out_path, err_path = WORK / "job.out", WORK / "job.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = self.popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, maxrss, killed = self.reap(proc, self.timeout())
            seconds = perf_counter() - start
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return code, seconds, maxrss, killed, stdout, stderr


class Runner:
    """What both kinds of workload share: warm-up and span collection."""

    def __init__(self, children: Children, traced: bool) -> None:
        self.children = children
        self.traced = traced
        self.layers = LayerTotals()
        self.trace_text: list[str] = []
        self.missing: set[str] = set()  # traced names qschur did not have

    def warm_up(self) -> None:
        """One untimed CLI job each way, so .pyc compilation is timed nowhere."""
        args = ["verify", "--m-max", "1", "--order", "10"]
        self.children.run([sys.executable, "-m", "qschur", *args])
        if self.traced:
            self.children.run(_shim_argv(-1, args))
            (WORK / "job.spans").unlink(missing_ok=True)

    def collect_spans(self, path: Path) -> None:
        """Fold a traced process's span file into the totals, keep its text."""
        if path.exists():
            text = path.read_text(encoding="utf-8")
            header, *lines = text.splitlines()
            self.missing.update(json.loads(header)["missing"])
            self.layers.add([json.loads(line) for line in lines])
            self.trace_text.append(text)
            path.unlink()


def reference_once(children: Children) -> float:
    """Seconds the fixed reference job took, from spawn to reap."""
    code, seconds, _maxrss, killed, _out, err = children.run(
        [sys.executable, str(HERE / "reference.py")]
    )
    if code != 0 or killed:
        raise RuntimeError(f"the reference job failed (exit {code}): {err.strip()}")
    return seconds


def _shim_argv(index: int, args: list[str]) -> list[str]:
    spans = str(WORK / "job.spans")
    return [sys.executable, str(HERE / "shim.py"), spans, str(index), *args]


class ColdRunner(Runner):
    """Each job is a fresh interpreter running the qschur CLI."""

    setup_samples = COLD_SETUP_SAMPLES

    def setup_once(self) -> float:
        """A fresh interpreter plus ``import qschur``."""
        return self.children.run([sys.executable, "-c", "import qschur"])[1]

    def run(self, index: int, job: Job, traced: bool) -> Outcome:
        args = cli_args(job)
        argv = _shim_argv(index, args) if traced else [
            sys.executable, "-m", "qschur", *args
        ]
        code, seconds, maxrss, killed, stdout, stderr = self.children.run(argv)
        if killed:
            error = f"killed after {seconds:.1f} s"
        else:
            error = check_cold(job, code, stdout, stderr)
        if traced:
            self.collect_spans(WORK / "job.spans")
        return Outcome(job, seconds, error, maxrss)

    def close(self) -> list[int]:
        return []


class WarmChild:
    """The products-warm library process and its line protocol."""

    def __init__(self, children: Children, spans_path: str | None) -> None:
        self.children = children
        argv = [sys.executable, str(HERE / "warm.py")]
        if spans_path is not None:
            argv.append(spans_path)
        self.err = open(WORK / "warm.err", "ab")
        start = perf_counter()
        self.proc = children.popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            bufsize=0,
        )
        self.buffer = b""
        ready = self._read_reply(children.timeout())
        self.setup_s = perf_counter() - start
        if ready != {"ready": True}:
            self.kill()
            raise RuntimeError("the warm process did not finish set-up")

    def _read_reply(self, timeout: float) -> dict | None:
        """The next reply line, or None on timeout or end of output."""
        end = monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            left = end - monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return json.loads(line)

    def request(self, obj: dict, timeout: float) -> dict | None:
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        except BrokenPipeError:
            return None
        return self._read_reply(timeout)

    def close(self) -> int:
        """End input, wait for the process to exit; its maxrss in KiB."""
        self.proc.stdin.close()
        _code, maxrss, _killed = Children.reap(self.proc, self.children.timeout())
        self.proc.stdout.close()
        self.err.close()
        return maxrss

    def kill(self) -> int:
        self.proc.stdin.close()
        _code, maxrss, _killed = Children.reap(self.proc, 0.0)
        self.proc.stdout.close()
        self.err.close()
        return maxrss


class WarmRunner(Runner):
    """Jobs are library calls in a long-lived process built by set-up.

    A traced run keeps one untraced and one traced process side by side.
    """

    def __init__(self, children: Children, traced: bool) -> None:
        super().__init__(children, traced)
        self.procs: dict[bool, WarmChild] = {}
        self.maxrss: list[int] = []

    setup_samples = WARM_SETUP_SAMPLES

    def setup_once(self) -> float:
        """Import plus the table build in a fresh process.

        The first one stays to serve the untraced jobs; later ones end at once.
        """
        child = WarmChild(self.children, None)
        if False not in self.procs:
            self.procs[False] = child
        else:
            self.maxrss.append(child.close())
        return child.setup_s

    def _retire(self, traced: bool, killed: bool = False) -> None:
        child = self.procs.pop(traced, None)
        if child is None:
            return
        self.maxrss.append(child.kill() if killed else child.close())
        if traced:
            self.collect_spans(WORK / "warm.spans")

    def run(self, index: int, job: Job, traced: bool) -> Outcome:
        start = perf_counter()
        if traced not in self.procs:
            try:
                self.procs[traced] = WarmChild(
                    self.children, str(WORK / "warm.spans") if traced else None
                )
            except RuntimeError as exc:
                return Outcome(job, perf_counter() - start, str(exc))
            start = perf_counter()
        reply = self.procs[traced].request(
            {"job": index, "kind": job.kind, **dict(job.args)}, self.children.timeout()
        )
        if reply is None:
            seconds = perf_counter() - start
            self._retire(traced, killed=True)
            return Outcome(job, seconds, f"no reply after {seconds:.1f} s")
        if "error" in reply:
            return Outcome(job, perf_counter() - start, reply["error"])
        result = reply["result"]
        if job.kind == "wronskian":
            error = check_wronskian(job, result["min_exp"], result["coeffs"])
        else:
            error = check_decompose(job, result)
        return Outcome(job, reply["seconds"], error, calibration=reply["calibration"])

    def close(self) -> list[int]:
        for traced in list(self.procs):
            self._retire(traced)
        return self.maxrss


def closed_loop(runner, jobs, budget_s: float, deadline: float,
                modes: tuple[bool, ...],
                samplers=()) -> tuple[list[list[Outcome]], list[list[float]]]:
    """Run jobs one after another until ``budget_s`` has passed.

    Each job runs once per mode (False: untraced, True: traced), back to back,
    so an untraced and a traced run of one job see the same machine state.
    Each sampler is a function returning seconds and a count: between jobs it
    is called at ``count`` evenly spaced points of the budget, the first
    before any job.  Returns the outcomes per mode and the samples per sampler.
    """
    runs: list[list[Outcome]] = [[] for _ in modes]
    samples: list[list[float]] = [[] for _ in samplers]
    start = monotonic()
    for index, job in enumerate(jobs):
        now = monotonic()
        if now - start >= budget_s or now >= deadline:
            break
        for (sample, count), taken in zip(samplers, samples):
            if len(taken) < count and now - start >= len(taken) * budget_s / count:
                taken.append(sample())
        for traced, outcomes in zip(modes, runs):
            outcome = runner.run(index, job, traced)
            if outcome.error is not None:
                print(f"FAILED job {index} ({job.describe()}): {outcome.error}",
                      file=sys.stderr)
            outcomes.append(outcome)
    return runs, samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten jobs above it: (value, percentile,
    jobs above).  With ten jobs or fewer there is none, and the slowest job stands in."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 if n <= 10 else n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def job_scale(outcomes: list[Outcome], scale: float) -> float:
    """The factor that puts job times in reference seconds: from the jobs'
    calibrations where they have them, else ``scale``."""
    calibrations = [o.calibration for o in outcomes if o.calibration is not None]
    return CALIBRATION_S / statistics.mean(calibrations) if calibrations else scale


def end_to_end(outcomes: list[Outcome], times: list[float], setups: list[float],
               maxrss_kb: list[int]) -> dict[str, float]:
    """The end-to-end metrics from the outcomes, their ``times`` and set-up times."""
    checked = sum(terms(o.job) for o in outcomes if o.error is None)
    tail_s, _pct, _above = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "terms_per_s": checked / sum(times),
        "peak_rss_mb": max(maxrss_kb) / 1024,
    }


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
            for m in declared[group]}


def _environment() -> str:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        sha = ref
    return (f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"git {sha}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qschur" / "__init__.py").is_file():
        print(f"error: no qschur sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    children = Children(deadline)
    traced = bool(args.trace)
    runner_cls = ColdRunner if args.workload in COLD else WarmRunner
    runner = runner_cls(children, traced)
    runner.warm_up()

    stream = job_stream(args.workload, args.seed)
    samplers = () if traced else (
        (runner.setup_once, runner.setup_samples),
        (lambda: reference_once(children), REFERENCE_SAMPLES),
    )
    modes = (False, True) if traced else (False,)
    try:
        runs, samples = closed_loop(
            runner, stream, args.seconds, deadline, modes, samplers
        )
    except RuntimeError as exc:  # set-up or the reference job failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        process_rss = runner.close()
    if not traced:
        [outcomes], (setups, references) = runs, samples
        maxrss = [o.maxrss_kb for o in outcomes] + process_rss
        scale = REFERENCE_S / statistics.mean(references)
        jobs_scale = job_scale(outcomes, scale)
        values = end_to_end(outcomes, [o.seconds * jobs_scale for o in outcomes],
                            [t * scale for t in setups], maxrss)
        unscaled = end_to_end(outcomes, [o.seconds for o in outcomes], setups, maxrss)
        all_outcomes = outcomes
    else:
        plain, traced_runs = runs
        base = sum(o.seconds for o in plain)
        values = runner.layers.metrics(len(traced_runs))
        values["trace.overhead_frac"] = sum(o.seconds for o in traced_runs) / base - 1
        values["trace.missing_names"] = len(runner.missing)
        (WORK / f"trace-{args.workload}-{args.seed}.jsonl").write_text(
            "".join(runner.trace_text), encoding="utf-8"
        )
        all_outcomes = plain + traced_runs

    for name in ("job.out", "job.err", "job.spans"):
        (WORK / name).unlink(missing_ok=True)
    warm_err = WORK / "warm.err"
    if warm_err.exists() and not warm_err.stat().st_size:
        warm_err.unlink()

    failed = sum(o.error is not None for o in all_outcomes)
    attempted = len(all_outcomes)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs, "
          f"{failed} failed (failed_frac {failed / attempted:.4f}); {_environment()}")
    if not traced:
        _tail_s, pct, above = tail([o.seconds for o in outcomes])
        print(f"  job_tail_s is p{pct:.1f} of {len(outcomes)} jobs ({above} above it); "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"  reference job: mean {statistics.mean(references):.4f} s of "
              f"{len(references)}; set-ups are scaled by {scale:.4f}, jobs by "
              f"{jobs_scale:.4f}; unscaled: "
              + ", ".join(f"{k} {unscaled[k]:.6g}" for k in unscaled if k != "peak_rss_mb"))
    elif runner.missing:
        print(f"  NOT TRACED (missing from qschur, their time is charged to the "
              f"caller): {', '.join(sorted(runner.missing))}")
    units = declared_units()
    metrics = {name: (value, units[name]) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
