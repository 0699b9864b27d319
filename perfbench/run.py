"""isometry-lab benchmark: seeded inputs, CLI and library timings, traced layers.

    python3 perfbench/run.py --workload plane-batch --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and starts the CLI as `python -m isometry_lab`, through a small
launcher process (launcher.py). All load comes from this one process,
pinned to one core (the launcher and the CLI children inherit the pin), as
a closed loop: the next batch or call starts only after the previous one
returned. Every answer is checked against an independent reference
(reference.py) that never imports the package. End-to-end times are scaled
to a reference machine speed (see REF_CAL_S).

With `--trace 0` the last line of stdout carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of a traced run (see
README.md for what each one should move). The line before it, starting
with `info:`, records the environment, sample counts, the failure ratio
with its base, and SHA-256 digests of the CLI output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.generate import SUBCOMMANDS, WORKLOADS, instances, workload_instances  # noqa: E402
from perfbench.reference import check_batch, check_record  # noqa: E402
from perfbench.tracing import PLANAR, SPHERICAL, Tracer, write_spans  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

# Fresh interpreters timed per traced run for the import metrics.
IMPORT_REPEATS = 9
# Fresh `import isometry_lab.cli` interpreters timed per iteration (setup_s).
SETUP_REPEATS = 5
# Fewest measured iterations of an end-to-end run, however short --seconds.
MIN_ITERATIONS = 2
# Library calls and traced batches use the first this many instances of
# each kind; the CLI batches use all of them.
LIBRARY_PER_KIND = 1000
# Library calls are timed in chunks of about this many seconds.
CHUNK_S = 0.04
CHILD_TIMEOUT_S = 120

# Machine speed. Other tenants of a shared host slow the benchmark's core
# by up to 1.5x, in spells from a fraction of a second to minutes. The
# core itself runs slower, so CPU time slows as much as wall time does.
# Every timed step therefore runs between two calibrations, each a fixed
# piece of the benchmark's own pure-Python work (`_calibrate`), and while
# a CLI child runs the benchmark stops it every PROBE_EVERY_S, calibrates
# again, and lets it go on. A
# step's time is multiplied by REF_CAL_S over the mean calibration from
# just before it to just after it. A scaled time is what the step would
# take on a core where the calibration takes REF_CAL_S, about its time on
# a quiet core of the machine the benchmark was tuned on (Intel Xeon,
# 2 vCPU KVM guest, CPython 3.11). The calibration work and REF_CAL_S
# change together or not at all.
REF_CAL_S = 0.006
# A calibration older than this is repeated before the next step.
STALE_S = 0.05
PROBE_EVERY_S = 0.2


def _calibrate() -> float:
    """CPU seconds of the calibration work, so that time lost to other
    processes does not count. The collector is off while it runs, so that
    its time does not depend on how much the benchmark holds."""
    gc.disable()
    try:
        start = thread_time()
        instances("sphere_recover", 240, 0)
        instances("plane_compose", 720, 0)
        return thread_time() - start
    finally:
        gc.enable()


class Clock:
    """Scales step times to the reference speed (see REF_CAL_S).

    Call `start()` right before a step and `factor()` right after it;
    `calibrate()` may run in between."""

    def __init__(self):
        self.calibrations: list[float] = []
        self._first = 0  # index of the calibration before the current step
        self._ended = float("-inf")

    def calibrate(self) -> None:
        self.calibrations.append(_calibrate())
        self._ended = perf_counter()

    def start(self) -> None:
        if perf_counter() - self._ended > STALE_S:
            self.calibrate()
            self._first = len(self.calibrations) - 1

    def factor(self) -> float:
        """Calibrate again; the factor that scales the step just ended."""
        self.calibrate()
        window = self.calibrations[self._first:]
        self._first = len(self.calibrations) - 1
        return REF_CAL_S / statistics.fmean(window)


@contextlib.contextmanager
def _stopped(pid: int):
    """Keep process `pid` stopped for the duration, if it has not exited."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGSTOP)
    try:
        yield
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGCONT)


class Launcher:
    """launcher.py, which starts every CLI child (see its docstring)."""

    def __init__(self, env: dict):
        # Unbuffered, so that no reply waits in a buffer while select()
        # watches the pipe.
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, bufsize=0,
        )
        self.hwm_kb = 0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        return json.loads(line)

    def run(self, argv: list[str], stdout: Path, stderr: Path, probe=None) -> dict:
        """Run one child. Every PROBE_EVERY_S until it exits, stop it, call
        `probe()` and let it go on: a probe that shared the core with the
        child would read slower than the calibrations around the child."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        pid = self._read()["pid"]
        while probe and not select.select([self.proc.stdout], [], [], PROBE_EVERY_S)[0]:
            with _stopped(pid):
                probe()
        reply = self._read()
        self.hwm_kb = max(self.hwm_kb, reply["launcher_hwm_kb"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _pin() -> int:
    """Pin this process (and so its children) to its highest allowed core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def _p(samples: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of the samples."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _more(started: float, seconds: float, durations: list[float], minimum: int) -> bool:
    """Whether to start another iteration: always until `minimum` are done,
    then only if one as long as the longest so far ends within `seconds`."""
    if len(durations) < minimum:
        return True
    return perf_counter() - started + max(durations) <= seconds


class Run:
    """One benchmark run: its inputs, scratch directory and tallies."""

    def __init__(self, workload_name: str, seed: int, seconds: float, launcher: Launcher):
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.launcher = launcher
        self.clock = Clock()
        self.by_kind = workload_instances(self.workload, seed)
        self.flat = [inst for insts in self.by_kind.values() for inst in insts]
        self.sample = {kind: insts[:LIBRARY_PER_KIND] for kind, insts in self.by_kind.items()}
        self.work = WORK / f"{workload_name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kb = 0
        self.raw_times: list[float] = []  # of every timed child, unscaled
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.info: dict = {}

    def tally(self, reasons) -> None:
        for reason in reasons:
            self.attempted += 1
            if reason:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(reason)

    def svg_path(self, directory: str, stem: str) -> Path | None:
        """Where to write SVGs, or None when the workload writes none."""
        if not self.workload.svg:
            return None
        (self.work / directory).mkdir(parents=True, exist_ok=True)
        return self.work / directory / f"{stem}.svg"

    def child(self, argv: list[str], probe=None) -> dict:
        """Run `python argv...` through the launcher; stdout and stderr go
        to the files `stdout` and `stderr` in the scratch directory."""
        return self.launcher.run([sys.executable, *argv],
                                 self.work / "stdout", self.work / "stderr", probe)

    def timed_child(self, argv: list[str]) -> tuple[float, dict]:
        """A child's scaled CPU time, and the launcher's reply. CPU time,
        not wall time, so that the probes that stop the child do not count;
        the two agree within a few percent when nothing else runs."""
        self.clock.start()
        reply = self.child(argv, probe=self.clock.calibrate)
        self.raw_times.append(reply["cpu_s"])
        return reply["cpu_s"] * self.clock.factor(), reply

    # -- inputs --------------------------------------------------------------

    def write_batches(self, by_kind: dict, directory: str) -> list[tuple[str, Path, list[dict]]]:
        (self.work / directory).mkdir(parents=True, exist_ok=True)
        batches = []
        for kind, insts in by_kind.items():
            path = self.work / directory / f"{kind}.json"
            path.write_text(json.dumps(insts))
            batches.append((kind, path, insts))
        return batches

    def cli_argv(self, kind: str, path: Path, directory: str) -> list[str]:
        argv = [SUBCOMMANDS[kind], "--input", str(path)]
        svg = self.svg_path(directory, kind)
        if svg is not None:
            argv += ["--svg", str(svg)]
        return argv

    def svg_digest(self, directory: str, kind: str, n: int) -> tuple[str, list[str | None]]:
        """Digest of the batch's SVG files in index order, plus a failure
        reason per missing file. The files are removed afterwards."""
        svg = self.svg_path(directory, kind)
        h = hashlib.sha256()
        reasons: list[str | None] = []
        for i in range(n):
            f = svg.with_name(f"{svg.stem}.{i}{svg.suffix}")
            if f.is_file():
                h.update(f.read_bytes())
                f.unlink()
                reasons.append(None)
            else:
                reasons.append("SVG file missing")
        return h.hexdigest(), reasons

    # -- end-to-end ----------------------------------------------------------

    def cli_round(self, batches, digests: dict, walls: dict) -> None:
        """Run every batch through a CLI subprocess, one after the other,
        appending each one's scaled wall time to `walls[kind]`. The first
        round's outputs are checked against the reference; `digests[kind]`
        keeps their digest and verdicts. A later round must reproduce them
        byte for byte and then shares their verdicts."""
        for kind, path, insts in batches:
            seconds, reply = self.timed_child(
                ["-m", "isometry_lab", *self.cli_argv(kind, path, "cli")])
            walls.setdefault(kind, []).append(seconds)
            self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
            stdout = (self.work / "stdout").read_bytes()
            svg_digest, svg_reasons = "", [None] * len(insts)
            if self.workload.svg:
                svg_digest, svg_reasons = self.svg_digest("cli", kind, len(insts))
            digest = {"stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                      "svg_sha256": svg_digest or None}
            if kind not in digests:
                reasons = check_batch(insts, reply["returncode"], stdout)
                digests[kind] = (digest, [a or b for a, b in zip(reasons, svg_reasons)])
            first, reasons = digests[kind]
            if digest != first:
                reasons = ["output differs from the first run with this seed"] * len(insts)
            self.tally(reasons)

    def library_warmup(self) -> list[tuple]:
        """Parse every sampled instance and solve it once with
        `isometry_lab.cli.run`, checking each record against the reference.
        Returns the calls to time: (kind, problem, svg path, expected
        record, its verdict)."""
        from isometry_lab import cli

        calls = []
        for kind, insts in self.sample.items():
            for i, inst in enumerate(insts):
                problem = cli.instance_from_obj(inst)
                svg = self.svg_path("lib", f"{kind}-{i}")
                record = cli.run(problem, svg_path=svg).to_dict()
                calls.append((kind, problem, svg, record, check_record(inst, record)))
        self.tally(call[4] for call in calls)
        return calls

    def library_pass(self, calls: list[tuple], scaled: bool) -> list[float]:
        """Seconds per `cli.run` call over one pass of every call, scaled to
        the reference speed chunk by chunk when `scaled`. Each record must
        equal the warm-up's, and shares its verdict."""
        from isometry_lab.cli import run

        samples: list[float] = []
        chunk: list[float] = []

        def flush():
            factor = self.clock.factor() if scaled else 1.0
            samples.extend(s * factor for s in chunk)
            chunk.clear()

        if scaled:
            self.clock.start()
        began = perf_counter()
        for _, problem, svg, want, verdict in calls:
            start = perf_counter()
            record = run(problem, svg_path=svg)
            chunk.append(perf_counter() - start)
            self.tally([verdict if record.to_dict() == want else "record differs between calls"])
            if perf_counter() - began >= CHUNK_S:
                flush()
                began = perf_counter()
        if chunk:
            flush()
        return samples

    def end_to_end(self) -> dict:
        """Repeat {CLI round, library pass, fresh imports} until the time is
        up, with every step timed at the reference speed (see REF_CAL_S),
        and report medians over the run."""
        setup_argv = ["-c", "import isometry_lab.cli"]
        batches = self.write_batches(self.by_kind, "in")
        self.child(setup_argv)  # warm-up: bytecode compiled, files cached
        calls = self.library_warmup()
        digests: dict = {}
        walls: dict = {}
        samples: list[float] = []
        setups: list[float] = []
        durations: list[float] = []
        started = perf_counter()
        while _more(started, self.seconds, durations, MIN_ITERATIONS):
            began = perf_counter()
            self.cli_round(batches, digests, walls)
            samples += self.library_pass(calls, scaled=True)
            for _ in range(SETUP_REPEATS):
                seconds, reply = self.timed_child(setup_argv)
                if reply["returncode"] != 0:
                    raise RuntimeError(f"{setup_argv} exited {reply['returncode']}: "
                                       f"{(self.work / 'stderr').read_text()[-500:]}")
                setups.append(seconds)
            durations.append(perf_counter() - began)
        self.info["digests"] = {kind: digest for kind, (digest, _) in digests.items()}
        self.info["iterations"] = {"cli_batch_s": walls, "setup_s": setups,
                                   "unscaled_child_s": self.raw_times}
        self.info["samples"] = {
            "iterations": len(durations),
            "cli_instances_per_round": len(self.flat),
            "library_calls": len(samples),
            "setups": len(setups),
        }
        self.info["calibration"] = {
            "ref_s": REF_CAL_S,
            "median_s": statistics.median(self.clock.calibrations),
            "count": len(self.clock.calibrations),
        }
        self.info["rss_kb"] = {
            "cli_child_peak": self.peak_rss_kb,
            "launcher_peak": self.launcher.hwm_kb,
            "benchmark_peak": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        return {
            "throughput_ips": (
                len(self.flat) / sum(statistics.median(w) for w in walls.values()),
                "instances/s"),
            "instance_us_p50": (statistics.median(samples) * 1e6, "us"),
            "instance_us_p90": (_p(samples, 90) * 1e6, "us"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024.0, "MB"),
        }

    # -- per layer -----------------------------------------------------------

    def import_times(self) -> dict:
        """Interpreter start-up, and the package's cumulative import times
        as `-X importtime` reports them; medians in seconds, unscaled."""
        interpreter = [self.child(["-c", "pass"])["wall_s"]
                       for _ in range(IMPORT_REPEATS + 1)][1:]
        found: dict[str, list[float]] = {"isometry_lab": [], "isometry_lab.figures": []}
        for i in range(IMPORT_REPEATS + 1):
            self.child(["-X", "importtime", "-c", "import isometry_lab.cli"])
            for line in (self.work / "stderr").read_text().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in found and i:
                    found[parts[2].strip()].append(int(parts[1]) / 1e6)
        return {
            "import.interpreter_s": (statistics.median(interpreter), "s"),
            "import.isometry_lab_s": (statistics.median(found["isometry_lab"]), "s"),
            "import.figures_s": (statistics.median(found["isometry_lab.figures"]), "s"),
        }

    def traced_pass(self, tracer: Tracer, batches, first_instance: int) -> tuple[int, int, list]:
        """Run `cli.main` in-process on every batch under the tracer, with
        stdout and stderr captured and the output checked. Returns stdout
        bytes and stderr lines written, and the pass's spans."""
        from isometry_lab import cli

        spans: list[tuple] = []
        stdout_bytes = stderr_lines = 0
        n = first_instance
        with tracer:
            for kind, path, insts in batches:
                out, err = io.StringIO(), io.StringIO()
                tracer.begin_batch(n)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(self.cli_argv(kind, path, "trace"))
                stdout = out.getvalue().encode()
                reasons = check_batch(insts, code, stdout)
                if self.workload.svg:
                    reasons = [a or b for a, b in
                               zip(reasons, self.svg_digest("trace", kind, len(insts))[1])]
                self.tally(reasons)
                stdout_bytes += len(stdout)
                stderr_lines += err.getvalue().count("\n")
                n += len(insts)
                offset = len(spans)
                spans += [(name, s, e, parent + offset if parent >= 0 else -1, i)
                          for name, s, e, parent, i in tracer.drain()]
        return stdout_bytes, stderr_lines, spans

    def per_layer(self) -> dict:
        """Alternate an untraced library pass and a traced CLI pass over the
        sampled instances until the time is up, so that both see the same
        spells of machine speed and their ratio is the tracing overhead.
        Times here are not scaled."""
        started = perf_counter()
        imports = self.import_times()
        calls = self.library_warmup()
        batches = self.write_batches(self.sample, "trace-in")
        per_pass = sum(len(insts) for insts in self.sample.values())
        tracer = Tracer()
        samples: list[float] = []
        spans: list[tuple] = []
        durations: list[float] = []
        out_bytes = err_lines = n = 0
        while _more(started, self.seconds, durations, 1):
            began = perf_counter()
            samples += self.library_pass(calls, scaled=False)
            pass_bytes, pass_lines, pass_spans = self.traced_pass(tracer, batches, n)
            out_bytes += pass_bytes
            err_lines += pass_lines
            spans = spans or pass_spans  # the first pass's spans are written out
            n += per_pass
            durations.append(perf_counter() - began)
        kinds = [call[0] for call in calls] * len(durations)
        spans_path = WORK / f"spans-{self.workload.name}.jsonl"
        write_spans(spans_path, spans)

        counts = tracer.counts

        def per_inst_us(name, column=0):
            return tracer.totals.get(name, [0.0, 0.0])[column] / n * 1e6

        m: dict = {
            "cli.parse.self_us": (per_inst_us("cli.parse", 1), "us"),
            "cli.run.self_us": (per_inst_us("cli.run", 1), "us"),
            "cli.main.self_us": (per_inst_us("cli.main", 1), "us"),
            "cli.stdout_bytes_per_instance": (out_bytes / n, "bytes"),
            "cli.stderr_lines_per_instance": (err_lines / n, "count"),
        }
        for f in PLANAR:
            m[f"planar.{f}.calls"] = (counts[f"planar.{f}"] / n, "count")
            m[f"planar.{f}.us"] = (per_inst_us(f"planar.{f}"), "us")
        for method in ("algebraic", "geometric"):
            name = f"spherical.recover_sphere_rotation.{method}"
            m[f"{name}.us"] = (per_inst_us(name), "us")
        for f in SPHERICAL:
            m[f"spherical.{f}.calls"] = (counts[f"spherical.{f}"] / n, "count")
            m[f"spherical.{f}.us"] = (per_inst_us(f"spherical.{f}"), "us")
        m["spherical.UnitVector3.constructed"] = (
            counts["spherical.UnitVector3.constructed"] / n, "count")
        m["linalg.eig3_rotation.calls"] = (counts["linalg.eig3_rotation"] / n, "count")
        m["linalg.eig3_rotation.us"] = (per_inst_us("linalg.eig3_rotation"), "us")
        m["linalg.Mat3.matmul.calls"] = (counts["linalg.Mat3.matmul"] / n, "count")
        m["linalg.solve2.calls"] = (counts["linalg.solve2"] / n, "count")
        built = counts["figures.build"]
        m["figures.build.us"] = (per_inst_us("figures.build"), "us")
        m["figures.render_svg.us"] = (per_inst_us("figures.render_svg"), "us")
        m["figures.svg_bytes_per_instance"] = (tracer.svg_bytes / n, "bytes")
        m["figures.used_ratio"] = (counts["figures.render_svg"] / built if built else 0.0, "ratio")
        for kind in SUBCOMMANDS:
            mine = [s for s, k in zip(samples, kinds) if k == kind]
            m[f"kind.{kind}.run_us_p50"] = (statistics.median(mine) * 1e6 if mine else 0.0, "us")
        m.update(imports)
        m["trace.overhead_ratio"] = (
            statistics.median(tracer.run_durations) / statistics.median(samples), "ratio")
        self.info["samples"] = {
            "traced_instances": n,
            "library_calls": len(samples),
            "passes": len(durations),
            "spans_file": os.path.relpath(spans_path, ROOT),
        }
        return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isometry_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'isometry_lab'} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    core = _pin()
    launcher = Launcher(_child_env())
    try:
        run = Run(args.workload, args.seed, args.seconds, launcher)
        try:
            metrics = run.per_layer() if args.trace else run.end_to_end()
        finally:
            shutil.rmtree(run.work, ignore_errors=True)
    finally:
        launcher.close()

    run.info.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "core": core,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load": "closed loop from one process",
        "failed_ratio": {
            "value": run.failed / run.attempted, "unit": "failed/attempted",
            "failed": run.failed, "attempted": run.attempted,
            "base": "every CLI record and library call of this run, warm-ups included",
        },
        "first_failures": run.reasons,
    })
    print("info: " + json.dumps(run.info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
