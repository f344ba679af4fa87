"""cantorshift benchmark: four CLI workloads in a closed loop.

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
client in one process and one thread calls ``cantorshift.cli.main(argv)``
in-process and sends the next op only when the previous one has returned.
The timed phase repeats whole cycles of the workload's seeded op list while
the next cycle still fits in ``--seconds`` (at least one cycle and at least
100 ops, so ten or more samples lie beyond p90).  Every op's exit code and
output are checked by the oracles in ``oracle.py``.

Op timings are scaled to a reference machine speed, which a fixed loop run
between ops measures (see CAL_REFERENCE_S).  ``--trace 0`` prints the
end-to-end metrics.  ``--trace 1`` times the cycle untraced, runs it once
more with the spans of ``tracing.py`` recorded, and prints the per-layer
metrics; the spans go to ``.bench_out/``.

Output: ``name value unit`` lines, a run record, and as the last line a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100
SETUP_SAMPLES = 15
# The host is a share of a machine whose speed drifts by 10-20% over tens of
# seconds.  Between ops, about once per CAL_EVERY_S of op time, the client
# runs a fixed stdlib loop (``calibration_loop``) that measures that speed,
# and scales each cycle's op latencies by CAL_REFERENCE_S over the median loop
# time in the cycle: the timing metrics read as times on a machine where the
# loop takes CAL_REFERENCE_S between ops (a fixed constant; on a shared 2-vCPU
# Intel Xeon with Python 3.11 it takes 5-7 ms).  The speed drift moves the
# loop and the ops alike, so the scaled figures vary far less from run to run;
# the unscaled ones are printed too, as ``*_wall`` lines.
CAL_REFERENCE_S = 0.005
CAL_EVERY_S = 0.1

# Timed in a fresh interpreter: importing the package and its CLI is the
# set-up every invocation pays before its first op.
SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import cantorshift, cantorshift.cli
elapsed = perf_counter() - t0
assert cantorshift.__file__.startswith(sys.argv[1]), cantorshift.__file__
print(repr(elapsed))
"""

import workloads  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def calibration_loop() -> float:
    """Fixed work of the program's kind (exact rational sums, a list of
    tuples, a keyed sort) that uses no ``cantorshift`` code; returns its
    wall time."""
    t0 = perf_counter()
    total = Fraction(0)
    rows = []
    for i in range(1, 1500):
        total += Fraction(i % 97, 1 + i % 13)
        rows.append((total, i))
    rows.sort(key=lambda row: row[1] % 17)
    return perf_counter() - t0


class SpeedProbe:
    """Calibration samples of one cycle, taken between its ops."""

    def __init__(self):
        self.samples: list[float] = []
        self.pending = 0.0

    def after_op(self, _index: int, latency: float, _written: int) -> None:
        self.pending += latency
        if self.pending >= CAL_EVERY_S:
            self.samples.append(calibration_loop())
            self.pending = 0.0

    def scale(self) -> float:
        """Factor that takes this cycle's latencies to the reference speed."""
        if not self.samples:
            self.samples.append(calibration_loop())
        return CAL_REFERENCE_S / statistics.median(self.samples)


class Client:
    """Runs ops through ``cli.main`` and checks each output.

    An op's output is checked by its oracle the first time it appears;
    a later run of the same op that prints the same bytes is known correct.
    """

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self._verified: dict[int, tuple[str, str, int]] = {}

    def run(self, index: int) -> tuple[float, int, int]:
        """Run op ``index``; return (latency s, items, bytes written)."""
        op = self.ops[index]
        if op.out is not None:
            op.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc(file=stderr)
            latency = perf_counter() - t0
        text = stdout.getvalue()
        file_text = op.out.read_text(encoding="ascii") if op.out is not None and op.out.exists() else ""
        ok, items = self._check(index, code, text, file_text)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED op {index}: {op.argv} exit={code}\n{stderr.getvalue()}", file=sys.stderr)
        return latency, items if ok else 0, len(text.encode()) + len(file_text.encode())

    def _check(self, index, code, text, file_text) -> tuple[bool, int]:
        if code != 0:
            return False, 0
        known = self._verified.get(index)
        if known is not None and known[:2] == (text, file_text):
            return True, known[2]
        ok, items = self.ops[index].check(text, file_text)
        if ok:
            self._verified[index] = (text, file_text, items)
        return ok, items

    def cycle(self, on_op=None) -> tuple[list[float], int]:
        latencies, items = [], 0
        for index in range(len(self.ops)):
            latency, n, written = self.run(index)
            latencies.append(latency)
            items += n
            if on_op is not None:
                on_op(index, latency, written)
        return latencies, items


def closed_loop(client: Client, seconds: float) -> tuple[list[float], list[float], int, int]:
    """Whole cycles while the next one fits in ``seconds`` (>= 1 cycle, >= MIN_OPS ops).

    Returns every op latency scaled to the reference speed and unscaled,
    the items produced and the number of cycles.
    """
    scaled: list[float] = []
    wall: list[float] = []
    items = cycles = 0
    start = perf_counter()
    while True:
        probe = SpeedProbe()
        lat, n = client.cycle(probe.after_op)
        factor = probe.scale()
        scaled += [x * factor for x in lat]
        wall += lat
        items += n
        cycles += 1
        elapsed = perf_counter() - start
        if len(wall) >= MIN_OPS and elapsed * (cycles + 1) / cycles > seconds:
            return scaled, wall, items, cycles


def setup_seconds() -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timing_metrics(latencies: list[float], items: int) -> dict[str, float]:
    return {
        "items_per_s": items / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
    }


def end_to_end(client: Client, seconds: float) -> dict[str, float]:
    setup_s = setup_seconds()
    client.run(0)  # warm-up, untimed
    scaled, wall, items, cycles = closed_loop(client, seconds)
    print(f"ops {len(wall)} count", f"cycles {cycles} count", f"busy_s {sum(wall):.6f} s", sep="\n")
    print(f"speed_factor {sum(scaled) / sum(wall)} ratio")
    for name, value in timing_metrics(wall, items).items():
        print(f"{name}_wall {value} {END_TO_END_UNITS[name]}")
    return {
        "setup_s": setup_s,
        **timing_metrics(scaled, items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(client: Client, seconds: float, spans_path: Path) -> dict[str, float]:
    client.run(0)  # warm-up, untimed
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(sum(client.cycle()[0]))
    untraced = statistics.median(walls)

    tracer = Tracer()
    bytes_out: dict[str, int] = {}

    def on_op(index, _latency, written):
        cmd = client.ops[index].cmd
        bytes_out[cmd] = bytes_out.get(cmd, 0) + written
        tracer.op = index + 1

    tracer.op = 0
    tracer.install()
    try:
        traced = sum(client.cycle(on_op)[0])
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    print(f"untraced_cycles {len(walls)} count", f"spans {len(tracer.spans)} count", sep="\n")
    return tracer.metrics(traced, untraced, bytes_out)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 thread",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cantorshift" / "__init__.py").is_file():
        print(f"error: no cantorshift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cantorshift import cli

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        client = Client(cli, workloads.make_ops(args.workload, args.seed, work))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics = per_layer(client, args.seconds, OUT_DIR / f"spans-{tag}.json")
            units = metric_units()
        else:
            metrics = end_to_end(client, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args)
    failed_frac = client.failed / client.attempted
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {failed_frac} ratio")
    print("run " + json.dumps(record))
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps({"run": record, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
