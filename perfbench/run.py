"""stabinv benchmark: one closed-loop client driving the stabinv CLI.

    python3 perfbench/run.py --workload {sweep,screen,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI is started from ./src.
The client runs one CLI child at a time and starts the next only after
the previous one has exited.  It builds the workload's inputs from the
seed, times set-up (`stabinv validate` on the workload's code, several
times), then repeats the workload's operation within S seconds and checks
every output against answers it computed itself.  Times are the children's
CPU times, scaled by the speed of the reference loop (refloop.py) that runs
beside each child on its CPU.  With --trace 1 each
operation runs once plainly and once under tracer.py, and the per-layer
metrics come from the traced copy.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it records the inputs' sha256, the machine
and the raw samples.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import layers
import refloop
from workloads import WORKLOADS, Call, Outcome

# What the installed `stabinv` console script runs.
ENTRY = "import sys\nfrom stabinv.cli import main\nsys.exit(main())"
SETUP_REPS = 11
# A run starts no operation it cannot finish by then; the limit a run must
# meet is 180 s.
RUN_LIMIT_S = 150.0
CHILD_LIMIT_S = 170.0
WORK_DIR = ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# The host's CPU speed drifts by up to a third over minutes, because other
# machines share its cores.  refloop.py runs beside each child on the child's
# CPU and measures that speed; the end-to-end times are scaled to the speed
# at which one of its units takes REF_UNIT_S of CPU.
REF_UNIT_S = 0.001
# read before Client pins this process
USABLE_CPUS = len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("STABINV_BUDGET_MB", None)  # the suites run at their default budget
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


class Client:
    """Runs CLI children one at a time, each to completion, with the
    reference loop beside them on their CPU.  close() stops the loop."""

    def __init__(self, root: Path, workdir: Path, started: float):
        self.root = root
        self.workdir = workdir
        self.started = started
        self.env = child_env(root)
        self.peak_rss_kb = 0
        self.all_cpus = os.sched_getaffinity(0)
        cpus = sorted(self.all_cpus)
        self.own_cpus, self.child_cpus = set(cpus[:-1] or cpus), {cpus[-1]}
        os.sched_setaffinity(0, self.own_cpus)
        counter_path = workdir / "refloop.counter"
        counter_path.write_bytes(bytes(refloop.COUNTER.size))
        self.ref = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "refloop.py"), str(counter_path)], env=self.env
        )
        try:
            os.sched_setaffinity(self.ref.pid, self.child_cpus)
            with open(counter_path, "rb") as fh:
                self.counter = mmap.mmap(fh.fileno(), refloop.COUNTER.size, access=mmap.ACCESS_READ)
            while refloop.read(self.counter)[0] == 0:
                if self.ref.poll() is not None:
                    raise RuntimeError("the reference loop exited")
                time.sleep(0.01)
        except BaseException:
            self.ref.kill()
            self.ref.wait()
            raise

    def close(self) -> None:
        self.ref.kill()
        self.ref.wait()
        self.counter.close()
        os.sched_setaffinity(0, self.all_cpus)

    def call(self, call: Call, trace_prefix: str | None = None) -> Outcome:
        if trace_prefix is None:
            argv = [sys.executable, "-c", ENTRY, *call.args]
        else:
            tracer = str(self.root / "perfbench" / "tracer.py")
            argv = [sys.executable, tracer, trace_prefix, Path(trace_prefix).name, "--", *call.args]
        timeout = max(1.0, CHILD_LIMIT_S - (time.perf_counter() - self.started))
        stdout_path = self.workdir / "stdout"
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            units0, ref_cpu0 = refloop.read(self.counter)
            t0 = time.perf_counter()
            os.sched_setaffinity(0, self.child_cpus)  # the child inherits it
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            finally:
                os.sched_setaffinity(0, self.own_cpus)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
            units1, ref_cpu1 = refloop.read(self.counter)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(
            call.label, proc.returncode, wall, stdout_path.read_bytes(), cpu,
            units1 - units0, ref_cpu1 - ref_cpu0,
        )

    def op(self, calls: list[Call], trace_tag: str | None = None) -> tuple[list[Outcome], list[str]]:
        outcomes, prefixes = [], []
        for i, call in enumerate(calls):
            prefix = None
            if trace_tag is not None:
                prefix = str(self.workdir / f"{trace_tag}-{i}")
                prefixes.append(prefix)
            outcomes.append(self.call(call, prefix))
        return outcomes, prefixes


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": USABLE_CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
    }


def _validate_ok(out: Outcome) -> bool:
    try:
        return out.exit_code == 0 and json.loads(out.stdout).get("status") == "ok"
    except ValueError:
        return False


def _label_cpu(outcomes: list[Outcome], label: str) -> float:
    return sum(o.cpu_s for o in outcomes if o.label == label)


def _oracle_checks(outcomes: list[Outcome], calls: list[Call]) -> int:
    total = 0
    for out, call in zip(outcomes, calls):
        if call.args[0] == "oracle-check":
            try:
                total += int(json.loads(out.stdout).get("checks", 0))
            except (ValueError, TypeError):
                pass
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    # SIGTERM unwinds through Client.call, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "stabinv" / "cli.py").is_file():
        print(f"perfbench: no stabinv source at {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]()
    (root / WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / WORK_DIR) as tmp:
        workdir = Path(tmp)
        client = Client(root, workdir, started)
        try:
            shas = workload.prepare(args.seed, workdir)
            attempted = failed = 0

            # set-up: interpreter start, import and code parse; the first call
            # fills the bytecode cache and is not timed
            validate = Call("validate", ["validate", str(workload.setup_code)])
            warm = client.call(validate)
            setup = [client.call(validate) for _ in range(SETUP_REPS)]
            attempted += 1 + len(setup)
            failed += sum(not _validate_ok(out) for out in [warm, *setup])
            setup_cpus = [out.cpu_s for out in setup]

            plain_ops, traced_ops = [], []
            totals = layers.Totals()
            measure_start = time.perf_counter()
            while True:
                op_start = time.perf_counter()
                runs = [(False, client.op(workload.calls))]
                if args.trace:
                    tag = f"op{len(traced_ops)}"
                    runs.append((True, client.op(workload.calls, trace_tag=tag)))
                for traced, (outcomes, prefixes) in runs:
                    attempted += workload.items
                    failed += workload.check(outcomes)
                    (traced_ops if traced else plain_ops).append(outcomes)
                    for prefix, out in zip(prefixes, outcomes):
                        totals.load(prefix, out.wall_s)
                now = time.perf_counter()
                # start no operation that would end past the measuring window
                if now - measure_start + (now - op_start) > args.seconds:
                    break
                if now - started + 1.2 * (now - op_start) > RUN_LIMIT_S:
                    break
        finally:
            client.close()

    def op_wall(outcomes):
        return sum(o.wall_s for o in outcomes)

    def op_cpu(outcomes):
        return sum(o.cpu_s for o in outcomes)

    def unit_s(outcomes):
        """CPU seconds per reference unit while these children ran."""
        return sum(o.ref_cpu_s for o in outcomes) / max(1, sum(o.ref_units for o in outcomes))

    def op_norm(outcomes):
        return op_cpu(outcomes) * REF_UNIT_S / unit_s(outcomes)

    cpu_s = statistics.median(op_cpu(o) for o in plain_ops)
    norm_cpu_s = statistics.median(op_norm(o) for o in plain_ops)
    if args.trace:
        values = layers.layer_metrics(totals, len(traced_ops))
        values["trace.overhead_ratio"] = statistics.median(op_cpu(o) for o in traced_ops) / cpu_s
        values["op.cpu_s"] = cpu_s
        values["op.wall_s"] = statistics.median(op_wall(o) for o in plain_ops)
        values["host.ref_unit_ms"] = 1000 * statistics.median(unit_s(o) for o in plain_ops)
        values["cli.compare_s"] = statistics.median(_label_cpu(o, "compare") for o in plain_ops)
        values["cli.compare_global_s"] = statistics.median(
            _label_cpu(o, "compare_global") for o in plain_ops
        )
        values["oracle.checks"] = statistics.median(
            _oracle_checks(o, workload.calls) for o in plain_ops
        )
        values["error_rate"] = failed / attempted
    else:
        values = {
            "norm_cpu_s": norm_cpu_s,
            "setup_s": statistics.median(setup_cpus) * REF_UNIT_S / unit_s(setup),
            "peak_rss_mb": client.peak_rss_kb / 1024,
            "stdout_bytes": statistics.median(sum(len(o.stdout) for o in op) for op in plain_ops),
            "items_per_norm_cpu_s": workload.items / norm_cpu_s,
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": shas,
        "machine": machine(),
        "items_per_op": workload.items,
        "op_cpu_s": [op_cpu(o) for o in plain_ops],
        "op_wall_s": [op_wall(o) for o in plain_ops],
        "traced_op_cpu_s": [op_cpu(o) for o in traced_ops],
        "setup_cpu_s": setup_cpus,
        "setup_wall_s": [out.wall_s for out in setup],
        "op_ref_unit_s": [unit_s(o) for o in plain_ops],
        "setup_ref_unit_s": unit_s(setup),
        "absent": sorted(totals.absent),
    }
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
