"""One run of one workload against a fresh composed stack.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with the timing shims off.
``--trace 1`` measures the per-layer metrics: half the time against an
untraced stack (the overhead baseline and, open loop, the rate ladder),
half against a stack with the shims on. The last line of stdout is the
result as one JSON object; everything above it is for people. The exit
code is non-zero if ops failed, the stack died or the deadline fired.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if sys.path and Path(sys.path[0]).resolve() == HERE:
    del sys.path[0]  # a script's own directory would shadow stdlib names
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import loadgen, metrics, workloads  # noqa: E402
from benchmarks.perf.metrics import Phase, ProcSample  # noqa: E402

#: Fresh stacks brought up per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: A run may fail this share of its ops before the command itself fails.
MAX_FAIL_RATIO = 0.001
#: Seconds a stack may take to come up or to answer a control command.
CONTROL_TIMEOUT = 60.0
#: The stack gets a core of its own and the generator the others, so that
#: where the kernel happens to place the two does not decide the latencies.
CPUS = sorted(os.sched_getaffinity(0))
STACK_CPUS = set(CPUS[-1:]) if len(CPUS) > 1 else set(CPUS)
GENERATOR_CPUS = set(CPUS[:-1]) if len(CPUS) > 1 else set(CPUS)
#: The load generator's threads, one keep-alive connection each.
THREADS = min(len(CPUS), 2)
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class StackDied(Exception):
    pass


class StackProcess:
    """The stack child: spawn, control channel, ``/proc`` readings, teardown."""

    #: Children not yet waited for; the deadline kills whatever is here.
    live: "set[StackProcess]" = set()

    def __init__(self, trace: bool):
        self.started = time.perf_counter()
        self.work_dir = ROOT / ".bench_work" / f"{os.getpid()}-{time.monotonic_ns()}"
        (self.work_dir / "tmp").mkdir(parents=True)
        command = [sys.executable, str(HERE / "stack.py"), "--work-dir", str(self.work_dir)]
        self.process = subprocess.Popen(
            command + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            # request bodies the servers spool must stay inside the checkout too
            env={**os.environ, "TMPDIR": str(self.work_dir / "tmp")},
        )
        # before the child has imported anything, let alone started a thread
        os.sched_setaffinity(self.process.pid, STACK_CPUS)
        self.live.add(self)
        try:
            hello = self._read()
        except BaseException:
            self.close()
            raise
        self.pid, self.urls = hello["pid"], hello["urls"]

    def _read(self) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], CONTROL_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise StackDied(f"the stack process gave no answer (exit code {self.process.poll()})")
        return json.loads(line)

    def command(self, name: str) -> dict:
        try:
            self.process.stdin.write(json.dumps({"cmd": name}) + "\n")
            self.process.stdin.flush()
        except OSError as error:
            raise StackDied(f"the stack process is gone: {error}") from error
        return self._read()

    def _status(self, *fields: str) -> "list[int]":
        """The named numeric fields of ``/proc/<pid>/status``."""
        try:
            lines = Path(f"/proc/{self.pid}/status").read_text().splitlines()
            status = dict(line.split(":", 1) for line in lines)
            return [int(status[field].split()[0]) for field in fields]
        except (OSError, KeyError) as error:  # gone, or a zombie without memory
            raise StackDied(f"the stack process is gone: {error!r}") from error

    def threads(self) -> int:
        return self._status("Threads")[0]

    def sample(self) -> ProcSample:
        rss_kb, hwm_kb = self._status("VmRSS", "VmHWM")
        stat = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return ProcSample(
            user_s=int(stat[11]) / CLOCK_TICKS, sys_s=int(stat[12]) / CLOCK_TICKS,
            rss_kb=rss_kb, hwm_kb=hwm_kb,
        )

    def close(self) -> None:
        """Stop the child (EOF asks it to shut down), wait for it, and
        remove everything it wrote."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.live.discard(self)
        self.process.stdout.close()
        shutil.rmtree(self.work_dir, ignore_errors=True)


def bring_up(workload: workloads.Workload, seed: int, trace: bool):
    """A fresh stack with the workload's warm-up done; returns it with the
    op stream positioned after the warm-up and the set-up time."""
    stack = StackProcess(trace)
    try:
        stream = workloads.ops(workload, seed)
        records, _ = loadgen.closed_loop(
            workload, stack.urls[workload.target], stream, THREADS, count=workload.warmup_ops
        )
        failed = [record for record in records if not record.ok]
        if failed:
            raise StackDied(f"warm-up failed: {failed[0].error}")
    except BaseException:
        stack.close()
        raise
    return stack, stream, time.perf_counter() - stack.started


def measure(workload: workloads.Workload, seed: int, stack: StackProcess, stream, seconds: float,
            ladder: bool = False) -> Phase:
    """One measured window: closed loop for ``seconds``; open loop at the
    reference rate, or — ``ladder`` — up the rate ladder in equal rungs."""
    url = stack.urls[workload.target]
    peak = [0]
    stop = threading.Event()

    def watch_threads() -> None:
        while not stop.wait(0.05):
            try:
                peak[0] = max(peak[0], stack.threads())
            except StackDied:
                return  # the run fails where the window's end reads /proc

    watcher = threading.Thread(target=watch_threads)
    stack.command("mark")
    before, cpu_before = stack.sample(), time.process_time()
    watcher.start()
    try:
        rungs = None
        if not workload.open_loop:
            records, wall = loadgen.closed_loop(workload, url, stream, THREADS, seconds=seconds)
        elif not ladder:
            offsets = workloads.schedule(seed, workloads.OPEN_LOOP_REFERENCE, seconds)
            records, wall = loadgen.open_loop(workload, url, stream, offsets, THREADS)
        else:
            rungs, records, wall = {}, [], 0.0
            for rate in workloads.OPEN_LOOP_LADDER:
                offsets = workloads.schedule(seed, rate, seconds / len(workloads.OPEN_LOOP_LADDER))
                rungs[rate], rung_wall = loadgen.open_loop(workload, url, stream, offsets, THREADS)
                records += rungs[rate]
                wall += rung_wall
    finally:
        stop.set()
        watcher.join()
    gen_cpu, after = time.process_time() - cpu_before, stack.sample()
    return Phase(records, wall, before, after, peak[0], gen_cpu, stack.command("finish"), rungs)


def run_untraced(workload: workloads.Workload, seed: int, seconds: float) -> "tuple[dict, list[Phase]]":
    setups = []
    for index in range(SETUPS):
        stack, stream, setup = bring_up(workload, seed, trace=False)
        setups.append(setup)
        if index < SETUPS - 1:
            stack.close()
    try:
        phase = measure(workload, seed, stack, stream, seconds)
    finally:
        stack.close()
    print(f"  set-ups: {', '.join(f'{s:.3f}' for s in setups)} s; measured {phase.wall_s:.2f} s, "
          f"{len(phase.ok)} ops ok, tail = p{workload.tail} "
          f"({len(phase.ok) * (100 - workload.tail) // 100} samples beyond it)")
    return metrics.end_to_end(workload, phase, setups), [phase]


def run_traced(workload: workloads.Workload, seed: int, seconds: float) -> "tuple[dict, list[Phase]]":
    phases = []
    for trace in (False, True):
        stack, stream, _ = bring_up(workload, seed, trace)
        try:
            phases.append(measure(workload, seed, stack, stream, seconds / 2, ladder=not trace))
        finally:
            stack.close()
    plain, traced = phases
    rows, total = metrics.budget(traced)
    values = metrics.per_layer(workload, plain, traced, rows, total)
    if plain.rungs:
        print("\n".join(metrics.ladder_table(plain.rungs)))
    p50 = loadgen.percentile([record.submit for record in traced.ok], 50) * 1e6
    print(f"  stacked submit budget at the median (traced, {len(traced.ok)} ops): rows sum to {total:.1f} us, "
          f"the mean of the p40-p60 submits; traced submit p50 is {p50:.1f} us "
          f"({total / p50 - 1 if p50 else 0:+.1%})")
    for name, value in rows.items():
        print(f"    {name:28s} {value:9.1f} us  {value / total if total else 0:6.1%}")
    return values, phases


def deadline_s(seconds: float) -> float:
    """The hard deadline: three times what a healthy run takes (its window
    plus some 15 s of set-ups and teardown), inside the driver's own limit."""
    return min(170.0, 3 * (seconds + 15))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workload = workloads.BY_NAME[args.workload]
    os.sched_setaffinity(0, GENERATOR_CPUS)
    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"({'open loop' if workload.open_loop else 'closed loop'}, {THREADS} connections, host loopback)")

    # on expiry every child dies and the run fails
    fired = threading.Event()

    def expire() -> None:
        fired.set()
        for stack in list(StackProcess.live):
            stack.process.kill()

    deadline = threading.Timer(deadline_s(args.seconds), expire)
    deadline.daemon = True
    deadline.start()
    try:
        values, phases = (run_traced if args.trace else run_untraced)(workload, args.seed, args.seconds)
    except StackDied as error:
        print(f"run failed: {error}", file=sys.stderr)
        return 1
    finally:
        deadline.cancel()
    if fired.is_set():
        print("run failed: the hard deadline fired", file=sys.stderr)
        return 1

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    records = [record for phase in phases for record in phase.records]
    failed = [record for record in records if not record.ok]
    for record in failed[:5]:
        print(f"  FAILED {record.op_id}: {record.error}", file=sys.stderr)
    for metric in table:
        print(f"  {metric.name:36s} {values[metric.name]:14.4f} {metric.unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }))
    return 1 if len(failed) > MAX_FAIL_RATIO * len(records) or not records else 0


if __name__ == "__main__":
    sys.exit(main())
