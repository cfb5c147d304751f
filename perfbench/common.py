"""Helpers shared by the benchmark's driver and its worker processes.

A worker process sets up its pipeline, prints one JSON line saying when it
became ready, and then obeys the driver's commands on standard input, one
per line, answering each with one JSON line:

``slice <seconds>``
    do about that much timed work (whole units: a block, a batch, a query);
``trace``
    close the untraced measurement and time the rest with spans;
``end``
    finish the round in progress, check the results and print them.

Closing standard input instead ends the worker without a result (a
set-up-only launch).  Handing out work in slices lets the driver interleave
the three pipelines over the whole run, so each of them samples the
machine's slow and fast spells alike.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


#: iterations of the speed probe's loop (about 0.25 ms)
PROBE_ITERATIONS = 4000
#: the probe's time at the reference speed every timing is reported at
#: (about what it takes on a 2-vCPU x86 VM in a fast spell)
PROBE_REFERENCE_NS = 250_000.0
_PROBE_TABLE = {i: i for i in range(64)}


def probe_ns() -> int:
    """One run of the speed probe: a fixed pure-Python loop of dict
    lookups that allocates nothing the garbage collector tracks.

    It is timed by the thread's CPU time, not wall time: time spent waiting
    for the CPU or the interpreter lock (say, for a thread the program
    starts) slows the timed work but not the probe, so it is not scaled
    away.
    """
    get = _PROBE_TABLE.get
    acc = 0
    t0 = time.thread_time_ns()
    for i in range(PROBE_ITERATIONS):
        acc ^= get(i & 63, 0)
    return time.thread_time_ns() - t0


def probe_on(cpu=None) -> int:
    """One run of the speed probe on ``cpu`` (None: where the caller runs).
    The calling thread moves to ``cpu`` for it and back."""
    if cpu is None:
        return probe_ns()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})  # this thread only
    try:
        return probe_ns()
    finally:
        os.sched_setaffinity(0, own)


def speed_scale(before: int, after: int) -> float:
    """The factor that takes a timing to the reference speed, from two
    probe runs next to it (one before and one after it, or one on each CPU
    the timed work ran on).

    The machines this runs on switch between speeds up to 2x apart, in
    spells of 20 to 80 seconds: longer than a pipeline's share of a run, so
    no spreading of samples over the run evens them out.  The probe slows
    with them (it is the benchmark's own code, not the program's), and a
    timing scaled by the probe runs next to it keeps only the program's own
    cost.  A change that slows the program still shows in full.
    """
    return 2.0 * PROBE_REFERENCE_NS / (before + after)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size of a process (by default the caller), in MB.

    Read from ``VmHWM``, which the kernel starts afresh when a process
    execs.  ``getrusage``'s ``ru_maxrss`` would not do: it carries over the
    high-water mark of the parent that forked the process.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    return int(hwm.split()[1]) / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent span and a shared id.

    One tracer belongs to one thread.  Spans of one batch or one query share
    ``trace_id``; ``parent`` is the index of the enclosing span (-1 at the
    top).  Nothing is written until :meth:`to_json` is called at the end.
    """

    def __init__(self, thread: str = "main") -> None:
        self.thread = thread
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str, trace_id) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, trace_id, parent, time.perf_counter_ns(), 0])

    def end(self) -> None:
        self.spans[self._open.pop()][4] = time.perf_counter_ns()

    def durations_ns(self, name: str) -> list[int]:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def total_ns(self, name: str) -> int:
        return sum(self.durations_ns(name))

    def to_json(self) -> list[dict]:
        return [
            {
                "name": name,
                "id": trace_id,
                "thread": self.thread,
                "parent": parent,
                "start_ns": start,
                "end_ns": end,
            }
            for name, trace_id, parent, start, end in self.spans
        ]


class RoundWork:
    """Timed work made of units grouped in rounds, run in slices.

    Subclasses implement :meth:`units`, a generator that does one unit of
    timed work per step and yields True when a round (a repetition of the
    call sequence, a pass over the query mix) is complete.  Only whole
    rounds are measured: a round is started only while the work time used so
    far plus one round fits in ``budget`` seconds (the first always runs),
    and one in progress is completed before results are taken.  That keeps
    the mix of samples behind every percentile the same from run to run.

    Timings are recorded per round.  The machines this runs on switch
    between fast and slow spells (see :func:`speed_scale`); a percentile
    over a whole run of times as measured jumps from one speed to the other
    as the slow share crosses it, while one taken per round and averaged
    over the rounds (:meth:`round_percentile`) moves in proportion to that
    share.
    """

    def __init__(self, budget: float) -> None:
        self.budget = budget
        self.used = 0.0
        self.rounds = 0
        self.in_round = False
        self.done = False
        self.samples: dict[str, list[list[float]]] = {}
        self._round_start = 0.0
        self._units = self.units()

    def record(self, name: str, value: float) -> None:
        """One sample of ``name`` in the round in progress."""
        rounds = self.samples.setdefault(name, [])
        while len(rounds) <= self.rounds:
            rounds.append([])
        rounds[self.rounds].append(value)

    def all_samples(self, name: str) -> list[float]:
        return [value for round_ in self.samples[name] for value in round_]

    def round_percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile of each round's samples, averaged over
        the rounds that have any."""
        rounds = [round_ for round_ in self.samples[name] if round_]
        return sum(percentile(round_, q) for round_ in rounds) / len(rounds)

    def units(self):
        raise NotImplementedError

    def step(self) -> None:
        t0 = time.perf_counter()
        self.in_round = True
        round_end = next(self._units)
        self.used += time.perf_counter() - t0
        if round_end:
            self.in_round = False
            self.rounds += 1
            round_s = self.used - self._round_start
            self._round_start = self.used
            self.done = self.used + round_s > self.budget

    def run_slice(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while not self.done and time.perf_counter() < deadline:
            self.step()

    def finish_round(self) -> None:
        while self.in_round:
            self.step()

    def restart(self, budget: float) -> None:
        """Start a fresh measurement (the traced one) with its own budget."""
        self.finish_round()
        RoundWork.__init__(self, budget)


def worker_params() -> dict:
    """The JSON parameters a worker process receives as its one argument."""
    return json.loads(sys.argv[1])


def emit(result: dict) -> None:
    """Print one JSON line to the driver."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def serve(worker, ready: dict) -> None:
    """Report readiness, then obey the driver's commands (see module doc)."""
    emit(ready)
    for line in sys.stdin:
        command, *args = line.split()
        if command == "slice":
            worker.run_slice(float(args[0]))
            emit({"ok": True})
        elif command == "trace":
            worker.start_tracing()
            emit({"ok": True})
        elif command == "end":
            emit(worker.finish())
            return
