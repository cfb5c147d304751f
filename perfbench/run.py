"""The repository's end-to-end benchmark, with per-layer attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload few_keys --seed 1 --seconds 40 --trace 0

One run executes all three pipelines of the system, each in its own
processes, on inputs made from ``--seed`` (see ``workloads.py``):

* ``online_regions`` -- annotation events through the runtime, its
  services and the on-line aggregate fold (``online.py``);
* ``server_ingest`` -- a ``repro-query serve`` process fed by one
  load-generator process, with live queries beside the writes
  (``loadgen.py``);
* ``offline_query`` -- out-of-core CalQL queries over a ``.rcf`` file
  (``offline.py``).

``--seconds`` is split between them (24% / 38% / 38%), and each share is
cut into ten slices that the pipelines take in turns, so every pipeline
samples the whole run rather than one stretch of a noisy machine.  Set-up
time is the median over six launches of all three pipelines, five of them
set-up-only launches spread between the slices, each at the reference
speed (see below).  Each pipeline checks its
results: per-key counts against the call sequence, the drained server
state against a ``StreamAggregator`` over the same records, and every query
result against numpy.

Timings are reported at a fixed reference speed: each is scaled by a
small pure-Python probe loop's reference time over its time measured next
to the timed work (``common.speed_scale``): around each block, flush,
query and launch, and for the server on both the server's and the load
generator's CPU during each slice.  The machines this runs on switch between speeds up
to 2x apart for tens of seconds at a time, and the probe, which is the
benchmark's own code, slows with them; a change to the program still shows
in full.  The report also prints ``event_ns_p50`` as measured.

The human-readable report lists every metric with
its unit and sample count, each pipeline's attempted and failed operations,
and the machine; the last line is the JSON result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes a
separate traced run and prints the per-layer metrics instead: layer
ladders and per-call costs, each pipeline's reconciliation of the layer sum
against its untraced end-to-end time (the residual), and the tracing
overhead.  Spans are kept in memory and written to
``.perfbench_out/spans-<workload>-seed<seed>.json`` at the end.

Scratch files live in ``.perfbench_work/`` and are removed when the run
ends; the benchmark reads and writes nothing outside the checkout.  The
program is imported from ``src/``; without it the run fails (exit 2)
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

from common import median, peak_rss_mb, probe_on, speed_scale  # noqa: E402
from workloads import (  # noqa: E402
    OFFLINE_ROWS,
    POOL_BATCHES,
    SERVER_SCHEME,
    WORKLOADS,
    close_enough,
    offline_columns,
    query_oracle,
    query_text,
    write_offline_file,
)

#: share of ``--seconds`` each pipeline measures for
SHARES = {"online_regions": 0.24, "server_ingest": 0.38, "offline_query": 0.38}
#: set-up-only launches of all three pipelines, one after every
#: ``ROUNDS // SETUP_PROBES`` slices; set-up time is the median of these
#: and the measuring launch
SETUP_PROBES = 5
#: slices each pipeline's measuring time is cut into; the pipelines take
#: turns, so each samples the whole run.  One turn of all three (about 4 s)
#: is shorter than the fast and slow spells of a shared machine.
ROUNDS = 10
WORKER_TIMEOUT = 150.0
# With two or more CPUs, the processes of the program under test (the
# workers and the server) run on one CPU and the load generator on
# another: the server's threads then hand its interpreter lock over on one
# CPU, and the generator never competes with what it measures.
_CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPU, LOADGEN_CPU = (_CPUS[-1], _CPUS[0]) if len(_CPUS) > 1 else (None, None)

#: end-to-end metric -> (pipeline reporting it, its sample count, and for
#: a percentile taken per round and averaged, its round count); the names,
#: units and bounds are declared in BENCHMARK.json
SAMPLES = {
    "event_ns_p50": ("online_regions", "blocks", "repetitions"),
    "event_ns_p99": ("online_regions", "blocks", None),
    "flush_ms_p50": ("online_regions", "flushes", "repetitions"),
    "ingest_rps": ("server_ingest", "records", None),
    "ack_ms_p50": ("server_ingest", "acks", None),
    "ack_ms_p90": ("server_ingest", "acks", None),
    "live_query_ms_p50": ("server_ingest", "live_queries", None),
    "live_query_ms_p90": ("server_ingest", "live_queries", None),
    "query_ms_p50": ("offline_query", "queries", "passes"),
    "query_ms_p90": ("offline_query", "queries", "passes"),
}


class BenchError(Exception):
    pass


class Processes:
    """Every child process of the run, so all are stopped when it ends."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.live: list[subprocess.Popen] = []

    def spawn(self, argv, cpu=None, **kwargs) -> subprocess.Popen:
        """Start a child, pinned to ``cpu`` (with every thread it starts)."""
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen(
            argv, env=self.env, cwd=ROOT, text=True, preexec_fn=pin, **kwargs
        )
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> None:
        """Wait for ``proc`` to exit (killing it after a grace period)."""
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            if pipe is not None:
                pipe.close()
        self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            self.reap(proc)


class Worker:
    """A worker process driven over its standard input (see ``common.py``).

    ``spawned`` is where its set-up time starts: its own launch, or for the
    load generator the launch of the server it talks to.
    """

    def __init__(self, procs: Processes, script: str, params: dict, cpu, spawned=None) -> None:
        self.procs = procs
        self.script = script
        self.spawned = time.monotonic() if spawned is None else spawned
        self.proc = procs.spawn(
            [sys.executable, os.path.join(HERE, script), json.dumps(params)],
            cpu,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        ready = self._reply()
        self.setup_s = ready["ready"] - self.spawned - ready["gen_s"]

    def _reply(self) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise BenchError(f"{self.script} stopped answering (exit {self.proc.poll()})")
        return json.loads(line)

    def command(self, *words) -> dict:
        self.proc.stdin.write(" ".join(str(w) for w in words) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.procs.reap(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.script} exited with {self.proc.returncode}")


def start_server(procs: Processes, cpu) -> tuple[subprocess.Popen, int, float]:
    """``repro-query serve`` with default settings; waits for its banner."""
    spawned = time.monotonic()
    proc = procs.spawn(
        [sys.executable, "-m", "repro.query.cli", "serve",
         "--scheme", SERVER_SCHEME, "--port", "0"],
        cpu,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    readable, _, _ = select.select([proc.stderr], [], [], 60.0)
    banner = proc.stderr.readline() if readable else ""
    match = re.search(r" on [^ ]+:(\d+) \(", banner)
    if match is None:
        raise BenchError(f"server did not start: {banner.strip()!r}")
    return proc, int(match.group(1)), spawned


def stop_server(procs: Processes, proc: subprocess.Popen) -> float:
    """Stop the server gracefully; returns its peak RSS in MB."""
    rss_mb = peak_rss_mb(proc.pid)
    proc.send_signal(signal.SIGTERM)
    procs.reap(proc)
    if proc.returncode != 0:
        raise BenchError(f"server exited with {proc.returncode}")
    return rss_mb


def check_query(got_rows, spec, cols) -> bool:
    """One query's rows equal the numpy oracle's groups and values."""
    _ops, _where, group_by = spec
    want = query_oracle(cols, spec)
    got = {tuple(row.get(label) for label in group_by): row for row in got_rows}
    if got.keys() != want.keys():
        return False
    return all(
        close_enough(got[key].get(label), value)
        for key, values in want.items()
        for label, value in values.items()
    )


class Run:
    """One benchmark run: set-up launches, then the three pipelines."""

    def __init__(self, procs: Processes, args) -> None:
        self.procs = procs
        self.trace = bool(args.trace)
        wl = WORKLOADS[args.workload]
        scale = args.scale
        online = dict(wl["online"], seed=args.seed)
        online["paths"] = max(20, int(online["paths"] * scale))
        online["traversals_per_epoch"] = max(1, int(online["traversals_per_epoch"] * scale))
        server = dict(
            wl["server"],
            seed=args.seed,
            nproc=os.cpu_count() or 1,
            program_cpu=PROGRAM_CPU,
            pool_batches=max(4, int(POOL_BATCHES * scale)),
            spool_dir=os.path.join(WORK, "spool"),
            work_dir=WORK,
        )
        self.specs = wl["offline"]
        offline = {
            "queries": [query_text(spec) for spec in self.specs],
            "path": os.path.join(WORK, "offline.rcf"),
        }
        self.params = {
            "online_regions": ("online.py", online),
            "server_ingest": ("loadgen.py", server),
            "offline_query": ("offline.py", offline),
        }
        # A traced run measures twice (untraced, then traced) in the same time.
        self.budget = {
            phase: args.seconds * share / (2 if self.trace else 1)
            for phase, share in SHARES.items()
        }
        self.cols = offline_columns(args.seed, max(1000, int(OFFLINE_ROWS * scale)))
        write_offline_file(offline["path"], self.cols)
        self.servers: dict[str, subprocess.Popen] = {}
        #: summed set-up time of each launch of all three pipelines
        self.setups: list[float] = []

    def launch(self, phase: str) -> Worker:
        """Start a pipeline; its ``setup_s`` is at the reference speed of
        the CPUs it set up on, probed before and after."""
        script, params = self.params[phase]
        params = dict(params, budget=self.budget[phase])
        cpus = [PROGRAM_CPU]
        if phase == "server_ingest" and LOADGEN_CPU is not None:
            cpus.append(LOADGEN_CPU)
        before = sum(probe_on(cpu) for cpu in cpus)
        if phase != "server_ingest":
            worker = Worker(self.procs, script, params, PROGRAM_CPU)
        else:
            server, port, spawned = start_server(self.procs, PROGRAM_CPU)
            self.servers[phase] = server
            worker = Worker(self.procs, script, dict(params, port=port), LOADGEN_CPU, spawned)
        worker.setup_s *= speed_scale(before, sum(probe_on(cpu) for cpu in cpus)) * len(cpus)
        return worker

    def close(self, phase: str, worker: Worker) -> float:
        """End a worker (and its server); returns the server's peak RSS."""
        worker.close()
        server = self.servers.pop(phase, None)
        return stop_server(self.procs, server) if server is not None else 0.0

    def probe_setup(self) -> float:
        """One set-up-only launch of every pipeline; their summed set-up."""
        total = 0.0
        for phase in PHASES:
            worker = self.launch(phase)
            total += worker.setup_s
            self.close(phase, worker)
        return total

    def execute(self) -> dict:
        workers = {phase: self.launch(phase) for phase in PHASES}
        self.setups.append(sum(worker.setup_s for worker in workers.values()))
        if self.trace:
            for phase, worker in workers.items():
                worker.command("slice", self.budget[phase])
                worker.command("trace")
                worker.command("slice", self.budget[phase])
        else:
            for i in range(ROUNDS):
                for phase, worker in workers.items():
                    worker.command("slice", self.budget[phase] / ROUNDS)
                # Spread over the run like the slices, the set-up launches
                # sample its slow and fast spells alike.
                if (i + 1) % (ROUNDS // SETUP_PROBES) == 0:
                    self.setups.append(self.probe_setup())
        results = {}
        for phase, worker in workers.items():
            result = worker.command("end")
            server_rss = self.close(phase, worker)
            result["rss_mb"] = result.get("rss_mb", server_rss)
            results[phase] = result
        self.check(results)
        return results

    def check(self, results: dict) -> None:
        """Fold each pipeline's correctness checks into its failure count."""
        off = results["offline_query"]
        checked = [off.pop("results")] + (
            [off.pop("traced_results")] if "traced_results" in off else []
        )
        off["failed"] += sum(
            not check_query(rows, spec, self.cols)
            for results_ in checked
            for rows, spec in zip(results_, self.specs)
        )
        for result in results.values():
            result["correct"] = result["failed"] == 0 and result.get("drain_correct", True)


PHASES = ("online_regions", "server_ingest", "offline_query")


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg()[0],
        "program_cpu": PROGRAM_CPU,
        "loadgen_cpu": LOADGEN_CPU,
    }


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def end_to_end(results: dict, setups: list, bench: dict) -> dict:
    """Metric -> (value, unit, sample count as printed)."""
    metrics = {}
    for metric in bench["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name == "setup_s":
            value = median(setups)
            samples = f"{len(setups)} launches of all three pipelines"
        elif name == "rss_mb":
            value = sum(r["rss_mb"] for r in results.values())
            samples = f"{len(results)} processes"
        else:
            phase, count_key, rounds_key = SAMPLES[name]
            value = results[phase][name]
            samples = results[phase][count_key]
            if rounds_key is not None:
                samples = f"{samples}, averaged over {results[phase][rounds_key]} {rounds_key}"
        metrics[name] = (value, unit, samples)
    return metrics


def report(args, bench, info, results, metrics, trace) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    print("why: " + why[args.workload])
    for phase, r in results.items():
        print(
            f"  {phase}: attempted={r['attempted']} failed={r['failed']} "
            f"correct={r['correct']}"
        )
    if not trace:
        for name, (value, unit, samples) in metrics.items():
            print(f"  {name:<20} {value:14.4f} {unit:<10} n={samples}")
        print(
            f"  event_ns_p50 as measured: {results['online_regions']['event_ns_p50_raw']:.1f} ns/event"
        )
        srv = results["server_ingest"]
        print(
            f"  live-query generator lateness: p50 {srv['lateness_ms_p50']:.3f} ms, "
            f"p90 {srv['lateness_ms_p90']:.3f} ms"
        )
        return
    for phase in PHASES:
        print(f"  [{phase}]")
        for name in results[phase]["layers"]:
            value, unit, _samples = metrics[name]
            print(f"    {name:<34} {value:14.4f} {unit}")
    on = results["online_regions"]
    srv = results["server_ingest"]
    off = results["offline_query"]
    print("reconciliation (layer sum vs untraced end-to-end, residual, tracing overhead):")
    print(
        f"  online_regions: layers {on['layers']['online_regions.layer_sum_ns']:.1f} ns/event vs "
        f"event_ns_p50 {on['event_ns_p50']:.1f}; residual "
        f"{on['layers']['online_regions.residual_ns']:.1f} ns; overhead "
        f"{on['layers']['online_regions.trace_overhead_ns']:.1f} ns/event"
    )
    print(
        f"  server_ingest: decode+fold {srv['layers']['server_ingest.layer_sum_ns']:.1f} ns/record vs "
        f"{1e9 / srv['ingest_rps']:.1f} ns/record at ingest_rps; residual (unattributed) "
        f"{srv['layers']['net.server.unattributed_ns']:.1f} ns; overhead "
        f"{srv['layers']['server_ingest.trace_overhead_ns']:.1f} ns/record"
    )
    print(
        f"  offline_query: layers {off['layers']['offline_query.layer_sum_ms']:.2f} ms/query vs "
        f"mean {off['mean_query_ms']:.2f} ms/query; residual "
        f"{off['layers']['offline_query.residual_ms']:.2f} ms; overhead "
        f"{off['layers']['offline_query.trace_overhead_ms']:.2f} ms/query"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (the self-test uses a small one)"
    )
    args = parser.parse_args(argv)
    # A stopped run still stops its children (the server ignores stdin).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    info = machine()
    bench = declared()
    env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=os.path.join(WORK, "tmp"))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(env["TMPDIR"])
    procs = Processes(env)
    try:
        run = Run(procs, args)
        results = run.execute()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        units = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
        metrics = {
            name: (value, units[name], 1)
            for r in results.values()
            for name, value in r["layers"].items()
        }
        os.makedirs(OUT, exist_ok=True)
        spans = [dict(s, pipeline=phase) for phase, r in results.items() for s in r["spans"]]
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump(spans, f)
    else:
        metrics = end_to_end(results, run.setups, bench)
    report(args, bench, info, results, metrics, args.trace)
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _n) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
