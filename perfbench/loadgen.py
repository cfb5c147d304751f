"""``server_ingest`` load generator: one process, at most two connections.

* Writer (closed loop): one binary ``FlushClient`` sends batches of 1,000
  seeded records cycled from a pool, each ``send_records`` call waiting for
  its ACK before the next batch goes out.
* Reader (open loop): ``live_query`` runs at a fixed 4 Hz on a schedule
  that does not wait for slow answers; each query is timed from when it was
  due, and how late the generator started it is reported beside it.

When there is a second core the reader runs on its own thread; otherwise
the writer starts due queries between batches, so the generator never has
more threads or connections than ``nproc``.

Each slice of work ends when a live query shows every record sent folded;
``ingest_rps`` is the records sent over the summed slice intervals.

Timings are reported at the reference speed (see ``common.speed_scale``).
The server's CPU and the generator's switch speed independently, so after
each live query the reader runs the speed probe on both, hopping to the
server's CPU for it and timing it by its own CPU time there (the server
keeps that CPU busy); each slice's times are scaled by the median probes of
the slice.  At the
end the writer drains the server and checks the drained groups against a
``StreamAggregator`` over the same records.  Run by ``run.py`` with one
JSON argument; see ``common.serve``.
"""

from __future__ import annotations

import gc
import os
import threading
import time

from common import (
    Tracer,
    median,
    percentile,
    probe_ns,
    probe_on,
    serve,
    speed_scale,
    worker_params,
)
from workloads import (
    BATCH_RECORDS,
    LIVE_QUERY,
    LIVE_QUERY_HZ,
    QUEUED_QUERY,
    SERVER_SCHEME,
    close_enough,
    server_batches,
)

HOST = "127.0.0.1"
#: seconds to wait for every ACKed record to show in a live query
VISIBLE_TIMEOUT = 20.0


def visible_records(result) -> int:
    return sum(int(row.to_plain().get("sum#count", 0)) for row in result)


def new_stats() -> dict:
    return {
        "ack_ms": [],
        "live_ms": [],
        "late_ms": [],
        "queued": [],
        "records": 0,
        "interval_s": 0.0,
        "attempted": 0,
        "failed": 0,
    }


class SpeedProbes:
    """Speed probe runs on the server's CPU and on the generator's."""

    def __init__(self, program_cpu) -> None:
        self.program_cpu = program_cpu
        #: (server CPU, generator CPU) probe times since the last scale
        self.pairs: list[tuple[int, int]] = []

    def take(self) -> None:
        self.pairs.append((probe_on(self.program_cpu), probe_on()))

    def scale(self) -> float:
        """The reference-speed factor of the probes taken since the last call."""
        pairs, self.pairs = self.pairs, []
        return speed_scale(median([p[0] for p in pairs]), median([p[1] for p in pairs]))


class LiveReader:
    """The open-loop live-query schedule of one slice."""

    def __init__(self, port: int, stats: dict, probes: SpeedProbes, tracer=None) -> None:
        self.port = port
        self.stats = stats
        self.probes = probes
        self.tracer = tracer
        self.period = 1.0 / LIVE_QUERY_HZ
        self.start = time.perf_counter()
        self.issued = 0

    def next_due(self) -> float:
        return self.start + self.issued * self.period

    def run_one(self) -> None:
        from repro.common.errors import ReproError
        from repro.net.client import live_query

        stats = self.stats
        due = self.next_due()
        stats["late_ms"].append(max(0.0, time.perf_counter() - due) * 1e3)
        stats["attempted"] += 1
        if self.tracer is not None:
            self.tracer.begin("net.client.live_query", self.issued)
        self.issued += 1
        try:
            live_query(HOST, self.port, LIVE_QUERY)
        except (ReproError, OSError):
            stats["failed"] += 1
            return
        finally:
            if self.tracer is not None:
                self.tracer.end()
        stats["live_ms"].append((time.perf_counter() - due) * 1e3)
        if self.tracer is not None:
            # Every batch ACKed before a live query is folded before it is
            # answered, so the wait for the fold shows in the shard queues.
            telemetry = live_query(HOST, self.port, QUEUED_QUERY, target="telemetry")
            stats["queued"].append(sum(int(r.to_plain()["sum#observe.value"]) for r in telemetry))
        self.probes.take()

    def loop(self, stop: threading.Event) -> None:
        while not stop.is_set():
            delay = self.next_due() - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                return
            self.run_one()


class Loadgen:
    def __init__(self, p: dict) -> None:
        import repro  # noqa: F401  (part of set-up: the import a user pays)
        from repro.net.client import FlushClient

        t0 = time.perf_counter()
        self.pool = server_batches(p["seed"], p["kernels"], p["ranks"], p["pool_batches"])
        # The record pool is frozen out of the collector: full passes over
        # it would otherwise stall the generator between batches.
        gc.collect()
        gc.freeze()
        self.gen_s = time.perf_counter() - t0
        self.port = p["port"]
        self.work_dir = p["work_dir"]
        self.threaded = p["nproc"] >= 2
        self.probes = SpeedProbes(p["program_cpu"])
        self.client = FlushClient(
            HOST, self.port, batch_size=BATCH_RECORDS, spool_dir=p["spool_dir"]
        )
        self.client.stats_records()  # HELLO plus one round trip: the client is ready
        self.sent_batches = 0
        self.stats = new_stats()
        self.tracer = self.reader_tracer = None
        self.untraced = None

    def run_slice(self, seconds: float) -> None:
        from repro.net.client import live_query

        stats, tracer = self.stats, self.tracer
        self.probes.take()
        reader = LiveReader(self.port, stats, self.probes, self.reader_tracer)
        first = self.sent_batches
        marks = {key: len(stats[key]) for key in ("ack_ms", "live_ms")}
        stop = threading.Event()
        thread = None
        if self.threaded:
            thread = threading.Thread(target=reader.loop, args=(stop,), daemon=True)
            thread.start()
        try:
            while time.perf_counter() - reader.start < seconds:
                if not self.threaded and time.perf_counter() >= reader.next_due():
                    reader.run_one()
                batch = self.pool[self.sent_batches % len(self.pool)]
                if tracer is not None:
                    tracer.begin("net.client.send_records", self.sent_batches)
                t0 = time.perf_counter()
                ok = self.client.send_records(batch)
                stats["ack_ms"].append((time.perf_counter() - t0) * 1e3)
                if tracer is not None:
                    tracer.end()
                self.sent_batches += 1
                stats["attempted"] += 1
                stats["failed"] += not ok
        finally:
            stop.set()
            if thread is not None:
                thread.join(timeout=60)
        target = self.sent_batches * BATCH_RECORDS
        deadline = time.perf_counter() + VISIBLE_TIMEOUT
        while visible_records(live_query(HOST, self.port, LIVE_QUERY)) < target:
            if time.perf_counter() > deadline:
                stats["failed"] += 1
                break
        interval_s = time.perf_counter() - reader.start
        self.probes.take()
        scale = self.probes.scale()
        for key, mark in marks.items():
            stats[key][mark:] = [ms * scale for ms in stats[key][mark:]]
        stats["interval_s"] += interval_s * scale
        stats["records"] += (self.sent_batches - first) * BATCH_RECORDS

    def summary(self) -> dict:
        s = self.stats
        return {
            "ingest_rps": s["records"] / s["interval_s"],
            "records": s["records"],
            "ack_ms_p50": median(s["ack_ms"]),
            "ack_ms_p90": percentile(s["ack_ms"], 90),
            "acks": len(s["ack_ms"]),
            "live_query_ms_p50": median(s["live_ms"]),
            "live_query_ms_p90": percentile(s["live_ms"], 90),
            "live_queries": len(s["live_ms"]),
            "lateness_ms_p50": median(s["late_ms"]),
            "lateness_ms_p90": percentile(s["late_ms"], 90),
            "queued_batches": median(s["queued"]) if s["queued"] else 0,
            "attempted": s["attempted"],
            "failed": s["failed"],
        }

    def start_tracing(self) -> None:
        self.untraced = self.summary()
        self.stats = new_stats()
        self.tracer, self.reader_tracer = Tracer("writer"), Tracer("reader")

    def finish(self) -> dict:
        result = self.summary()
        if self.tracer is not None:
            traced = result
            result = dict(self.untraced)
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            layers = layer_costs(self.pool, self.work_dir)
            per_record = 1e9 / result["ingest_rps"]
            layers["server_ingest.layer_sum_ns"] = (
                layers["net.protocol.decode_ns"] + layers["aggregate.fold_ns"]
            )
            layers["net.server.unattributed_ns"] = per_record - layers["server_ingest.layer_sum_ns"]
            layers["net.server.queued_batches"] = traced["queued_batches"]
            layers["server_ingest.trace_overhead_ns"] = 1e9 / traced["ingest_rps"] - per_record
            layers["loadgen.lateness_ms_p90"] = traced["lateness_ms_p90"]
            result["layers"] = layers
            result["spans"] = self.tracer.to_json() + self.reader_tracer.to_json()
        try:
            drained = self.client.drain()
            counters = dict(self.client.counters)
        finally:
            self.client.close()
        result["attempted"] += 1
        result["drain_correct"] = check_drain(drained, self.pool, self.sent_batches)
        result["failed"] += counters["busy"] + (not result["drain_correct"])
        if "layers" in result:
            result["layers"]["net.client.busy"] = counters["busy"]
            # The counter also counts the first connect.
            result["layers"]["net.client.reconnects"] = counters["reconnects"] - 1
        return result


def check_drain(drained, pool, sent_batches: int) -> bool:
    """Drained groups equal a ``StreamAggregator`` over the records sent."""
    from repro.aggregate.stream import StreamAggregator
    from repro.calql import parse_scheme

    reference = StreamAggregator(parse_scheme(SERVER_SCHEME))
    for i in range(sent_batches):
        reference.push_all(pool[i % len(pool)])

    def keyed(records):
        return {(r["kernel"], r["mpi.rank"]): r for r in (x.to_plain() for x in records)}

    got, want = keyed(drained), keyed(reference.flush())
    if got.keys() != want.keys():
        return False
    return all(
        close_enough(got[key].get(label), value)
        for key, row in want.items()
        for label, value in row.items()
    )


def layer_costs(pool, work_dir: str) -> dict:
    """Per-record costs of the layers a batch crosses, on the run's batches,
    at the reference speed."""
    from repro.aggregate.db import AggregationDB
    from repro.calql import parse_scheme
    from repro.io.colfile import ColfileWriter
    from repro.net.protocol import records_from_binary, records_to_binary
    from repro.query.engine import QueryEngine

    clock = time.perf_counter_ns
    n = len(pool) * BATCH_RECORDS
    before = probe_ns()
    t0 = clock()
    blobs = [records_to_binary(batch) for batch in pool]
    encode = clock() - t0
    path = os.path.join(work_dir, "layer-spool.rcf")
    with ColfileWriter(path) as writer:
        t0 = clock()
        for batch in pool:
            writer.write_chunk(batch)
        write = clock() - t0
    os.unlink(path)
    t0 = clock()
    decoded = [records_from_binary(blob) for blob in blobs]
    decode = clock() - t0
    scheme = parse_scheme(SERVER_SCHEME)
    db = AggregationDB(scheme)
    process = db.process
    t0 = clock()
    for batch in decoded:
        for record in batch:
            process(record)
    fold = clock() - t0
    t0 = clock()
    states = db.export_states()
    export = clock() - t0
    merged = AggregationDB(scheme)
    t0 = clock()
    merged.load_states(states)
    load = clock() - t0
    flushed = merged.flush()
    engine = QueryEngine(LIVE_QUERY)
    t0 = clock()
    engine.run(flushed)
    run = clock() - t0
    scale = speed_scale(before, probe_ns())
    return {
        "net.protocol.encode_ns": scale * encode / n,
        "io.colfile.write_ns": scale * write / n,
        "net.protocol.decode_ns": scale * decode / n,
        "aggregate.fold_ns": scale * fold / n,
        "aggregate.export_ms": scale * export / 1e6,
        "aggregate.load_states_ns": scale * load / len(states),
        "query.engine.run_ms": scale * run / 1e6,
        "server_ingest.groups": len(states),
    }


def main() -> None:
    worker = Loadgen(worker_params())
    serve(worker, {"ready": time.monotonic(), "gen_s": worker.gen_s})


if __name__ == "__main__":
    main()
