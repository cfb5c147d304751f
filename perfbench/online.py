"""``online_regions`` worker: the per-event annotation path.

One thread walks a seeded random call tree through ``Caliper.begin/end`` on
an ``event,timer,aggregate`` channel.  ``iteration`` is set once per epoch
and every epoch ends in ``Channel.flush()``; a round is one repetition of
``epochs`` epochs on a fresh channel.  Events are timed in blocks of
1,000; flushes are timed one by one.  Each block and flush is bracketed by
two runs of the speed probe and reported at the reference speed (see
``common.speed_scale``).  Every flush must hold one record per
key so far, and the last (cumulative) flush of a repetition must hold the
per-key counts the call sequence predicts.

With tracing on, each block, flush and repetition is a span, and ``end``
adds the layer ladder (the same blocks on a disabled runtime, a channel
with no services, then ``event``, ``event,timer`` and the full channel) and
the cost of ``AggregationDB.process`` on the snapshots the call sequence
makes.  Run by ``run.py`` with one JSON argument; see ``common.serve``.
"""

from __future__ import annotations

import gc
import time

from common import (
    RoundWork,
    Tracer,
    median,
    peak_rss_mb,
    percentile,
    probe_ns,
    serve,
    speed_scale,
    worker_params,
)
from workloads import BLOCK_EVENTS, ONLINE_SCHEME, call_tree, traversal_counts, traversal_events

FULL_SERVICES = ["event", "timer", "aggregate"]
#: the layer ladder: each step adds one stage to the previous one
LADDER = [
    ("runtime.disabled_ns", None),
    ("runtime.blackboard_ns", []),
    ("services.event_ns", ["event"]),
    ("services.timer_ns", ["event", "timer"]),
    ("services.aggregate_ns", FULL_SERVICES),
]


def make_runtime(services):
    from repro.runtime.instrumentation import Caliper

    if services is None:
        return Caliper(enabled=False), None
    cali = Caliper()
    config = {"services": services}
    if "aggregate" in services:
        config["aggregate.config"] = ONLINE_SCHEME
    return cali, cali.create_channel("bench", config)


def run_block(cali, block) -> float:
    """Replay one block of events; returns its ns/event."""
    begin, end = cali.begin, cali.end
    t0 = time.perf_counter_ns()
    for is_begin, name in block:
        if is_begin:
            begin("region", name)
        else:
            end("region")
    return (time.perf_counter_ns() - t0) / len(block)


def run_block_at_reference(cali, block) -> tuple[float, float]:
    """Replay one block; returns its ns/event at the reference speed, and
    as measured."""
    before = probe_ns()
    ns = run_block(cali, block)
    return ns * speed_scale(before, probe_ns()), ns


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0}


class Online(RoundWork):
    def __init__(self, p: dict) -> None:
        t0 = time.perf_counter()
        tree = call_tree(p["seed"], p["names"], p["paths"])
        events = traversal_events(tree) * p["traversals_per_epoch"]
        self.blocks = [events[i : i + BLOCK_EVENTS] for i in range(0, len(events), BLOCK_EVENTS)]
        self.epochs = p["epochs"]
        self.expected = {
            key: n * p["traversals_per_epoch"] for key, n in traversal_counts(tree).items()
        }
        # The benchmark's own inputs are frozen out of the collector, so its
        # full passes scan only the program's objects, as in an application.
        gc.collect()
        gc.freeze()
        self.gen_s = time.perf_counter() - t0
        import repro  # noqa: F401  (part of set-up: the import a user pays)

        self.runtime = make_runtime(FULL_SERVICES)
        self.stats = new_stats()
        self.tracer = None
        self.untraced = None
        super().__init__(p["budget"])

    def check_flush(self, records, epoch: int, full: bool) -> bool:
        """The flush after ``epoch`` holds one record per key so far; the
        ``full`` check (on a repetition's last, cumulative flush) also
        compares every key's count with the call sequence's."""
        if not full:
            return len(records) == (epoch + 1) * len(self.expected)
        got = {}
        for record in records:
            row = record.to_plain()
            if not row["min#time.duration"] <= row["max#time.duration"]:
                return False
            got[(row.get("region"), row["iteration"])] = row["aggregate.count"]
        want = {(path, it): n for it in range(epoch + 1) for path, n in self.expected.items()}
        return got == want

    def units(self):
        stats, tracer = self.stats, self.tracer
        while True:
            cali, channel = self.runtime or make_runtime(FULL_SERVICES)
            self.runtime = None
            self.channel = channel
            if tracer:
                tracer.begin("online.repetition", self.rounds)
            for epoch in range(self.epochs):
                cali.set("iteration", epoch)
                for index, block in enumerate(self.blocks):
                    if tracer:
                        tracer.begin("runtime.block", index)
                    ns, raw = run_block_at_reference(cali, block)
                    self.record("block_ns", ns)
                    self.record("block_ns_raw", raw)
                    if tracer:
                        tracer.end()
                    stats["attempted"] += 1
                    yield False
                if tracer:
                    tracer.begin("runtime.channel.flush", epoch)
                before = probe_ns()
                t0 = time.perf_counter_ns()
                records = channel.flush()
                ms = (time.perf_counter_ns() - t0) / 1e6
                self.record("flush_ms", ms * speed_scale(before, probe_ns()))
                if tracer:
                    tracer.end()
                stats["attempted"] += 1
                last = epoch == self.epochs - 1
                if not self.check_flush(records, epoch, full=last):
                    stats["failed"] += 1
                del records  # one flush's output alive at a time, for rss_mb
                if last and tracer:
                    tracer.end()
                yield last

    def summary(self) -> dict:
        self.finish_round()
        s = self.stats
        agg = self.channel.service("aggregate").stats()
        blocks = self.all_samples("block_ns")
        return {
            "event_ns_p50": self.round_percentile("block_ns", 50),
            # A repetition has too few blocks for its own p99.
            "event_ns_p99": percentile(blocks, 99),
            "blocks": len(blocks),
            "event_ns_p50_raw": self.round_percentile("block_ns_raw", 50),
            "flush_ms_p50": self.round_percentile("flush_ms", 50),
            "flushes": len(self.all_samples("flush_ms")),
            "repetitions": self.rounds,
            "attempted": s["attempted"],
            "failed": s["failed"],
            "keycache_hit_ratio": agg["keycache.hits"] / (agg["keycache.hits"] + agg["keycache.misses"]),
            "entries": agg["db.entries"],
        }

    def start_tracing(self) -> None:
        self.untraced = self.summary()
        self.stats = new_stats()
        self.tracer = Tracer()
        self.restart(self.budget)

    def finish(self) -> dict:
        result = self.summary()
        if self.tracer is not None:
            traced = result
            result = dict(self.untraced)
            result["attempted"] += traced["attempted"]
            result["failed"] += traced["failed"]
            layers = self.ladder()
            layers["aggregate.process_ns"] = self.fold_ns()
            layers["aggregate.keycache_hit_ratio"] = result["keycache_hit_ratio"]
            layers["aggregate.entries"] = result["entries"]
            layers["online_regions.residual_ns"] = (
                result["event_ns_p50"] - layers["online_regions.layer_sum_ns"]
            )
            layers["online_regions.trace_overhead_ns"] = (
                traced["event_ns_p50"] - result["event_ns_p50"]
            )
            result["layers"] = layers
            result["spans"] = self.tracer.to_json()
        result["rss_mb"] = peak_rss_mb()
        return result

    def ladder(self, rounds: int = 3) -> dict:
        """Median ns/event of each ladder step, at the reference speed.

        Every block is replayed on each step's runtime in turn, so all steps
        see the machine at the same speed and their differences are not
        swamped by its drift.  Each step times its second epoch: the first
        fills the fresh channel's tables and caches, as earlier epochs do
        for a timed run.
        """
        samples = {name: [] for name, _ in LADDER}
        for _ in range(rounds):
            runtimes = [(name, make_runtime(services)[0]) for name, services in LADDER]
            for epoch in range(2):
                for _name, cali in runtimes:
                    cali.set("iteration", epoch)
                for block in self.blocks:
                    for name, cali in runtimes:
                        ns = run_block_at_reference(cali, block)[0]
                        if epoch == 1:
                            samples[name].append(ns)
        layers = {}
        previous = 0.0
        for name, _ in LADDER:
            total = median(samples[name])
            layers[name] = total - previous
            previous = total
        layers["online_regions.layer_sum_ns"] = previous
        return layers

    def fold_ns(self) -> float:
        """``AggregationDB.process`` per snapshot of one epoch, captured by a
        ``trace`` channel from the same call sequence, at the reference
        speed."""
        from repro.aggregate.db import AggregationDB
        from repro.calql import parse_scheme

        cali, channel = make_runtime(["event", "timer", "trace"])
        cali.set("iteration", 0)
        for block in self.blocks:
            run_block(cali, block)
        snapshots = channel.flush()
        db = AggregationDB(parse_scheme(ONLINE_SCHEME))
        process = db.process
        before = probe_ns()
        t0 = time.perf_counter_ns()
        for record in snapshots:
            process(record)
        ns = (time.perf_counter_ns() - t0) / len(snapshots)
        return ns * speed_scale(before, probe_ns())


def main() -> None:
    worker = Online(worker_params())
    serve(worker, {"ready": time.monotonic(), "gen_s": worker.gen_s})


if __name__ == "__main__":
    main()
