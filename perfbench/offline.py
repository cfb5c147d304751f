"""``offline_query`` worker: the analyst's out-of-core query path.

Cycles a fixed mix of CalQL aggregation queries through
``repro.api.query(text, path)`` over a seeded ``.rcf`` file, timing each
query; a round is one pass over the mix.  The first pass's results go back
to ``run.py``, which checks them against numpy; later passes must repeat
them exactly.

With tracing on, each pass makes the same scan ``repro.api.query`` makes,
call by call (parse, open, per-chunk decode, per-chunk fold and merge,
finalize), each call inside its own span, and its results are checked too;
``end`` then times the per-chunk fold and the merge of its partial result
as separate calls (``columnar_db``, ``AggregationDB.combine``).  Run by
``run.py`` with one JSON argument; see ``common.serve``.
"""

from __future__ import annotations

import json
import time

from common import (
    RoundWork,
    Tracer,
    median,
    peak_rss_mb,
    probe_ns,
    serve,
    speed_scale,
    worker_params,
)

#: spans of the calls one traced query makes into the layers
LAYER_SPANS = (
    "calql.parse",
    "io.colfile.open",
    "io.colfile.chunk_store",
    "query.engine.feed",
    "query.engine.finalize",
)


def rows(result) -> list[dict]:
    return [record.to_plain() for record in result]


def new_stats() -> dict:
    return {"attempted": 0, "failed": 0, "results": [], "records": 0}


class Offline(RoundWork):
    def __init__(self, p: dict) -> None:
        import repro.api
        from repro.io.colfile import ColfileReader
        from repro.query.engine import QueryEngine

        self.texts = p["queries"]
        self.path = p["path"]
        ColfileReader(self.path).close()
        for text in self.texts:
            QueryEngine(text)
        self.query = repro.api.query
        self.stats = new_stats()
        self.tracer = None
        self.untraced = None
        super().__init__(p["budget"])

    def units(self):
        from repro.common.errors import ReproError

        stats, tracer = self.stats, self.tracer
        while True:
            for i, text in enumerate(self.texts):
                stats["attempted"] += 1
                before = probe_ns()
                t0 = time.perf_counter()
                try:
                    result = self.traced_query(i, text) if tracer else self.query(text, self.path)
                except ReproError:
                    stats["failed"] += 1
                    yield i == len(self.texts) - 1
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                self.record("query_ms", ms * speed_scale(before, probe_ns()))
                self.record("query_ms_raw", ms)
                # Kept as text: thousands of live row dicts would slow every
                # later garbage collection, inside the timed queries.
                got = json.dumps(rows(result))
                if len(stats["results"]) < len(self.texts):
                    stats["results"].append(got)
                elif got != stats["results"][i]:
                    stats["failed"] += 1
                yield i == len(self.texts) - 1

    def traced_query(self, qi: int, text: str):
        """The out-of-core scan ``repro.api.query`` makes, one span per call."""
        from repro.io.colfile import ColfileReader
        from repro.query.engine import QueryEngine

        tracer = self.tracer
        tracer.begin("offline.query", qi)
        tracer.begin("calql.parse", qi)
        engine = QueryEngine(text)
        tracer.end()
        tracer.begin("io.colfile.open", qi)
        reader = ColfileReader(self.path)
        tracer.end()
        db = engine.make_db()
        for index in range(reader.num_chunks):
            tracer.begin("io.colfile.chunk_store", qi)
            store = reader.chunk_store(index)
            tracer.end()
            tracer.begin("query.engine.feed", qi)
            engine.feed(db, (), store=store)
            tracer.end()
            self.stats["records"] += len(store)
        self.chunks = reader.num_chunks
        tracer.begin("query.engine.finalize", qi)
        result = engine.finalize(db)
        tracer.end()
        reader.close()
        tracer.end()
        return result

    def fold_and_merge_ns(self) -> tuple[float, float]:
        """One pass with each chunk's fold and merge as separate calls:
        ``columnar_db`` per record and ``AggregationDB.combine`` per group,
        at the reference speed."""
        from repro.io.colfile import ColfileReader
        from repro.query.columnar import columnar_db
        from repro.query.engine import QueryEngine

        clock = time.perf_counter_ns
        fold = merge = records = groups = 0.0
        for text in self.texts:
            engine = QueryEngine(text)
            reader = ColfileReader(self.path)
            db = engine.make_db()
            before = probe_ns()
            query_fold = query_merge = 0
            for index in range(reader.num_chunks):
                store = reader.chunk_store(index)
                t0 = clock()
                partial = columnar_db(store, engine.scheme, engine.query.where)
                t1 = clock()
                db.combine(partial)
                query_merge += clock() - t1
                query_fold += t1 - t0
                records += len(store)
                groups += len(partial)
            scale = speed_scale(before, probe_ns())
            fold += query_fold * scale
            merge += query_merge * scale
            reader.close()
        return fold / records, merge / groups

    def summary(self) -> dict:
        self.finish_round()
        s = self.stats
        times = self.all_samples("query_ms")
        raw = self.all_samples("query_ms_raw")
        return {
            "query_ms_p50": self.round_percentile("query_ms", 50),
            "query_ms_p90": self.round_percentile("query_ms", 90),
            "queries": len(times),
            "mean_query_ms": sum(times) / len(times),
            "mean_query_ms_raw": sum(raw) / len(raw),
            "passes": self.rounds,
            "attempted": s["attempted"],
            "failed": s["failed"],
            "results": [json.loads(text) for text in s["results"]],
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
            result["traced_results"] = traced["results"]
            result["layers"] = self.layers(result, traced)
            result["spans"] = self.tracer.to_json()
        result["rss_mb"] = peak_rss_mb()
        return result

    def layers(self, untraced: dict, traced: dict) -> dict:
        """Per-call layer costs from the traced passes' spans, taken to the
        reference speed by the traced passes' mean scale."""
        tracer, s = self.tracer, self.stats
        scale = traced["mean_query_ms"] / traced["mean_query_ms_raw"]
        results = traced["results"]
        n = len(tracer.durations_ns("offline.query"))
        layer_sum_ms = scale * sum(tracer.total_ns(name) for name in LAYER_SPANS) / n / 1e6
        untraced_ms = untraced["mean_query_ms"]
        fold_ns, merge_ns = self.fold_and_merge_ns()
        return {
            "calql.parse_us": scale * median(tracer.durations_ns("calql.parse")) / 1e3,
            "io.colfile.open_ms": scale * median(tracer.durations_ns("io.colfile.open")) / 1e6,
            "io.colfile.chunk_ns": scale * tracer.total_ns("io.colfile.chunk_store") / s["records"],
            "query.engine.feed_ns": scale * tracer.total_ns("query.engine.feed") / s["records"],
            "query.columnar.chunk_ns": fold_ns,
            "aggregate.combine_ns": merge_ns,
            "query.engine.finalize_ms": scale * tracer.total_ns("query.engine.finalize") / n / 1e6,
            "query.groups": sum(len(r) for r in results) / len(results),
            "query.chunks": self.chunks,
            "offline_query.layer_sum_ms": layer_sum_ms,
            "offline_query.residual_ms": untraced_ms - layer_sum_ms,
            "offline_query.trace_overhead_ms": traced["mean_query_ms"] - untraced_ms,
        }


def main() -> None:
    worker = Offline(worker_params())
    serve(worker, {"ready": time.monotonic(), "gen_s": 0.0})


if __name__ == "__main__":
    main()
