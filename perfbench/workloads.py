"""Workload parameters, seeded input generators and reference results.

Every run executes the three pipelines of the system on inputs made here
from ``--seed``:

``online_regions``
    one thread annotates a seeded random call tree through
    ``Caliper.begin/end`` on an ``event,timer,aggregate`` channel;
``server_ingest``
    one load-generator process streams seeded records to a
    ``repro-query serve`` process and runs live queries beside the writes;
``offline_query``
    a seeded ``.rcf`` file is scanned out of core by a fixed mix of CalQL
    aggregation queries.

The two benchmark workloads (``few_keys`` and ``many_keys``) run the same
three pipelines and differ in how many aggregation keys the annotation
events and the offline queries spread over: key caches, per-key state and
the merge of partial results all scale with that number, so one workload
keeps them small and the other makes them dominate.  The server traffic is
the same in both (see ``WORKLOADS``).

Nothing here times anything; the generators only need numpy, and the
functions that build program objects (records, ``.rcf`` files) import
``repro`` lazily.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

BLOCK_EVENTS = 1000
BATCH_RECORDS = 1000
#: distinct record batches the load generator cycles through
POOL_BATCHES = 64
#: open-loop live-query rate of the load generator
LIVE_QUERY_HZ = 4.0

ONLINE_SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.duration) GROUP BY region, iteration"
)
SERVER_SCHEME = (
    "AGGREGATE count, sum(time.duration), min(time.duration), "
    "max(time.duration) GROUP BY kernel, mpi.rank"
)
LIVE_QUERY = "AGGREGATE sum(count) GROUP BY kernel"
#: telemetry query for the batches queued in the server's shards
QUEUED_QUERY = "AGGREGATE sum(observe.value) WHERE observe.metric=net.shard.depth"

#: offline file: 4 chunks at the default chunk size of 65,536 rows
OFFLINE_ROWS = 1 << 18
OFFLINE_KERNELS = 13
OFFLINE_RANKS = 64
OFFLINE_ITERATIONS = 50
OFFLINE_FUNCTIONS = 200
KERNEL_ZIPF_S = 1.2

# Offline queries as (ops, where, group by); ``where`` is
# (label, comparison, value) or None.  The GROUP BY cardinality of each is
# noted; it decides the cost of the per-chunk merge.
_FEW_QUERIES = [
    (("count", "sum"), None, ("kernel",)),  # 13
    (("count", "max"), None, ("iteration",)),  # 50
    (("count", "sum", "min"), None, ("mpi.rank",)),  # 64
    (("count", "avg"), None, ("function",)),  # 200
    (("count", "sum"), None, ("kernel", "iteration")),  # 650
    (("count", "sum", "max"), None, ("kernel", "mpi.rank")),  # 832
    (("count", "sum"), ("kernel", "=", "k3"), ("mpi.rank",)),  # 64
    (("count", "min", "max"), ("iteration", "<", 25), ("function",)),  # 200
    (("sum",), ("mpi.rank", ">=", 32), ("kernel", "iteration")),  # 650
    (("count",), ("function", "=", "f7"), ("iteration",)),  # 50
]
_MANY_QUERIES = [
    (("count", "sum"), None, ("function", "kernel")),  # 2,600
    (("count", "max"), None, ("iteration", "mpi.rank")),  # 3,200
    (("count", "sum"), None, ("function", "iteration")),  # 10,000
    (("count", "avg"), None, ("function", "mpi.rank")),  # 12,800
    (("count", "min"), ("kernel", "=", "k0"), ("function", "iteration")),  # 10,000
    (("sum",), ("iteration", "<", 25), ("function", "mpi.rank")),  # 12,800
    (("count", "sum"), ("mpi.rank", "<", 16), ("kernel", "function")),  # 2,600
]

WORKLOADS = {
    "few_keys": {
        # 40 traversals of 250 paths = 20,000 events = 20 blocks per epoch;
        # in the first block of each epoch the 251 keys of the new iteration
        # miss the key cache.
        "online": {"names": 40, "paths": 250, "traversals_per_epoch": 40, "epochs": 10},
        "server": {"kernels": 13, "ranks": 64},
        "offline": _FEW_QUERIES,
    },
    "many_keys": {
        # 4 traversals of 1,000 paths = 8 blocks per epoch; in the first 2
        # half the events meet one of the iteration's 1,001 keys for the
        # first time and miss the key cache, which (4,096 entries) also
        # overflows every fourth epoch.  The cumulative flush reaches 10k
        # entries.
        "online": {"names": 400, "paths": 1000, "traversals_per_epoch": 4, "epochs": 10},
        # The server keeps few_keys' 832 groups: with more, the 4 Hz live
        # queries saturate it and its latencies vary more than any bound.
        "server": {"kernels": 13, "ranks": 64},
        "offline": _MANY_QUERIES,
    },
}


def kernel_name(i: int) -> str:
    return f"k{i}"


def function_name(i: int) -> str:
    return f"f{i}"


# -- online_regions -------------------------------------------------------------


#: share of a call tree's paths at nesting depth 1, 2 and 3 (the rest is 4)
DEPTH_SHARES = (0.04, 0.12, 0.28)


def call_tree(seed: int, names: int, paths: int) -> list[tuple[str, ...]]:
    """A seeded random call tree, as its region paths in depth-first order.

    The number of paths at each nesting depth (1 to 4) is fixed by
    ``DEPTH_SHARES``, so every seed gives a call sequence of the same shape
    and cost; the seed picks each node's parent, uniformly among the nodes
    one level up, and a region name its siblings do not use.
    """
    rng = np.random.default_rng([seed, 1])
    per_depth = [round(paths * share) for share in DEPTH_SHARES]
    per_depth.append(paths - sum(per_depth))
    children: dict[tuple[str, ...], list[str]] = {(): []}
    level: list[tuple[str, ...]] = [()]
    for count in per_depth:
        made: list[tuple[str, ...]] = []
        while len(made) < count:
            parent = level[int(rng.integers(len(level)))]
            name = f"r{int(rng.integers(names))}"
            if name in children[parent]:
                continue
            children[parent].append(name)
            node = parent + (name,)
            children[node] = []
            made.append(node)
        level = made
    order: list[tuple[str, ...]] = []

    def visit(node: tuple[str, ...]) -> None:
        for name in children[node]:
            child = node + (name,)
            order.append(child)
            visit(child)

    visit(())
    return order


def traversal_events(tree: list[tuple[str, ...]]) -> list[tuple[bool, str]]:
    """One depth-first traversal as ``(is_begin, region name)`` events."""
    events: list[tuple[bool, str]] = []
    stack: list[tuple[str, ...]] = []
    for path in tree:
        while stack and stack[-1] != path[:-1]:
            events.append((False, stack.pop()[-1]))
        events.append((True, path[-1]))
        stack.append(path)
    while stack:
        events.append((False, stack.pop()[-1]))
    return events


def traversal_counts(tree: list[tuple[str, ...]]) -> Counter:
    """Snapshots per region path in one traversal.

    Snapshots fire before the blackboard update, so a ``begin`` is counted
    under the parent's path (``None`` at the top level) and an ``end``
    under the path it closes.
    """
    counts: Counter = Counter()
    for path in tree:
        counts["/".join(path[:-1]) or None] += 1
        counts["/".join(path)] += 1
    return counts


# -- server_ingest --------------------------------------------------------------


def zipf_probabilities(n: int, s: float = KERNEL_ZIPF_S) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return weights / weights.sum()


def server_columns(seed: int, kernels: int, ranks: int, batches: int) -> dict[str, np.ndarray]:
    """Column arrays of the load generator's record pool."""
    rng = np.random.default_rng([seed, 2])
    n = batches * BATCH_RECORDS
    return {
        "kernel": rng.choice(kernels, size=n, p=zipf_probabilities(kernels)),
        "mpi.rank": rng.integers(0, ranks, size=n),
        "time.duration": rng.lognormal(-9.0, 1.0, size=n),
    }


def server_batches(seed: int, kernels: int, ranks: int, batches: int) -> list:
    """The record pool as ``batches`` lists of ``BATCH_RECORDS`` records."""
    from repro.common.record import Record
    from repro.common.variant import ValueType, Variant

    cols = server_columns(seed, kernels, ranks, batches)
    kv = [Variant.of(kernel_name(i)) for i in range(kernels)]
    rv = [Variant.of(i) for i in range(ranks)]
    double = ValueType.DOUBLE
    records = [
        Record.from_variants(
            {"kernel": kv[k], "mpi.rank": rv[r], "time.duration": Variant(double, d)}
        )
        for k, r, d in zip(
            cols["kernel"].tolist(), cols["mpi.rank"].tolist(), cols["time.duration"].tolist()
        )
    ]
    return [records[i : i + BATCH_RECORDS] for i in range(0, len(records), BATCH_RECORDS)]


# -- offline_query --------------------------------------------------------------


def offline_columns(seed: int, rows: int) -> dict[str, np.ndarray]:
    """Column arrays of the offline ``.rcf`` file (codes for string columns)."""
    rng = np.random.default_rng([seed, 3])
    return {
        "kernel": rng.choice(OFFLINE_KERNELS, size=rows, p=zipf_probabilities(OFFLINE_KERNELS)),
        "mpi.rank": rng.integers(0, OFFLINE_RANKS, size=rows),
        "iteration": rng.integers(0, OFFLINE_ITERATIONS, size=rows),
        "function": rng.integers(0, OFFLINE_FUNCTIONS, size=rows),
        "time.duration": rng.lognormal(-9.0, 1.0, size=rows),
    }


def write_offline_file(path: str, cols: dict[str, np.ndarray]) -> None:
    """Write the columns as a ``.rcf`` file with the writer's default chunking."""
    from repro.common.record import Record
    from repro.common.variant import ValueType, Variant
    from repro.io.colfile import DEFAULT_CHUNK_ROWS, ColfileWriter

    kv = [Variant.of(kernel_name(i)) for i in range(OFFLINE_KERNELS)]
    rv = [Variant.of(i) for i in range(OFFLINE_RANKS)]
    iv = [Variant.of(i) for i in range(OFFLINE_ITERATIONS)]
    fv = [Variant.of(function_name(i)) for i in range(OFFLINE_FUNCTIONS)]
    double = ValueType.DOUBLE
    rows = len(cols["kernel"])
    with ColfileWriter(path) as writer:
        for lo in range(0, rows, DEFAULT_CHUNK_ROWS):
            part = slice(lo, lo + DEFAULT_CHUNK_ROWS)
            writer.write_chunk(
                [
                    Record.from_variants(
                        {
                            "kernel": kv[k],
                            "mpi.rank": rv[r],
                            "iteration": iv[i],
                            "function": fv[f],
                            "time.duration": Variant(double, d),
                        }
                    )
                    for k, r, i, f, d in zip(
                        cols["kernel"][part].tolist(),
                        cols["mpi.rank"][part].tolist(),
                        cols["iteration"][part].tolist(),
                        cols["function"][part].tolist(),
                        cols["time.duration"][part].tolist(),
                    )
                ]
            )


_OP_LABEL = {
    "count": "count",
    "sum": "sum#time.duration",
    "min": "min#time.duration",
    "max": "max#time.duration",
    "avg": "avg#time.duration",
}
_STRING_COLUMNS = {"kernel": kernel_name, "function": function_name}


def query_text(spec) -> str:
    ops, where, group_by = spec
    text = "AGGREGATE " + ", ".join(
        op if op == "count" else f"{op}(time.duration)" for op in ops
    )
    if where is not None:
        label, cmp, value = where
        text += f" WHERE {label}{cmp}{value}"
    return text + " GROUP BY " + ", ".join(group_by)


def _where_mask(cols: dict[str, np.ndarray], where) -> np.ndarray:
    label, cmp, value = where
    column = cols[label]
    if label in _STRING_COLUMNS:
        value = int(str(value)[1:])
    compare = {
        "=": np.equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }[cmp]
    return compare(column, value)


def query_oracle(cols: dict[str, np.ndarray], spec) -> dict[tuple, dict[str, float]]:
    """The expected result of one query, computed with numpy.

    Returns ``{group key tuple: {result label: value}}`` with string keys
    rendered as the program renders them.
    """
    ops, where, group_by = spec
    mask = np.ones(len(cols["kernel"]), dtype=bool) if where is None else _where_mask(cols, where)
    keys = [cols[label][mask] for label in group_by]
    dur = cols["time.duration"][mask]
    sizes = [int(k.max()) + 1 for k in keys]
    flat = np.ravel_multi_index(keys, sizes)
    order = np.argsort(flat, kind="stable")
    flat, dur = flat[order], dur[order]
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    counts = np.diff(np.r_[starts, len(flat)])
    values = {
        "count": counts,
        "sum": np.add.reduceat(dur, starts),
        "min": np.minimum.reduceat(dur, starts),
        "max": np.maximum.reduceat(dur, starts),
    }
    values["avg"] = values["sum"] / counts
    out: dict[tuple, dict[str, float]] = {}
    group_codes = np.unravel_index(flat[starts], sizes)
    for g in range(len(starts)):
        key = tuple(
            _STRING_COLUMNS[label](int(codes[g])) if label in _STRING_COLUMNS else int(codes[g])
            for label, codes in zip(group_by, group_codes)
        )
        out[key] = {_OP_LABEL[op]: values[op][g].item() for op in ops}
    return out


def close_enough(got, want, rel: float = 1e-9) -> bool:
    """Exact for integers and strings; relative ``rel`` for floats, whose
    sums depend on summation order."""
    if got == want:
        return True
    if not isinstance(want, float) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= rel * max(abs(want), abs(got))
