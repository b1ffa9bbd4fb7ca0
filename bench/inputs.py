"""Seeded inputs of the benchmark: dataset, event stream, query samples.

Everything the program receives is generated here from ``--seed``; the
program itself never sees the seed.  One dataset per seed (``syn-3k``, or
``syn-300`` under ``--smoke``) is shared by all four workloads so their
numbers describe the same index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.experiments.workloads import syn_config
from repro.mobility.hierarchical import generate_synthetic_dataset
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance

#: Engine settings as users get them, except the signature width.
NUM_HASHES = 512
K = 10
#: Closed-loop client connections against a daemon (= cores of the host the
#: benchmark was sized on; fixed so every host answers the same traffic).
CLIENTS = 2
#: Events per ``POST /v1/events`` batch (= the daemon's ``--batch-size``).
EVENT_BATCH = 64
#: Stream batches the ``ingest-mixed`` writer never sends; the write-path
#: probes of the traced run ingest them instead.
PROBE_BATCHES = 4
#: Hot-set size and Zipf exponent of ``serve-hot``.
HOT_SET = 64
ZIPF_EXPONENT = 1.1
#: Queries whose answers are scored against brute force for ``recall_at_k``.
RECALL_SAMPLE = 40
#: Query samples are drawn in rounds of one entity per trace-length stratum:
#: per-query cost follows the query's trace length (r = 0.9 on this
#: generator), so any prefix of the sample -- however many queries fit in
#: the timed phase -- covers cheap and expensive queries in the population's
#: proportions.
STRATA = 32


@dataclass(frozen=True)
class Scale:
    """Dataset size knobs; ``FULL`` is the benchmark, ``SMOKE`` its self-test."""

    name: str
    entities: int
    held_out: int
    pool: int  # distinct query entities a daemon workload cycles through
    setups: int  # set-ups per untraced run; the median is reported as ``setup_s``


FULL = Scale(name="syn-3k", entities=3000, held_out=8192, pool=192, setups=3)
SMOKE = Scale(name="syn-300", entities=300, held_out=1024, pool=48, setups=1)


def generate_dataset(seed: int, scale: Scale) -> TraceDataset:
    """The SYN dataset of ``scale`` for ``seed`` (horizon 168, 16x16 grid)."""
    config = syn_config(
        None, num_entities=scale.entities, horizon=168, grid_side=16, seed=seed
    )
    dataset, _config = generate_synthetic_dataset(config)
    return dataset


def cold_copy(dataset: TraceDataset) -> TraceDataset:
    """The same traces in a new dataset object, with none of its lazy caches.

    A build over a dataset that was built over before skips the per-entity
    cell-sequence work; set-up is timed on a cold copy, as a user's first
    build is.
    """
    copy = TraceDataset(dataset.hierarchy, horizon=dataset.horizon)
    copy.extend(presence for entity in dataset.entities for presence in dataset.trace(entity))
    return copy


def split_stream(
    dataset: TraceDataset, held_out: int
) -> Tuple[TraceDataset, List[PresenceInstance]]:
    """Hold out the time-ordered last ``held_out`` presences as an event stream.

    Returns the dataset without them (what ``ingest-mixed`` starts from) and
    the stream in arrival order.
    """
    presences = sorted(
        (presence for entity in dataset.entities for presence in dataset.trace(entity)),
        key=lambda p: (p.end, p.start, p.entity, p.unit),
    )
    kept, stream = presences[:-held_out], presences[-held_out:]
    base = TraceDataset(dataset.hierarchy, horizon=dataset.horizon)
    base.extend(kept)
    return base, stream


def stratified_rounds(
    dataset: TraceDataset, entities: Sequence[str], rng: random.Random
) -> Iterator[str]:
    """Endless query sample: rounds of one entity per trace-length stratum."""
    ordered = sorted(entities, key=lambda entity: (len(dataset.trace(entity)), entity))
    strata = min(STRATA, len(ordered))
    bounds = [len(ordered) * index // strata for index in range(strata + 1)]
    while True:
        picks = [
            ordered[rng.randrange(bounds[index], bounds[index + 1])]
            for index in range(strata)
        ]
        rng.shuffle(picks)
        yield from picks


def distinct_sample(
    dataset: TraceDataset, entities: Sequence[str], count: int, rng: random.Random
) -> List[str]:
    """The first ``count`` distinct entities of :func:`stratified_rounds`."""
    count = min(count, len(entities))
    seen = {}
    for entity in stratified_rounds(dataset, entities, rng):
        seen.setdefault(entity, None)
        if len(seen) == count:
            return list(seen)
    raise AssertionError("unreachable: the rounds are endless")


def zipf_draws(hot: Sequence[str], count: int, rng: random.Random) -> List[str]:
    """``count`` draws from ``hot`` with probability ~ 1 / rank ** 1.1."""
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(hot) + 1)]
    return rng.choices(list(hot), weights=weights, k=count)


def event_batches(stream: Sequence[PresenceInstance]) -> List[List[dict]]:
    """The stream as ``POST /v1/events`` bodies' event lists, 64 per batch."""
    return [
        [
            {"entity": p.entity, "unit": p.unit, "start": p.start, "end": p.end}
            for p in stream[offset : offset + EVENT_BATCH]
        ]
        for offset in range(0, len(stream) - EVENT_BATCH + 1, EVENT_BATCH)
    ]
