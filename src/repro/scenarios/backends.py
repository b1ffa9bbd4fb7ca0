"""Backend adapters the scenario runner replays against.

Each adapter wraps one deployment shape of the same engine behind a tiny
uniform surface -- ``start`` (build the index over the initial dataset),
``ingest`` (replay one churn micro-batch, flushed), ``query`` (one top-k
lookup returning ``(entity, score)`` pairs), ``close`` -- so the runner
can score every deployment against the same brute-force ground truth:

* ``in_process`` -- a :class:`~repro.core.engine.TraceQueryEngine` driven
  directly, churn through an :class:`~repro.streaming.EventIngestor`;
* ``sharded`` -- a two-shard :class:`~repro.service.sharded.ShardedEngine`
  behind the same ingestor;
* ``http`` -- a real :class:`~repro.server.app.TraceServer` behind a live
  ``ThreadingHTTPServer`` on an ephemeral port, exercised over actual HTTP
  (``POST /v1/topk`` / ``POST /v1/events``);
* ``http_workers`` -- the multi-process tier: the same server with
  :func:`~repro.server.frontend.worker_tier` plugged in (two query worker
  processes over mmap'd snapshot generations), behind the same HTTP surface;
* ``cluster`` -- the chaos backend: the distributed tier
  (:func:`~repro.cluster.frontend.cluster_tier`, 2 shard groups x 2
  shard-server replicas) behind HTTP, with one replica per group
  SIGKILLed mid-scenario -- exactness under faults, scored by the same
  oracle.

The HTTP adapters go through real sockets and JSON on purpose: scenario
accuracy then covers serialisation, routing, the coalescer, and (for
``http_workers``) generation publishing -- not just the engine.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import TraceQueryEngine
from repro.measures.adm import HierarchicalADM
from repro.scenarios.spec import ChurnProfile, EngineProfile
from repro.server.httpclient import HttpClientError, JsonHttpClient
from repro.service.sharded import ShardedEngine
from repro.streaming.ingestor import EventIngestor, StreamingConfig
from repro.traces.dataset import TraceDataset
from repro.traces.events import PresenceInstance

__all__ = [
    "BACKENDS",
    "ClusterBackend",
    "DEFAULT_BACKENDS",
    "HttpBackend",
    "InProcessBackend",
    "ScenarioBackend",
    "ShardedBackend",
    "make_backend",
]

TopKItems = List[Tuple[str, float]]


def _measure_for(dataset: TraceDataset, engine: EngineProfile) -> HierarchicalADM:
    """The scenario's association measure over this dataset's hierarchy."""
    return HierarchicalADM(num_levels=dataset.num_levels, u=engine.u, v=engine.v)


def _streaming_config(churn: ChurnProfile) -> StreamingConfig:
    """The ingest configuration every backend replays churn under."""
    return StreamingConfig(
        max_batch_events=churn.batch_size,
        window=churn.window,
        compact_after=churn.compact_after,
    )


class ScenarioBackend:
    """Base adapter: build, replay churn, answer queries, tear down.

    Subclasses implement :meth:`start`, :meth:`query`, and (for deployments
    owning external resources) :meth:`close`; the ingestor-based default of
    :meth:`ingest` covers the in-process adapters.
    """

    #: Registry key and report label.
    name = "abstract"

    def __init__(self) -> None:
        self._ingestor: Optional[EventIngestor] = None

    def start(
        self,
        dataset: TraceDataset,
        engine: EngineProfile,
        churn: ChurnProfile,
    ) -> None:
        """Build the deployment over a fresh copy of the initial dataset."""
        raise NotImplementedError

    def ingest(self, chunk: Sequence[PresenceInstance]) -> None:
        """Replay one churn micro-batch and flush it into the index."""
        assert self._ingestor is not None, "start() must run before ingest()"
        self._ingestor.extend(chunk)
        self._ingestor.flush()

    def query(self, entity: str, k: int) -> TopKItems:
        """One top-k lookup, returning ``(entity, score)`` pairs in rank order."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Optional backend-shape facts for the report (may be empty)."""
        return {}

    def close(self) -> None:
        """Release any resources the deployment owns."""
        if self._ingestor is not None:
            self._ingestor.close()
            self._ingestor = None


class InProcessBackend(ScenarioBackend):
    """The engine driven directly -- the library-embedding deployment."""

    name = "in_process"

    def __init__(self) -> None:
        super().__init__()
        self.engine: Optional[TraceQueryEngine] = None

    def start(
        self,
        dataset: TraceDataset,
        engine: EngineProfile,
        churn: ChurnProfile,
    ) -> None:
        """Build the engine and attach the windowed ingestor."""
        self.engine = TraceQueryEngine(
            dataset,
            _measure_for(dataset, engine),
            num_hashes=engine.num_hashes,
            seed=engine.seed,
            bound_mode=engine.bound_mode,
        ).build()
        self._ingestor = EventIngestor(self.engine, config=_streaming_config(churn))

    def query(self, entity: str, k: int) -> TopKItems:
        """Direct ``top_k`` call on the engine."""
        assert self.engine is not None
        return list(self.engine.top_k(entity, k=k).items)

    def stats(self) -> Dict[str, object]:
        """Deployment shape facts for the report."""
        assert self.engine is not None
        return {"deployment": "in_process", "num_entities": self.engine.dataset.num_entities}


class ShardedBackend(ScenarioBackend):
    """A two-shard :class:`ShardedEngine` behind the same ingest surface."""

    name = "sharded"

    def __init__(self, num_shards: int = 2) -> None:
        super().__init__()
        self.num_shards = num_shards
        self.engine: Optional[ShardedEngine] = None

    def start(
        self,
        dataset: TraceDataset,
        engine: EngineProfile,
        churn: ChurnProfile,
    ) -> None:
        """Build the sharded fleet and attach the windowed ingestor."""
        self.engine = ShardedEngine(
            dataset,
            _measure_for(dataset, engine),
            num_shards=self.num_shards,
            num_hashes=engine.num_hashes,
            seed=engine.seed,
            bound_mode=engine.bound_mode,
        ).build()
        self._ingestor = EventIngestor(self.engine, config=_streaming_config(churn))

    def query(self, entity: str, k: int) -> TopKItems:
        """Fan-out ``top_k`` over the shards, merged by the fleet."""
        assert self.engine is not None
        return list(self.engine.top_k(entity, k=k).items)

    def stats(self) -> Dict[str, object]:
        """Deployment shape facts for the report."""
        assert self.engine is not None
        return {"deployment": "sharded", "num_shards": self.engine.num_shards}


class HttpBackend(ScenarioBackend):
    """A live HTTP daemon on an ephemeral port, exercised over real sockets.

    ``workers=0`` runs the single-process :class:`TraceServer`;
    ``workers>=1`` plugs in :func:`~repro.server.frontend.worker_tier` (N
    query worker processes over mmap'd snapshot generations).  Either way,
    ingest and queries travel as JSON over HTTP -- the adapter is an honest
    client.
    """

    name = "http"

    def __init__(
        self,
        workers: int = 0,
        connect_timeout: float = 10.0,
        read_timeout: float = 60.0,
    ) -> None:
        super().__init__()
        self.workers = workers
        if workers:
            self.name = "http_workers"
        #: Client discipline (see :class:`~repro.server.httpclient.JsonHttpClient`):
        #: explicit connect/read budgets plus one retry on a reset connection.
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self._trace_server = None
        self._httpd = None
        self._thread: Optional[threading.Thread] = None
        self._address: Optional[Tuple[str, int]] = None

    def start(
        self,
        dataset: TraceDataset,
        engine: EngineProfile,
        churn: ChurnProfile,
    ) -> None:
        """Build the daemon and bind it to an ephemeral localhost port."""
        from repro.server.app import TraceServer, build_http_server

        built, tier = self._engine_and_tier(dataset, engine)
        self._trace_server = TraceServer(
            built, streaming=_streaming_config(churn), **tier
        )
        self._httpd = build_http_server(self._trace_server, host="127.0.0.1", port=0)
        self._address = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=f"scenario-{self.name}", daemon=True
        )
        self._thread.start()

    def _engine_and_tier(self, dataset: TraceDataset, engine: EngineProfile):
        """The built engine plus the ``TraceServer`` parts of this tier."""
        from repro.server.frontend import worker_tier

        built = TraceQueryEngine(
            dataset,
            _measure_for(dataset, engine),
            num_hashes=engine.num_hashes,
            seed=engine.seed,
            bound_mode=engine.bound_mode,
        ).build()
        return built, worker_tier(built, workers=self.workers) if self.workers else {}

    # ------------------------------------------------------------------
    # HTTP client plumbing
    # ------------------------------------------------------------------
    def _post(self, path: str, payload: Dict[str, object]) -> Dict[str, object]:
        assert self._address is not None, "start() must run before requests"
        host, port = self._address
        client = JsonHttpClient(
            host,
            port,
            connect_timeout=self.connect_timeout,
            read_timeout=self.read_timeout,
        )
        try:
            return client.post_json(path, payload)
        except HttpClientError as exc:
            raise RuntimeError(f"{self.name} backend: POST {path} failed: {exc}") from exc

    def ingest(self, chunk: Sequence[PresenceInstance]) -> None:
        """``POST /v1/events`` with an explicit flush."""
        events = [
            {"entity": e.entity, "unit": e.unit, "start": e.start, "end": e.end}
            for e in chunk
        ]
        self._post("/v1/events", {"events": events, "flush": True})

    def query(self, entity: str, k: int) -> TopKItems:
        """``POST /v1/topk`` (single form), decoded from the JSON body."""
        payload = self._post("/v1/topk", {"entity": entity, "k": k})
        return [(item["entity"], item["score"]) for item in payload["results"]]

    def stats(self) -> Dict[str, object]:
        """Deployment shape facts, including the published generation."""
        deployment = "http_workers" if self.workers else "http"
        facts: Dict[str, object] = {"deployment": deployment, "workers": self.workers}
        if self._trace_server is not None and self.workers:
            facts["generation"] = self._trace_server.publisher.store.generation
        return facts

    def close(self) -> None:
        """Stop the HTTP loop, then the daemon (workers, stores, ingestor)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        if self._trace_server is not None:
            self._trace_server.close()
            self._trace_server = None
        self._address = None


class ClusterBackend(HttpBackend):
    """The distributed tier under fault injection -- the chaos backend.

    A 2-shard x 2-replica :func:`~repro.cluster.frontend.cluster_tier`
    (real shard-server subprocesses, stable-hash placement) behind
    the same HTTP surface.  After the first churn micro-batch one replica
    per group is SIGKILLed mid-scenario; the supervisor respawns it with
    catch-up verification while queries keep flowing.  The runner's
    oracle scoring therefore asserts the distributed tier's core claim:
    crashes with a surviving replica never change an answer.
    """

    name = "cluster"

    def __init__(
        self,
        num_shards: int = 2,
        replication: int = 2,
        chaos: bool = True,
        connect_timeout: float = 10.0,
        read_timeout: float = 60.0,
    ) -> None:
        super().__init__(
            workers=0, connect_timeout=connect_timeout, read_timeout=read_timeout
        )
        self.name = "cluster"
        self.num_shards = num_shards
        self.replication = replication
        self.chaos = chaos
        self._chunks_ingested = 0
        self._killed: List[str] = []

    def _engine_and_tier(self, dataset: TraceDataset, engine: EngineProfile):
        """A sharded engine plus the cluster parts over it."""
        from repro.cluster.frontend import cluster_tier

        built = ShardedEngine(
            dataset,
            _measure_for(dataset, engine),
            num_shards=self.num_shards,
            num_hashes=engine.num_hashes,
            seed=engine.seed,
            bound_mode=engine.bound_mode,
        ).build()
        return built, cluster_tier(built, replication=self.replication)

    def ingest(self, chunk: Sequence[PresenceInstance]) -> None:
        """Replay churn over HTTP; inject the crash after the first chunk."""
        super().ingest(chunk)
        self._chunks_ingested += 1
        if self.chaos and self._chunks_ingested == 1 and self.replication > 1:
            from repro.cluster.chaos import ChaosController

            self._killed = ChaosController(
                self._trace_server.backend
            ).kill_one_per_group()

    def stats(self) -> Dict[str, object]:
        """Deployment shape plus the faults injected and recovery counters."""
        facts: Dict[str, object] = {
            "deployment": "cluster",
            "num_shards": self.num_shards,
            "replication": self.replication,
            "replicas_killed": list(self._killed),
        }
        if self._trace_server is not None:
            supervisor = self._trace_server.backend.supervisor.snapshot()
            coordinator = self._trace_server.backend.coordinator.snapshot()
            facts["respawns"] = sum(supervisor["respawns"].values())
            facts["degraded_queries"] = coordinator["counters"]["degraded_queries"]
        return facts


#: Named backend factories the runner and CLI resolve against.
BACKENDS: Dict[str, Callable[[], ScenarioBackend]] = {
    "in_process": InProcessBackend,
    "sharded": ShardedBackend,
    "http": HttpBackend,
    "http_workers": lambda: HttpBackend(workers=2),
    "cluster": ClusterBackend,
}

#: The set ``repro scenario run`` exercises when ``--backends`` is omitted:
#: one of each layer (library embedding, sharded service, multi-process HTTP).
DEFAULT_BACKENDS: Tuple[str, ...] = ("in_process", "sharded", "http_workers")


def make_backend(name: str) -> ScenarioBackend:
    """Instantiate one backend adapter by registry name."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return factory()
