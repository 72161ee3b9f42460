"""The asyncio HTTP front end: routes, uploads, backpressure.

Endpoints (all JSON unless noted):

========  =====================  ==========================================
method    path                   behaviour
========  =====================  ==========================================
GET       /healthz               liveness probe
GET       /v1/metrics            queue depth, job/dedupe counters, cache
                                 stats, execution latency percentiles,
                                 simulator backend (native or python)
POST      /v1/traces             RTRC trace upload (raw body, streamed to
                                 disk); 200 with ``trace_id``, 400 for a
                                 malformed trace — nothing partial stored
GET       /v1/traces/<id>        stored-trace metadata
POST      /v1/jobs               submit a job spec; 202 with the job
                                 record, 429 + ``Retry-After`` when the
                                 queue is full, 400 for a bad spec,
                                 404 for an unknown ``trace_id``
GET       /v1/jobs               job summaries (no result payloads)
GET       /v1/jobs/<id>          full job record, result inlined when done
POST      /v1/shutdown           request graceful shutdown
========  =====================  ==========================================

The optional ``X-Tenant`` request header tags jobs for observability.
Uploads are hashed while streaming and verified chunk-by-chunk (CRC) via
:meth:`TraceStore.verify` before the temp file is renamed into place, so
a malformed upload can never leave a partial stored trace.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
import time
import uuid
from pathlib import Path

from repro.cache import default_cache
from repro.profiling.tracestore import TraceFormatError, TraceStore
from repro.serve.codec import JobSpec, SpecError
from repro.serve.http import HttpError, Request, read_request, response_bytes
from repro.serve.jobs import JobManager, QueueFullError, UnknownTraceError

__all__ = ["ServeApp", "TraceRegistry"]

#: Default cap on one trace upload.
MAX_UPLOAD_BYTES = 512 * 1024 * 1024
_UPLOAD_CHUNK = 1 << 20


class TraceRegistry:
    """Content-addressed stored-trace uploads under the spool directory.

    Uploads stream to a ``*.tmp`` sibling while being SHA-256 hashed,
    are structurally verified (header, directory, per-chunk CRC), and
    only then renamed to ``<digest>.trace`` — the same atomic-write
    discipline as the tracestore writer itself. Re-uploads of identical
    bytes dedupe on the digest.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = {"uploads": 0, "dedupe": 0, "rejected": 0, "bytes": 0}

    def path_for(self, trace_id: str) -> Path:
        return self.root / f"{trace_id}.trace"

    def path_if_exists(self, trace_id: str) -> Path | None:
        path = self.path_for(trace_id)
        return path if path.exists() else None

    def info(self, trace_id: str) -> dict | None:
        path = self.path_if_exists(trace_id)
        if path is None:
            return None
        stats = TraceStore(path).stats()
        return {
            "trace_id": trace_id,
            "bytes": stats["bytes"],
            "n_events": stats["n_events"],
            "n_chunks": stats["n_chunks"],
            "compression_ratio": stats["compression_ratio"],
        }

    async def ingest(self, request: Request, *, limit: int = MAX_UPLOAD_BYTES) -> dict:
        """Stream one upload body into the registry; raises
        :class:`HttpError` (400/411/413) without storing anything."""
        length = request.content_length
        if length <= 0:
            self.stats["rejected"] += 1
            raise HttpError(411, "trace upload requires a non-empty body")
        if length > limit:
            self.stats["rejected"] += 1
            raise HttpError(413, f"trace upload of {length} bytes exceeds {limit}")
        tmp = self.root / f"upload-{uuid.uuid4().hex}.tmp"
        digest = hashlib.sha256()
        remaining = length
        try:
            with open(tmp, "wb") as fh:
                while remaining:
                    chunk = await request.reader.read(min(_UPLOAD_CHUNK, remaining))
                    if not chunk:
                        raise HttpError(400, "truncated trace upload")
                    digest.update(chunk)
                    fh.write(chunk)
                    remaining -= len(chunk)
            try:
                await asyncio.to_thread(TraceStore(tmp).verify, True)
            except TraceFormatError as exc:
                raise HttpError(400, f"not a valid RTRC trace: {exc}") from exc
            trace_id = digest.hexdigest()[:40]
            final = self.path_for(trace_id)
            deduped = final.exists()
            if deduped:
                self.stats["dedupe"] += 1
                tmp.unlink(missing_ok=True)
            else:
                os.replace(tmp, final)
                self.stats["uploads"] += 1
                self.stats["bytes"] += length
            return {"deduped": deduped, **self.info(trace_id)}
        except BaseException:
            tmp.unlink(missing_ok=True)
            self.stats["rejected"] += 1
            raise


class ServeApp:
    """Wires the HTTP routes onto a :class:`JobManager` and registry."""

    def __init__(
        self,
        *,
        spool: Path | str | None = None,
        queue_limit: int = 16,
        workers: int = 2,
        engine_jobs: int = 1,
        retries: int = 2,
        task_timeout: float | None = None,
        max_upload_bytes: int = MAX_UPLOAD_BYTES,
        cache=None,
        execute_fn=None,
    ) -> None:
        self.spool = Path(spool) if spool is not None else Path(
            tempfile.mkdtemp(prefix="repro-serve-")
        )
        self.spool.mkdir(parents=True, exist_ok=True)
        self.max_upload_bytes = max_upload_bytes
        self._cache = cache if cache is not None else default_cache()
        self.traces = TraceRegistry(self.spool / "traces")
        self.manager = JobManager(
            self.spool,
            queue_limit=queue_limit,
            workers=workers,
            engine_jobs=engine_jobs,
            retries=retries,
            task_timeout=task_timeout,
            trace_path_for=self.traces.path_if_exists,
            cache=self._cache,
            execute_fn=execute_fn,
        )
        self._shutdown = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._t0 = time.monotonic()
        self.request_count = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.base_events.Server:
        """Bind and start serving; returns the listening server."""
        await self.manager.start()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                self.request_count += 1
                status, body, extra = await self._route(request)
            except HttpError as exc:
                status, body, extra = exc.status, {"error": exc.message}, None
            except SpecError as exc:
                status, body, extra = 400, {"error": str(exc)}, None
            except UnknownTraceError as exc:
                status, body, extra = 404, {"error": f"unknown trace_id {exc.trace_id!r}"}, None
            except QueueFullError as exc:
                status = 429
                body = {
                    "error": str(exc),
                    "queue": {"depth": exc.depth, "limit": exc.limit},
                }
                extra = {"Retry-After": "1"}
            except Exception as exc:  # never let a handler kill the server
                status, body, extra = 500, {"error": f"internal error: {exc!r}"}, None
            writer.write(response_bytes(status, body, extra_headers=extra))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, BrokenPipeError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # -- routing ---------------------------------------------------------

    async def _route(self, request: Request) -> tuple[int, dict, dict | None]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "uptime_seconds": time.monotonic() - self._t0}, None
        if path == "/v1/metrics" and method == "GET":
            return 200, self.metrics(), None
        if path == "/v1/traces" and method == "POST":
            meta = await self.traces.ingest(request, limit=self.max_upload_bytes)
            return 200, meta, None
        if path.startswith("/v1/traces/") and method == "GET":
            trace_id = path.rsplit("/", 1)[1]
            info = self.traces.info(trace_id)
            if info is None:
                raise HttpError(404, f"unknown trace_id {trace_id!r}")
            return 200, info, None
        if path == "/v1/jobs" and method == "POST":
            spec = JobSpec.from_dict(await request.json())
            job = self.manager.submit(spec, tenant=request.headers.get("x-tenant"))
            return 202, job.public(include_result=False), None
        if path == "/v1/jobs" and method == "GET":
            return 200, {
                "jobs": [
                    job.public(include_result=False)
                    for _, job in sorted(self.manager.jobs.items())
                ]
            }, None
        if path.startswith("/v1/jobs/") and method == "GET":
            job_id = path.rsplit("/", 1)[1]
            job = self.manager.jobs.get(job_id)
            if job is None:
                raise HttpError(404, f"unknown job {job_id!r}")
            return 200, job.public(), None
        if path == "/v1/shutdown" and method == "POST":
            await request.body()  # consume any (empty) body politely
            self._shutdown.set()
            return 200, {"status": "shutting down"}, None
        known = {"/healthz", "/v1/metrics", "/v1/traces", "/v1/jobs", "/v1/shutdown"}
        if path in known or path.startswith(("/v1/traces/", "/v1/jobs/")):
            raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no route for {path}")

    # -- observability ---------------------------------------------------

    def metrics(self) -> dict:
        doc = self.manager.metrics()
        doc["uptime_seconds"] = time.monotonic() - self._t0
        doc["requests"] = self.request_count
        doc["traces"] = dict(self.traces.stats)
        return doc
