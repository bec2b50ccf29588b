"""The sweep coordinator: leased remote dispatch with local fallback.

:class:`DistCoordinator` shards one figure batch across pull-based
remote workers (``repro work``) while the figure process keeps sole
ownership of the journal and the figure pipeline:

- **Event-loop-in-a-thread.**  The coordinator runs a private asyncio
  loop on a daemon thread; every piece of mutable state (lease table,
  payloads, mode) is touched only from that loop, so the layer needs no
  locks at all.  The figure thread talks to it through exactly one
  bridge — :meth:`execute_batch` submits a coroutine and blocks on its
  future, which is also what serializes batches.
- **Leases, not assignments.**  Workers pull cells as deadline-bounded
  leases and renew them by heartbeat.  A partitioned or dead worker's
  lease expires and the cell is re-queued — never lost.  Results are
  accepted **by spec fingerprint, first-write-wins**: a late result
  from an expired lease still lands once, a second identical result is
  a ``dist.duplicate``, and a *divergent* second result is a
  ``dist.conflict`` (HTTP 409) that keeps the first — journal dedupe by
  fingerprint is the idempotency key, and the journal itself is only
  written once per spec, in spec order, by the figure process's
  deterministic merge.
- **Graceful degradation to local.**  Cells the wire grammar cannot
  express, cells whose lease-attempt budget is exhausted, and — after
  ``local_grace_seconds`` without any worker contact — the whole batch,
  all run locally in the coordinator process.  The ``remote → local``
  mode switch is one-way: a batch never flaps between dispatch strategies.

Integrity: every streamed result carries
:func:`~repro.runstate.serialize.integrity_hash` over its payload; a
mismatch is rejected (HTTP 400) before it can reach the journal.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from collections import deque
from typing import Any, Optional, Sequence

from ..errors import DistError
from ..obs.events import validate_events
from ..obs.tracer import Tracer
from ..runstate.serialize import (
    canonical_json,
    decode_result,
    encode_result,
    integrity_hash,
)
from .config import DistConfig
from .http import Response, _read_request, _render_response
from .lease import LeaseTable
from .wire import encode_cell

MODE_REMOTE = "remote"
MODE_LOCAL = "local"


class _Batch:
    """Loop-owned state of one in-flight ``execute_batch`` call."""

    def __init__(self, table: LeaseTable, spec_order: list[str],
                 cells_by_spec: dict[str, tuple]) -> None:
        self.table = table
        self.spec_order = spec_order
        self.cells_by_spec = cells_by_spec
        self.done_event = asyncio.Event()
        self.error: Optional[BaseException] = None


class DistCoordinator:
    """See module docstring.

    Args:
        runner: the figure's :class:`~repro.experiments.harness
            .ExperimentRunner`; the coordinator never journals through
            it — it only computes fingerprints and runs local-fallback
            cells via ``_execute_cell`` (cache- and journal-free).
        config: a :class:`~repro.dist.config.DistConfig`.
    """

    def __init__(self, runner: Any, config: DistConfig) -> None:
        self.runner = runner
        self.config = config
        self.mode = MODE_REMOTE
        self.events: deque[dict[str, Any]] = deque(maxlen=512)
        self._logical = 0
        self.tracer = Tracer(clock=lambda: self._logical)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._batch: Optional[_Batch] = None
        self._payloads: dict[str, dict] = {}
        self._settings: Optional[dict[str, Any]] = None
        self._workers_seen: set[str] = set()
        self._last_contact = 0.0
        self._draining = False
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="dist-local"
        )

    # ------------------------------------------------------------------
    # Lifecycle (called from the figure thread)
    # ------------------------------------------------------------------

    def start(self, timeout: float = 10.0) -> "DistCoordinator":
        """Bind the listening socket and start the loop thread."""
        self._thread = threading.Thread(
            target=self._thread_main, name="dist-coordinator", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise DistError("coordinator did not start in time")
        if self._startup_error is not None:
            raise DistError(
                f"coordinator failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Stop serving and join the loop thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._request_stop(), loop
                ).result(timeout=10.0)
            except (concurrent.futures.TimeoutError, RuntimeError):
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=True)

    def drain(self) -> None:
        """Tell pulling workers the sweep is over (`{"done": true}`)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._set_draining(), loop
            ).result(timeout=10.0)

    def execute_batch(self, cells: Sequence[tuple]) -> list[Any]:
        """Run a batch of cells, returning results aligned with
        ``cells`` — the runner's ``dist_executor`` hook.

        Blocks the calling (figure) thread until every cell has a
        result, however it was obtained (remote lease or local
        fallback).
        """
        cells = list(cells)
        if not cells:
            return []
        loop = self._loop
        if loop is None or not loop.is_running():
            raise DistError("coordinator is not running")
        future = asyncio.run_coroutine_threadsafe(
            self._execute_batch(cells), loop
        )
        return future.result()

    def drain_events(self) -> list[dict[str, Any]]:
        """The coordinator's ``dist.*`` event log so far (copy)."""
        return list(self.events)

    # ------------------------------------------------------------------
    # Loop thread
    # ------------------------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:
            self._startup_error = error
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._last_contact = self._loop.time()
        if self.config.socket_path:
            server = await asyncio.start_unix_server(
                self._handle, path=self.config.socket_path
            )
        else:
            server = await asyncio.start_server(
                self._handle, host=self.config.host, port=self.config.port
            )
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()

    async def _request_stop(self) -> None:
        assert self._stop_event is not None
        self._stop_event.set()

    async def _set_draining(self) -> None:
        self._draining = True

    def _emit(self, name: str, **fields: Any) -> None:
        self._logical += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(name, **fields)
            self.events.extend(tracer.drain())

    def _touch(self) -> None:
        assert self._loop is not None
        self._last_contact = self._loop.time()

    def _set_mode(self, to_mode: str, reason: str) -> None:
        if self.mode == to_mode:
            return
        self._emit(
            "dist.mode", from_mode=self.mode, to_mode=to_mode,
            reason=reason,
        )
        self.mode = to_mode

    # ------------------------------------------------------------------
    # Batch execution (loop thread)
    # ------------------------------------------------------------------

    async def _execute_batch(self, cells: list[tuple]) -> list[Any]:
        if self._batch is not None:
            raise DistError("a batch is already executing")
        runner = self.runner
        if self._settings is None:
            self._settings = self.config.worker_settings(runner)
        spec_order: list[str] = []
        cells_by_spec: dict[str, tuple] = {}
        tasks: dict[str, dict] = {}
        inexpressible: list[str] = []
        for cell in cells:
            spec = runner.cell_spec(*cell)
            spec_order.append(spec)
            if spec in cells_by_spec:
                continue
            cells_by_spec[spec] = cell
            task = encode_cell(runner, cell)
            if task is None:
                tasks[spec] = {}
                inexpressible.append(spec)
            else:
                tasks[spec] = task
        table = LeaseTable(
            tasks,
            lease_seconds=self.config.lease_seconds,
            max_attempts=self.config.max_lease_attempts,
        )
        batch = _Batch(table, spec_order, cells_by_spec)
        self._batch = batch
        self._touch()
        scan = asyncio.ensure_future(self._scan_loop(batch))
        try:
            for spec in inexpressible:
                self._start_local(batch, spec, "not-wire-expressible")
            if self.mode == MODE_LOCAL:
                for spec in list(table.remote_specs()):
                    self._start_local(batch, spec, "coordinator-local-mode")
            self._check_done(batch)
            await batch.done_event.wait()
        finally:
            scan.cancel()
            self._batch = None
        if batch.error is not None:
            raise batch.error
        return [
            decode_result(self._payloads[spec]) for spec in spec_order
        ]

    async def _scan_loop(self, batch: _Batch) -> None:
        interval = max(0.02, min(0.25, self.config.lease_seconds / 4))
        while True:
            await asyncio.sleep(interval)
            assert self._loop is not None
            now = self._loop.time()
            for lease in batch.table.expire(now):
                self._emit(
                    "dist.lease.expire", spec=lease.spec,
                    worker=lease.worker, attempt=lease.attempt,
                )
                if (
                    lease.spec not in batch.table.completed
                    and batch.table.exhausted(lease.spec)
                ):
                    self._start_local(batch, lease.spec, "lease-exhausted")
            if (
                self.mode == MODE_REMOTE
                and batch.table.remote_remaining
                and now - self._last_contact
                > self.config.local_grace_seconds
            ):
                self._set_mode(MODE_LOCAL, "no-worker-contact")
                for spec in list(batch.table.remote_specs()):
                    self._start_local(batch, spec, "no-worker-contact")

    def _start_local(self, batch: _Batch, spec: str, reason: str) -> None:
        if not batch.table.claim_local(spec):
            return
        self._emit("dist.local", spec=spec, reason=reason)
        asyncio.ensure_future(self._run_local(batch, spec))

    async def _run_local(self, batch: _Batch, spec: str) -> None:
        assert self._loop is not None
        cell = batch.cells_by_spec[spec]
        try:
            payload = await self._loop.run_in_executor(
                self._executor, self._execute_local, cell
            )
        except BaseException as error:
            batch.error = error
            batch.done_event.set()
            return
        self._accept(batch, spec, "local", payload)

    def _execute_local(self, cell: tuple) -> dict:
        # Runs on the single-thread executor — the only thread that
        # touches the runner while a batch is in flight (the figure
        # thread is blocked in execute_batch, the loop thread only
        # computes pure fingerprints).
        outcome = self.runner._execute_cell(*cell)
        return encode_result(outcome)

    def _accept(
        self, batch: _Batch, spec: str, worker: str, payload: dict
    ) -> str:
        if not batch.table.complete(spec):
            existing = self._payloads.get(spec)
            if existing is not None and (
                canonical_json(existing) == canonical_json(payload)
            ):
                self._emit("dist.duplicate", spec=spec, worker=worker)
                return "duplicate"
            self._emit("dist.conflict", spec=spec, worker=worker)
            return "conflict"
        self._payloads[spec] = payload
        self._emit("dist.result", spec=spec, worker=worker)
        self._check_done(batch)
        return "accepted"

    def _check_done(self, batch: _Batch) -> None:
        if batch.table.done:
            batch.done_event.set()

    # ------------------------------------------------------------------
    # HTTP endpoints (loop thread; wire format in repro.dist.http)
    # ------------------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            parsed = await _read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            response = self._route(method, path, body)
            writer.write(_render_response(response))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    def _route(self, method: str, path: str, body: bytes) -> Response:
        if path == "/v1/healthz" and method == "GET":
            return Response(
                status=200, body={"ok": True, "role": "coordinator"}
            )
        if path == "/v1/dist/status" and method == "GET":
            return Response(status=200, body=self._status())
        if path in (
            "/v1/dist/lease", "/v1/dist/renew", "/v1/dist/complete"
        ):
            if method != "POST":
                return Response(
                    status=405, body={"error": "method not allowed"}
                )
            try:
                payload = json.loads(body.decode("utf-8") or "{}")
            except (ValueError, UnicodeDecodeError):
                return Response(
                    status=400, body={"error": "body must be JSON"}
                )
            if not isinstance(payload, dict):
                return Response(
                    status=400, body={"error": "body must be a JSON object"}
                )
            if path == "/v1/dist/lease":
                return self._handle_lease(payload)
            if path == "/v1/dist/renew":
                return self._handle_renew(payload)
            return self._handle_complete(payload)
        return Response(status=404, body={"error": f"no route {path!r}"})

    def _status(self) -> dict[str, Any]:
        batch = self._batch
        events = list(self.events)
        return {
            "role": "coordinator",
            "mode": self.mode,
            "draining": self._draining,
            "pending": len(batch.table.pending) if batch else 0,
            "active": len(batch.table.active) if batch else 0,
            "completed": len(batch.table.completed) if batch else 0,
            "total": len(batch.table.tasks) if batch else 0,
            "workers": sorted(self._workers_seen),
            "events": events,
            "schema_problems": validate_events(events),
        }

    def _handle_lease(self, payload: dict) -> Response:
        worker = str(payload.get("worker") or "anonymous")
        self._workers_seen.add(worker)
        self._touch()
        if self._draining or self.mode == MODE_LOCAL:
            return Response(status=200, body={"done": True})
        batch = self._batch
        idle = Response(
            status=200,
            body={
                "done": False,
                "task": None,
                "retry_after": self.config.poll_retry_after,
            },
        )
        if batch is None:
            return idle
        assert self._loop is not None
        lease = batch.table.lease(
            worker, self._loop.time()
        )
        if lease is None:
            return idle
        self._emit(
            "dist.lease.grant", spec=lease.spec, worker=worker,
            attempt=lease.attempt,
        )
        task = dict(lease.task)
        task.update(
            lease_id=lease.lease_id,
            lease_seconds=self.config.lease_seconds,
            settings=self._settings,
        )
        return Response(status=200, body={"done": False, "task": task})

    def _handle_renew(self, payload: dict) -> Response:
        worker = str(payload.get("worker") or "anonymous")
        lease_id = str(payload.get("lease_id") or "")
        self._touch()
        batch = self._batch
        if batch is None:
            return Response(status=200, body={"ok": False})
        assert self._loop is not None
        lease = batch.table.renew(
            lease_id, self._loop.time()
        )
        if lease is None:
            return Response(status=200, body={"ok": False})
        self._emit("dist.lease.renew", spec=lease.spec, worker=worker)
        return Response(status=200, body={"ok": True})

    def _handle_complete(self, payload: dict) -> Response:
        worker = str(payload.get("worker") or "anonymous")
        spec = str(payload.get("spec") or "")
        self._touch()
        batch = self._batch
        if payload.get("mismatch"):
            # The worker's reconstructed runner computed a different
            # fingerprint: the cell is not reproducible remotely under
            # the shipped settings — run it here instead of re-leasing
            # it into the same mismatch forever.
            if (
                batch is not None
                and spec in batch.table.tasks
                and spec not in batch.table.completed
            ):
                self._start_local(batch, spec, "spec-mismatch")
            return Response(status=200, body={"status": "local"})
        result = payload.get("payload")
        integrity = payload.get("integrity")
        if not isinstance(result, dict) or not spec:
            return Response(
                status=400, body={"error": "malformed completion"}
            )
        if integrity != integrity_hash(result):
            return Response(
                status=400,
                body={"error": "integrity-mismatch", "spec": spec},
            )
        if batch is None or spec not in batch.table.tasks:
            known = self._payloads.get(spec)
            if known is not None:
                if canonical_json(known) == canonical_json(result):
                    self._emit("dist.duplicate", spec=spec, worker=worker)
                    return Response(
                        status=200,
                        body={"status": "duplicate", "spec": spec},
                    )
                self._emit("dist.conflict", spec=spec, worker=worker)
                return Response(
                    status=409, body={"status": "conflict", "spec": spec}
                )
            return Response(
                status=404, body={"error": "unknown-spec", "spec": spec}
            )
        outcome = self._accept(batch, spec, worker, result)
        status = 409 if outcome == "conflict" else 200
        return Response(status=status, body={"status": outcome, "spec": spec})
