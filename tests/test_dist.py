"""Tests for repro.dist: address parsing, the lease table, wire
encoding, network chaos, the HTTP wire and client retry loop, and a
small end-to-end coordinator/worker exchange over a UNIX socket."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.chaos.plan import (
    ChaosPlan,
    POINT_NET_CONNECT,
    POINT_NET_RECV,
    POINT_NET_SEND,
)
from repro.config import get_profile
from repro.dist import (
    DistConfig,
    DistCoordinator,
    LeaseTable,
    NetChaos,
    NetFaultError,
    WorkerConfig,
    encode_cell,
    parse_connect,
    work_loop,
)
from repro.dist.http import ClientResponse, Response, SweepClient
from repro.dist.worker import _build_runner
from repro.errors import ConfigError, DistError
from repro.experiments import ExperimentRunner, RunConfig
from repro.experiments.parse import parse_policy, parse_scenario
from repro.runstate.serialize import encode_result


def _runner() -> ExperimentRunner:
    return ExperimentRunner(
        config=get_profile("scaled"), run_config=RunConfig()
    )


# ----------------------------------------------------------------------
# parse_connect
# ----------------------------------------------------------------------


class TestParseConnect:
    def test_unix_socket_paths(self, tmp_path):
        path = str(tmp_path / "c.sock")
        assert parse_connect(path) == (path, "", 0)
        assert parse_connect("relative.sock") == ("relative.sock", "", 0)

    def test_host_port(self):
        assert parse_connect("10.0.0.5:7000") == (None, "10.0.0.5", 7000)

    def test_bare_port_is_loopback(self):
        assert parse_connect("7000") == (None, "127.0.0.1", 7000)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_connect("")
        with pytest.raises(ConfigError):
            parse_connect("host:notaport")


# ----------------------------------------------------------------------
# DistConfig
# ----------------------------------------------------------------------


class TestDistConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DistConfig(lease_seconds=0)
        with pytest.raises(ConfigError):
            DistConfig(max_lease_attempts=0)
        with pytest.raises(ConfigError):
            DistConfig(local_grace_seconds=-1)

    def test_worker_settings_cover_fingerprint_inputs(self):
        runner = _runner()
        settings = DistConfig(faults_text="compaction:after=3").worker_settings(
            runner
        )
        assert settings["profile"] == "scaled"
        assert settings["faults"] == "compaction:after=3"
        assert set(settings) == {
            "profile", "pagerank_iterations", "retries", "cell_budget",
            "cell_cycles", "cell_deadline_seconds", "faults", "fault_seed",
            "tlb_engine",
        }

    def test_worker_runner_gets_the_coordinators_engine(self):
        runner = ExperimentRunner(
            config=get_profile("scaled"),
            run_config=RunConfig(tlb_engine="exact"),
        )
        settings = DistConfig().worker_settings(runner)
        assert settings["tlb_engine"] == "exact"
        assert _build_runner(settings).run_config.tlb_engine == "exact"
        # An older coordinator sends no engine: the worker runs auto.
        del settings["tlb_engine"]
        assert _build_runner(settings).run_config.tlb_engine == "auto"


# ----------------------------------------------------------------------
# LeaseTable (fake clock throughout)
# ----------------------------------------------------------------------


def _table(specs=("a", "b"), lease_seconds=10.0, max_attempts=3):
    return LeaseTable(
        {spec: {"spec": spec} for spec in specs},
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
    )


class TestLeaseTable:
    def test_grants_in_sorted_spec_order(self):
        table = _table(("b", "a"))
        first = table.lease("w1", now=0.0)
        second = table.lease("w2", now=0.0)
        assert (first.spec, second.spec) == ("a", "b")
        assert table.lease("w3", now=0.0) is None

    def test_expiry_requeues_and_attempts_grow(self):
        table = _table(("a",), lease_seconds=5.0)
        lease = table.lease("w1", now=0.0)
        assert lease.attempt == 1
        assert table.expire(now=4.9) == []
        expired = table.expire(now=5.0)
        assert [entry.spec for entry in expired] == ["a"]
        again = table.lease("w2", now=6.0)
        assert again.spec == "a" and again.attempt == 2
        assert not table.exhausted("a")
        table.expire(now=100.0)
        table.lease("w3", now=100.0)
        assert table.exhausted("a")

    def test_renew_extends_deadline(self):
        table = _table(("a",), lease_seconds=5.0)
        lease = table.lease("w1", now=0.0)
        assert table.renew(lease.lease_id, now=4.0) is lease
        assert table.expire(now=5.0) == []
        assert table.expire(now=9.0) != []
        assert table.renew(lease.lease_id, now=9.5) is None

    def test_complete_is_first_write_wins(self):
        table = _table(("a", "b"))
        table.lease("w1", now=0.0)
        assert table.complete("a") is True
        assert table.complete("a") is False
        assert table.done is False  # "b" still pending
        with pytest.raises(KeyError):
            table.complete("unknown")

    def test_late_completion_after_expiry_still_lands(self):
        table = _table(("a",), lease_seconds=1.0)
        table.lease("w1", now=0.0)
        table.expire(now=2.0)
        assert table.complete("a") is True
        # the re-queued spec must not be granted again
        assert table.lease("w2", now=3.0) is None

    def test_claim_local_and_remote_specs(self):
        table = _table(("a", "b", "c"))
        table.lease("w1", now=0.0)  # a
        assert list(table.remote_specs()) == ["a", "b", "c"]
        assert table.claim_local("a") is True
        assert table.claim_local("a") is False
        table.complete("b")
        assert list(table.remote_specs()) == ["c"]
        assert table.claim_local("b") is False


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------


class TestEncodeCell:
    def test_named_policy_and_scenario_round_trip(self):
        runner = _runner()
        cell = (
            "bfs", "test-small", parse_policy("thp"),
            parse_scenario("fresh"),
        )
        task = encode_cell(runner, cell)
        assert task is not None
        assert task["spec"] == runner.cell_spec(*cell)
        replayed = runner.cell_spec(
            task["workload"], task["dataset"],
            parse_policy(task["policy"]), parse_scenario(task["scenario"]),
        )
        assert replayed == task["spec"]

    def test_parameterized_scenario_round_trip(self):
        runner = _runner()
        cell = (
            "bfs", "test-small", parse_policy("selective:0.25"),
            parse_scenario("fragmented:0.5:2"),
        )
        task = encode_cell(runner, cell)
        assert task is not None
        assert task["spec"] == runner.cell_spec(*cell)

    def test_inexpressible_cell_returns_none(self):
        import dataclasses

        runner = _runner()
        scenario = dataclasses.replace(
            parse_scenario("fresh"), name="mystery-scenario",
        )
        cell = ("bfs", "test-small", parse_policy("thp"), scenario)
        assert encode_cell(runner, cell) is None


# ----------------------------------------------------------------------
# Network chaos
# ----------------------------------------------------------------------


class TestNetChaos:
    def test_drop_fires_exactly_once_per_point_ordinal(self):
        chaos = NetChaos(ChaosPlan.parse("drop:net.send:2"))
        chaos.check(POINT_NET_SEND)
        with pytest.raises(NetFaultError):
            chaos.check(POINT_NET_SEND)
        chaos.check(POINT_NET_SEND)
        assert chaos.fired == [("drop", POINT_NET_SEND, 2)]

    def test_point_ordinals_count_independently(self):
        chaos = NetChaos(ChaosPlan.parse("drop:net.recv:1"))
        chaos.check(POINT_NET_CONNECT)
        chaos.check(POINT_NET_SEND)
        with pytest.raises(NetFaultError):
            chaos.check(POINT_NET_RECV)

    def test_sever_is_a_threshold_that_never_heals(self):
        chaos = NetChaos(ChaosPlan.parse("sever:net.partition:3"))
        chaos.check(POINT_NET_CONNECT)
        chaos.check(POINT_NET_SEND)
        for point in (POINT_NET_RECV, POINT_NET_CONNECT, POINT_NET_SEND):
            with pytest.raises(NetFaultError):
                chaos.check(point)
        assert all(action == "sever" for action, _, _ in chaos.fired)

    def test_delay_stalls_and_notifies_listener(self):
        events = []
        chaos = NetChaos(
            ChaosPlan.parse("delay:net.send:1"), delay_seconds=0.0,
            listener=lambda name, **f: events.append((name, f)),
        )
        chaos.check(POINT_NET_SEND)
        assert events == [
            ("net.delay", {"point": POINT_NET_SEND, "ordinal": 1})
        ]

    def test_plan_grammar_rejects_bad_net_combos(self):
        with pytest.raises(ConfigError):
            ChaosPlan.parse("delay:net.connect:1")
        with pytest.raises(ConfigError):
            ChaosPlan.parse("sever:net.send:1")
        with pytest.raises(ConfigError):
            ChaosPlan.parse("drop:net.partition:1")


# ----------------------------------------------------------------------
# Client bounded retry
# ----------------------------------------------------------------------


class _ScriptedClient(SweepClient):
    """A client whose request() replays a scripted outcome sequence."""

    def __init__(self, outcomes):
        super().__init__(host="127.0.0.1", port=1)
        self.outcomes = list(outcomes)
        self.calls = 0

    def request(self, method, path, payload=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _response(status, retry_after=None):
    return ClientResponse(
        status=status, body={}, raw=b"{}", retry_after=retry_after
    )


class TestRequestWithRetry:
    def test_oserror_then_success(self):
        sleeps = []
        client = _ScriptedClient(
            [ConnectionRefusedError("boom"), _response(200)]
        )
        response = client.request_with_retry(
            "POST", "/x", max_attempts=3, sleep=sleeps.append
        )
        assert response.status == 200
        assert client.calls == 2
        assert len(sleeps) == 1

    def test_retry_after_hint_is_honored_and_capped(self):
        sleeps = []
        client = _ScriptedClient(
            [_response(429, retry_after=1.5), _response(200)]
        )
        client.request_with_retry(
            "POST", "/x", max_attempts=2, backoff_base=0.1,
            backoff_max=2.0, sleep=sleeps.append,
        )
        assert 1.5 <= sleeps[0] <= 1.6  # hint + jitter, under the cap
        sleeps.clear()
        client = _ScriptedClient(
            [_response(429, retry_after=60.0), _response(200)]
        )
        client.request_with_retry(
            "POST", "/x", max_attempts=2, backoff_base=0.1,
            backoff_max=2.0, sleep=sleeps.append,
        )
        assert sleeps[0] <= 2.0 + 0.1  # server hint capped at backoff_max

    def test_exhausted_attempts_return_last_response(self):
        client = _ScriptedClient([_response(503)] * 3)
        response = client.request_with_retry(
            "POST", "/x", max_attempts=3, sleep=lambda _w: None
        )
        assert response.status == 503
        assert client.calls == 3

    def test_exhausted_attempts_reraise_last_oserror(self):
        client = _ScriptedClient(
            [ConnectionRefusedError("a"), ConnectionResetError("b")]
        )
        with pytest.raises(ConnectionResetError):
            client.request_with_retry(
                "POST", "/x", max_attempts=2, sleep=lambda _w: None
            )

    def test_non_retryable_status_returns_immediately(self):
        sleeps = []
        client = _ScriptedClient([_response(404)])
        response = client.request_with_retry(
            "POST", "/x", max_attempts=5, sleep=sleeps.append
        )
        assert response.status == 404
        assert sleeps == []

    def test_deterministic_for_a_seed(self):
        waits = []
        for _ in range(2):
            sleeps = []
            client = _ScriptedClient([_response(503)] * 4)
            client.request_with_retry(
                "POST", "/x", max_attempts=4, seed=7, sleep=sleeps.append
            )
            waits.append(tuple(sleeps))
        assert waits[0] == waits[1]

    def test_rejects_bad_max_attempts(self):
        client = _ScriptedClient([])
        with pytest.raises(DistError):
            client.request_with_retry("POST", "/x", max_attempts=0)


# ----------------------------------------------------------------------
# HTTP wire: response rendering and truncated responses
# ----------------------------------------------------------------------


class TestResponse:
    def test_body_renders_canonical_json(self):
        rendered = Response(status=200, body={"b": 1, "a": 2}).render()
        assert rendered == b'{"a":2,"b":1}\n'

    def test_raw_wins_over_body(self):
        rendered = Response(
            status=200, body={"ignored": True}, raw='{"x":1}\n'
        ).render()
        assert rendered == b'{"x":1}\n'


_FULL_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\nConnection: close\r\n\r\n"
    b'{"ok":1}\n'
)


class _FakeSocket:
    def close(self):
        pass


class _ReplayClient(SweepClient):
    """A client whose exchanges replay canned byte replies, one reply
    per request; ``_recv`` returns ``b""`` once a reply is used up, as
    a peer that closed its end would."""

    def __init__(self, replies):
        super().__init__(host="127.0.0.1", port=1)
        self.replies = list(replies)
        self.calls = 0
        self._pending = b""

    def _connect(self):
        self.calls += 1
        self._pending = self.replies.pop(0)
        return _FakeSocket()

    def _send(self, sock, data):
        pass

    def _recv(self, sock, limit):
        chunk, self._pending = self._pending[:limit], self._pending[limit:]
        return chunk


class TestTruncatedResponse:
    def test_full_reply_parses(self):
        response = _ReplayClient([_FULL_REPLY]).request("GET", "/x")
        assert response.status == 200
        assert response.body == {"ok": 1}

    @pytest.mark.parametrize("reply", [
        b"",                                   # closed before any byte
        _FULL_REPLY[:20],                      # closed inside the headers
        _FULL_REPLY[:-4],                      # closed inside the body
    ], ids=["no-bytes", "partial-headers", "partial-body"])
    def test_closed_peer_raises_connection_error(self, reply):
        with pytest.raises(ConnectionError):
            _ReplayClient([reply]).request("GET", "/x")

    @pytest.mark.parametrize("reply", [b"", _FULL_REPLY[:-4]],
                             ids=["no-bytes", "partial-body"])
    def test_retry_recovers_from_truncation(self, reply):
        sleeps = []
        client = _ReplayClient([reply, _FULL_REPLY])
        response = client.request_with_retry(
            "GET", "/x", max_attempts=3, sleep=sleeps.append
        )
        assert response.status == 200
        assert response.body == {"ok": 1}
        assert client.calls == 2
        assert len(sleeps) == 1


class TestWorkerAgainstDyingCoordinator:
    def test_closed_mid_reply_polls_then_idles_out(self, tmp_path):
        """A coordinator that accepts, reads the request and closes
        without replying is unreachable, not fatal: the worker keeps
        polling and exits 0 after ``idle_exit_seconds``."""
        sock_path = str(tmp_path / "coord.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(8)
        listener.settimeout(0.05)
        stop = threading.Event()
        accepted = []

        def accept_and_hang_up():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(conn.recv(65536))
                conn.close()

        thread = threading.Thread(target=accept_and_hang_up, daemon=True)
        thread.start()
        try:
            code = work_loop(WorkerConfig(
                connect=sock_path,
                journal_path=str(tmp_path / "shard.jsonl"),
                worker_id="w-test",
                poll_interval=0.02,
                idle_exit_seconds=0.3,
                max_attempts=2,
            ))
        finally:
            stop.set()
            thread.join(timeout=5.0)
            listener.close()
        assert not thread.is_alive()
        assert code == 0
        assert len(accepted) >= 2
        assert all(b"/v1/dist/lease" in request for request in accepted)


# ----------------------------------------------------------------------
# Coordinator end-to-end (UDS, one real worker subprocess)
# ----------------------------------------------------------------------


def _worker_env() -> dict[str, str]:
    import repro

    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    return env


class TestCoordinatorEndToEnd:
    def test_batch_shards_to_worker_and_results_match_serial(self, tmp_path):
        cells = [
            ("bfs", "test-small", parse_policy("thp"),
             parse_scenario("fresh")),
            ("bfs", "test-small", parse_policy("base4k"),
             parse_scenario("fresh")),
        ]
        serial = _runner()
        expected = [
            encode_result(serial._execute_cell(*cell)) for cell in cells
        ]

        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner,
            DistConfig(socket_path=sock, local_grace_seconds=60.0),
        ).start()
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "work",
                "--connect", sock,
                "--journal", str(tmp_path / "w.jsonl"),
                "--worker-id", "w-test",
                "--poll-interval", "0.05",
                "--idle-exit", "20",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            results = coordinator.execute_batch(cells)
            coordinator.drain()
            rc = worker.wait(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
            coordinator.stop()
        assert rc == 0
        assert [encode_result(result) for result in results] == expected
        events = coordinator.drain_events()
        names = [event["name"] for event in events]
        assert "dist.lease.grant" in names
        assert names.count("dist.result") == 2
        assert all(
            event.get("worker") == "w-test"
            for event in events if event["name"] == "dist.result"
        )
        from repro.obs.events import validate_events

        assert validate_events(events) == []

    def test_execute_batch_requires_running_loop(self):
        runner = _runner()
        coordinator = DistCoordinator(runner, DistConfig())
        with pytest.raises(DistError):
            coordinator.execute_batch([("bfs", "test-small", None, None)])

    def test_status_endpoint_and_idle_lease(self, tmp_path):
        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner, DistConfig(socket_path=sock)
        ).start()
        try:
            client = SweepClient(socket_path=sock, timeout=5.0)
            health = client.request("GET", "/v1/healthz")
            assert health.ok and health.body["role"] == "coordinator"
            idle = client.request(
                "POST", "/v1/dist/lease", {"worker": "probe"}
            )
            assert idle.ok
            assert idle.body["done"] is False
            assert idle.body["task"] is None
            status = client.request("GET", "/v1/dist/status")
            assert status.ok
            assert status.body["mode"] == "remote"
            assert status.body["workers"] == ["probe"]
            assert status.body["schema_problems"] == []
            missing = client.request("GET", "/v1/nope")
            assert missing.status == 404
        finally:
            coordinator.drain()
            coordinator.stop()

    def test_drained_coordinator_tells_workers_done(self, tmp_path):
        sock = str(tmp_path / "coord.sock")
        runner = _runner()
        coordinator = DistCoordinator(
            runner, DistConfig(socket_path=sock)
        ).start()
        try:
            coordinator.drain()
            client = SweepClient(socket_path=sock, timeout=5.0)
            deadline = time.monotonic() + 5.0  # repro: noqa REP001 — observation timeout
            while time.monotonic() < deadline:  # repro: noqa REP001 — observation timeout
                response = client.request(
                    "POST", "/v1/dist/lease", {"worker": "w"}
                )
                if response.body.get("done"):
                    break
                time.sleep(0.05)
            assert response.body["done"] is True
        finally:
            coordinator.stop()
