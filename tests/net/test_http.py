"""HTTP layer: routing, instrumentation, TLS-on-the-wire."""

import json

import pytest

from repro.container.network import BridgeNetwork
from repro.net.codec import loads_object
from repro.net.http import (
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
)
from repro.net.rest import json_response
from repro.runtime.native import NativeRuntime


@pytest.fixture
def bridge(host):
    return BridgeNetwork(name="test-bridge", host=host)


@pytest.fixture
def server(host, bridge):
    server = HttpServer("srv", NativeRuntime("srv", host), bridge)
    server.route(
        "POST", "/echo",
        lambda request, context: json_response({"echo": request.body.decode()}),
    )
    server.start()
    return server


@pytest.fixture
def client(host, bridge):
    return HttpClient("cli", NativeRuntime("cli", host), bridge)


def test_request_response_roundtrip(server, client):
    connection = client.connect(server)
    response = client.request(connection, "POST", "/echo", body=b"hello")
    assert response.ok
    assert json.loads(response.body) == {"echo": "hello"}


def test_unknown_route_raises(server, client):
    connection = client.connect(server)
    with pytest.raises(HttpError, match="no route"):
        client.request(connection, "GET", "/missing")


def test_server_must_be_started(host, bridge, client):
    cold = HttpServer("cold", NativeRuntime("cold", host), bridge)
    with pytest.raises(HttpError, match="not started"):
        client.connect(cold)


def test_double_start_rejected(server):
    with pytest.raises(HttpError):
        server.start()


def test_wire_format_roundtrip():
    request = HttpRequest("POST", "/p", body=b"body", headers={"X": "1"})
    assert HttpRequest.from_wire(request.wire_bytes()) == request
    response = HttpResponse(201, body=b"out", headers={"Y": "2"})
    restored = HttpResponse.from_wire(response.wire_bytes())
    assert restored.status == 201 and restored.body == b"out"


@pytest.mark.parametrize("message", [HttpRequest, HttpResponse])
def test_head_cache_is_bounded_in_both_directions(message, monkeypatch):
    from repro.net import http

    monkeypatch.setattr(http, "_HEAD_CACHE", {})
    first = message(200) if message is HttpResponse else message("GET", "/x")
    for n in range(20_000):
        # Distinct header sets: each is a new cache key.
        twin = message(200) if message is HttpResponse else message("GET", "/x")
        twin.headers["X-Unique"] = str(n)
        assert message.from_wire(twin.wire_bytes()).headers == twin.headers
        assert len(http._HEAD_CACHE) <= 8193
    # A head serialised after the cache started over is the same bytes.
    assert first.wire_bytes() == message.from_wire(first.wire_bytes()).wire_bytes()


def test_json_body_must_be_an_object():
    assert loads_object(b'{"a": 1}') == {"a": 1}
    for body in (b"[1, 2]", b"7", b"not json", b"\xff"):
        with pytest.raises(ValueError):
            loads_object(body)


HOSTILE_HEADS = [
    b"",
    b"GET\r\n\r\n",
    b"\xff\xfe /x HTTP/1.1\r\n\r\n",
    b"HTTP/1.1\r\nX: 1\r\n\r\nbody",
]


@pytest.mark.parametrize(
    "message,raw",
    [(cls, raw) for cls in (HttpRequest, HttpResponse) for raw in HOSTILE_HEADS]
    + [(HttpResponse, b"HTTP/1.1 abc X\r\n\r\n")],  # as a request: no such route
)
def test_malformed_head_fails_closed(message, raw):
    # ValueError / IndexError / UnicodeDecodeError would slip past every
    # `except (HttpError, NetworkError)` between here and the NAS exchange.
    with pytest.raises(HttpError, match="malformed"):
        message.from_wire(raw)


def test_latency_metrics_recorded(server, client):
    connection = client.connect(server)
    client.request(connection, "POST", "/echo", body=b"x")
    client.request(connection, "POST", "/echo", body=b"x")
    assert len(server.lf_us) == 2
    assert len(server.lt_us) == 2
    assert server.lt_us[0] >= server.lf_us[0]  # L_T = L_F + L_N
    assert server.lf_us_by_path["/echo"] == server.lf_us
    assert len(client.response_times_us) == 2
    assert client.response_times_us[0] > server.lt_us[0]  # R > L_T


def test_response_times_keyed_by_server(server, client, host, bridge):
    other = HttpServer("srv2", NativeRuntime("srv2", host), bridge)
    other.route("GET", "/", lambda req, ctx: json_response({}))
    other.start()
    c1 = client.connect(server)
    c2 = client.connect(other)
    client.request(c1, "POST", "/echo", body=b"x")
    client.request(c2, "GET", "/")
    assert len(client.response_times_by_server["srv"]) == 1
    assert len(client.response_times_by_server["srv2"]) == 1


def test_handler_charges_fall_in_lf_window(server, client, host):
    slow_calls = []

    def slow_handler(request, context):
        context.runtime.compute(240_000)  # 100 us
        slow_calls.append(1)
        return json_response({})

    server.route("GET", "/slow", slow_handler)
    connection = client.connect(server)
    client.request(connection, "GET", "/slow")
    assert slow_calls
    assert server.lf_us_by_path["/slow"][0] >= 100.0


def test_payload_is_tls_protected_on_the_wire(server, client, bridge):
    connection = client.connect(server)
    bridge.start_capture()
    client.request(connection, "POST", "/echo", body=b"kausf=deadbeef")
    frames = bridge.stop_capture()
    assert frames, "request and response frames expected"
    for frame in frames:
        assert b"kausf" not in frame.payload
        assert b"deadbeef" not in frame.payload


def test_closed_connection_rejected(server, client):
    connection = client.connect(server)
    client.close(connection)
    with pytest.raises(HttpError):
        client.request(connection, "POST", "/echo", body=b"x")


def test_requests_advance_simulated_time(server, client, host):
    connection = client.connect(server)
    t0 = host.clock.now_ns
    client.request(connection, "POST", "/echo", body=b"x")
    elapsed_us = (host.clock.now_ns - t0) / 1000
    assert 100 < elapsed_us < 2_000  # sub-millisecond intra-host exchange


def test_metrics_unbounded_by_default(server, client):
    connection = client.connect(server)
    for _ in range(5):
        client.request(connection, "POST", "/echo", body=b"x")
    assert len(server.lt_us) == 5
    assert server.lt_us.stats.count == 5


# --------------------------------------------------------------------------
# Timeouts, retries and exception safety along the failure paths.


from repro.container.network import FrameLost, NetworkError  # noqa: E402
from repro.net.http import (  # noqa: E402
    RequestTimeout,
    RetryPolicy,
    UnresponsiveError,
)

FAST_RETRY = RetryPolicy(max_attempts=3, timeout_us=5_000.0, base_backoff_us=100.0)
ONE_SHOT = RetryPolicy(max_attempts=1, timeout_us=5_000.0)


def raise_unresponsive(server):
    raise UnresponsiveError(f"{server.name} is down")


def test_unresponsive_without_timeout_propagates(server, client, host):
    server.fault_gate = raise_unresponsive
    connection = client.connect(server)
    with pytest.raises(UnresponsiveError):
        client.request(connection, "POST", "/echo", body=b"x")
    assert client.timeouts == 0  # no deadline, no timeout accounting


def test_timeout_charges_the_full_deadline(server, client, host):
    server.fault_gate = raise_unresponsive
    connection = client.connect(server)
    t0 = host.clock.now_ns
    with pytest.raises(RequestTimeout):
        client.request(connection, "POST", "/echo", body=b"x", retry=ONE_SHOT)
    elapsed_us = (host.clock.now_ns - t0) / 1_000
    assert elapsed_us >= 5_000.0  # the client blocked until its deadline
    assert client.timeouts == 1


def test_retry_recovers_after_transient_outage(server, client, host):
    calls = []

    def flaky_gate(srv):
        calls.append(1)
        if len(calls) == 1:
            raise UnresponsiveError("first attempt eats a crash window")

    server.fault_gate = flaky_gate
    connection = client.connect(server)
    response = client.request(
        connection, "POST", "/echo", body=b"hello", retry=FAST_RETRY
    )
    assert response.ok
    assert client.retries == 1
    assert client.timeouts == 1
    assert client.reconnects == 1  # fresh TLS session for attempt 2
    assert connection.open  # cached reference still valid
    # The healed connection keeps serving without another handshake.
    assert client.request(connection, "POST", "/echo", body=b"again").ok
    assert client.reconnects == 1


def test_retry_exhaustion_raises_request_timeout(server, client, host):
    server.fault_gate = raise_unresponsive
    connection = client.connect(server)
    with pytest.raises(RequestTimeout):
        client.request(connection, "POST", "/echo", body=b"x", retry=FAST_RETRY)
    assert client.retries == FAST_RETRY.max_attempts - 1
    assert client.timeouts == FAST_RETRY.max_attempts


def test_protocol_errors_are_never_retried(server, client):
    connection = client.connect(server)
    with pytest.raises(HttpError, match="no route"):
        client.request(connection, "GET", "/missing", retry=FAST_RETRY)
    assert client.retries == 0


def test_lost_frame_times_out(server, client, host, bridge):
    connection = client.connect(server)
    bridge.link_filter = lambda src, dst, nbytes: None  # drop everything
    with pytest.raises(RequestTimeout):
        client.request(connection, "POST", "/echo", body=b"x", retry=ONE_SHOT)
    bridge.link_filter = None
    assert client.timeouts == 1


def test_late_response_is_discarded(server, client, host, bridge):
    connection = client.connect(server)
    bridge.link_filter = lambda src, dst, nbytes: 50_000.0  # +50 ms per frame
    with pytest.raises(RequestTimeout, match="deadline"):
        client.request(connection, "POST", "/echo", body=b"x", retry=ONE_SHOT)
    bridge.link_filter = None
    assert client.timeouts == 1
    assert len(client.response_times_us) == 0  # the late response is not a sample


def test_handler_exception_leaks_no_span_or_sample(server, client, host):
    def exploding(request, context):
        raise HttpError("handler blew up")

    server.route("GET", "/boom", exploding)
    connection = client.connect(server)
    served_before = server.requests_served
    samples_before = len(server.lt_us)
    with pytest.raises(HttpError, match="blew up"):
        client.request(connection, "GET", "/boom")
    assert server.requests_served == served_before
    assert len(server.lt_us) == samples_before
    # The same connection still serves the next request.
    assert client.request(connection, "POST", "/echo", body=b"x").ok


def test_backoff_advances_the_simulated_clock(server, client, host):
    server.fault_gate = raise_unresponsive
    connection = client.connect(server)
    policy = RetryPolicy(
        max_attempts=2, timeout_us=1_000.0, base_backoff_us=40_000.0, jitter=0.0
    )
    t0 = host.clock.now_ns
    with pytest.raises(RequestTimeout):
        client.request(connection, "POST", "/echo", body=b"x", retry=policy)
    elapsed_us = (host.clock.now_ns - t0) / 1_000
    # Two 1 ms deadlines plus one 40 ms backoff (plus transit costs).
    assert elapsed_us >= 2 * 1_000.0 + 40_000.0
