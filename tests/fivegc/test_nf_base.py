"""NetworkFunction base: connections, error mapping, shutdown."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.nf_base import NetworkFunction
from repro.net.http import HttpResponse
from repro.net.rest import JsonApiError
from repro.net.sbi import REQUEST, SMF_PDU_SESSION, UPF_N4_SESSION, NFType, serve, write

# Two declared exchanges stand in for an echo and a failing endpoint.
ECHO, BOOM = UPF_N4_SESSION, SMF_PDU_SESSION
ECHO_BODY = {"ueAddress": "10.0.0.1", "dnn": "internet"}
BOOM_BODY = {"supi": "s", "sessionId": 1, "dnn": "d"}


class EchoNf(NetworkFunction):
    NF_TYPE = NFType.UDM

    def _register_routes(self):
        def echo(fields, context):
            return {"installed": fields["ueAddress"]}

        def boom(fields, context):
            raise JsonApiError(418, "teapot")

        serve(self.server, ECHO, echo)
        serve(self.server, BOOM, boom)


@pytest.fixture
def pair(host):
    bridge = BridgeNetwork(name="sbi", host=host)
    return EchoNf("a", host, bridge), EchoNf("b", host, bridge)


def test_call_roundtrip(pair):
    a, b = pair
    assert a.call(b, ECHO, ECHO_BODY) == {"installed": "10.0.0.1"}


def test_json_api_errors_map_to_status(pair):
    a, b = pair
    connection = a.client.connect(b.server)
    response = a.client.request(connection, "POST", BOOM, write(BOOM, BOOM_BODY, REQUEST))
    assert (response.status, response.body) == (418, b'{"error": "teapot"}')
    # The caller reports the refusal as the table declares it.
    with pytest.raises(JsonApiError, match="SMF rejected PDU session: 418") as caught:
        a.call(b, BOOM, BOOM_BODY)
    assert caught.value.status == 418


def test_malformed_response_degrades_to_503_and_poisons_the_connection(pair):
    a, b = pair

    class Garbled(HttpResponse):
        def wire_bytes(self):
            return b"HTTP/1.1 abc X\r\n\r\n"

    assert a.call(b, ECHO, ECHO_BODY)
    connection = a._connections["b"]
    echo = b.server._resolve("POST", ECHO)
    b.server.route("POST", ECHO, lambda request, context: Garbled(201))
    with pytest.raises(JsonApiError, match="malformed status line") as caught:
        a.call(b, ECHO, ECHO_BODY)
    assert caught.value.status == 503
    assert not connection.open
    assert a.circuit_breakers["b"].consecutive_failures == 1
    # The next call re-handshakes and is served.
    b.server.route("POST", ECHO, echo)
    assert a.call(b, ECHO, ECHO_BODY)
    assert a._connections["b"] is not connection


def test_connections_are_cached_keepalive(pair):
    a, b = pair
    assert a.call(b, ECHO, ECHO_BODY)
    first = a._connections["b"]
    assert a.call(b, ECHO, ECHO_BODY)
    assert a._connections["b"] is first


def test_connection_reopened_after_close(pair):
    a, b = pair
    assert a.call(b, ECHO, ECHO_BODY)
    connection = a._connections["b"]
    a.client.close(connection)
    assert a.call(b, ECHO, ECHO_BODY)
    fresh = a._connections["b"]
    assert fresh is not connection
    assert fresh.open


def test_peer_lookup_requires_binding(pair):
    a, _ = pair
    with pytest.raises(RuntimeError, match="no bound peer"):
        a.peer(NFType.SMF)


def test_shutdown_closes_everything(pair):
    a, b = pair
    assert a.call(b, ECHO, ECHO_BODY)
    a.shutdown()
    assert not a.server.started
    with pytest.raises(RuntimeError):
        a.runtime.compute(1)
