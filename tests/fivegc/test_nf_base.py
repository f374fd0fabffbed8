"""NetworkFunction base: connections, error mapping, shutdown."""

import pytest

from repro.container.network import BridgeNetwork
from repro.fivegc.nf_base import NetworkFunction
from repro.net.http import HttpResponse
from repro.net.rest import JsonApiError, json_response
from repro.net.sbi import ANSWER, ERROR, SMF_PDU_SESSION, UPF_N4_SESSION, NFType, decode, serve

# Two declared exchanges stand in for an echo and a failing endpoint.
ECHO, BOOM = UPF_N4_SESSION, SMF_PDU_SESSION
ECHO_BODY = {"ueAddress": "10.0.0.1", "dnn": "internet"}


class EchoNf(NetworkFunction):
    NF_TYPE = NFType.UDM

    def _register_routes(self):
        def echo(fields, context):
            return json_response({"installed": fields["ueAddress"]})

        def boom(fields, context):
            raise JsonApiError(418, "teapot")

        serve(self.server, "POST", ECHO, echo)
        serve(self.server, "POST", BOOM, boom)


@pytest.fixture
def pair(host):
    bridge = BridgeNetwork(name="sbi", host=host)
    return EchoNf("a", host, bridge), EchoNf("b", host, bridge)


def test_call_roundtrip(pair):
    a, b = pair
    response = a.call(b, "POST", ECHO, ECHO_BODY)
    assert response.ok
    assert decode(ECHO, response.body, ANSWER)["installed"] == "10.0.0.1"


def test_json_api_errors_map_to_status(pair):
    a, b = pair
    response = a.call(b, "POST", BOOM, {"supi": "s", "sessionId": 1, "dnn": "d"})
    assert response.status == 418
    assert decode(ERROR, response.body, ANSWER)["error"] == "teapot"


def test_malformed_response_degrades_to_503_and_poisons_the_connection(pair):
    a, b = pair

    class Garbled(HttpResponse):
        def wire_bytes(self):
            return b"HTTP/1.1 abc X\r\n\r\n"

    b.server.route("POST", "/garbled", lambda request, context: Garbled(200))
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    connection = a._connections["b"]
    with pytest.raises(JsonApiError, match="malformed status line") as caught:
        a.call(b, "POST", "/garbled", {})
    assert caught.value.status == 503
    assert not connection.open
    assert a.circuit_breakers["b"].consecutive_failures == 1
    # The next call re-handshakes and is served.
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    assert a._connections["b"] is not connection


def test_connections_are_cached_keepalive(pair):
    a, b = pair
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    first = a._connections["b"]
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    assert a._connections["b"] is first


def test_connection_reopened_after_close(pair):
    a, b = pair
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    connection = a._connections["b"]
    a.client.close(connection)
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    fresh = a._connections["b"]
    assert fresh is not connection
    assert fresh.open


def test_peer_lookup_requires_binding(pair):
    a, _ = pair
    with pytest.raises(RuntimeError, match="no bound peer"):
        a.peer(NFType.SMF)


def test_shutdown_closes_everything(pair):
    a, b = pair
    assert a.call(b, "POST", ECHO, ECHO_BODY).ok
    a.shutdown()
    assert not a.server.started
    with pytest.raises(RuntimeError):
        a.runtime.compute(1)
