"""Negative paths across the SBI: malformed inputs degrade gracefully.

``test_fuzz`` is generated from ``net.sbi.EXCHANGES``: per endpoint and
side, one row per broken thing (a missing, ill-typed, mis-sized or
undeclared field; a non-object or non-UTF-8 body).  A broken request is
a 400; a broken answer a 502 at its reader (at the AMF: a reject with a
cause).  After every row the next UE still registers.
"""

import contextlib
import copy
import json

import pytest

from repro.fivegc.nas_security import NasSecurityError, decode_inner
from repro.fivegc.udr import AuthSubscription
from repro.net import sbi
from repro.net.http import HttpResponse
from repro.net.rest import JsonApiError
from repro.net.sbi import ANSWER, EXCHANGES, REQUEST, NFType, decode, write
from repro.paka.deploy import IsolationMode
from repro.testbed import Testbed, TestbedConfig

# Values of the wrong kind for each field kind.
_WRONG = {
    sbi.HEX: (7, "zz"), sbi.STR: (7, "", ["0"]), sbi.INT: ("7", True, 2.7),
    sbi.OBJECT: ("garbage", [1, 2]), sbi.LIST: ("abc", [1]),
    sbi.MAP: ("x", [1, 2], {"k": 1}),
}
# A well-formed value per kind ("UDM" is also a valid nfType).
_SAMPLE = {
    sbi.HEX: lambda f: "00" * (f.nbytes or 1), sbi.STR: lambda f: "UDM",
    sbi.INT: lambda f: 1, sbi.MAP: lambda f: {"k": "v"},
    sbi.OBJECT: lambda f: _base(f.shape) if f.shape else {},
    sbi.LIST: lambda f: [_base(f.shape)] if f.shape else ["UDM"],
}
# Row ids name an endpoint by its constant: printed names stay short.
_NAME = {v: k for k, v in vars(sbi).items() if k.isupper() and v.__class__ is str}


def _base(shape):
    return {f.wire: _SAMPLE[f.kind](f) for f in shape.fields}


def _mutations(shape, at=()):
    """``(name, path, value)``: set ``path`` to ``value`` (None: drop it)."""
    where = "".join(f"{step}." for step in at)
    for f in shape.fields:
        path = at + (f.wire,)
        if not f.optional:
            yield f"missing:{where}{f.wire}", path, None
        for bad in _WRONG[f.kind]:
            yield f"type:{where}{f.wire}={bad!r}", path, bad
        if f.kind == sbi.HEX and f.nbytes:
            yield f"length:{where}{f.wire}", path, "00" * (f.nbytes + 1)
        if f.shape is not None:
            yield from _mutations(f.shape, path + ((0,) if f.kind == sbi.LIST else ()))
    if shape.one_of:
        yield f"missing:{where}{'|'.join(shape.one_of)}", at + (shape.one_of,), None
    yield f"undeclared:{where}bogus", at + ("bogus",), 1


def _mutate(body, path, value):
    body = copy.deepcopy(body)
    target = body
    for step in path[:-1]:
        target = target[step]
    for name in path[-1] if isinstance(path[-1], tuple) else (path[-1],):
        if value is None:
            del target[name]
        else:
            target[name] = value
    return json.dumps(body).encode()


def _corpus():
    for endpoint, exchange in EXCHANGES.items():
        for side, shape in ((REQUEST, exchange.request), (ANSWER, exchange.answer)):
            if shape is None:
                continue
            base = _base(shape)
            rows = [(name, _mutate(base, at, value)) for name, at, value in _mutations(shape)]
            rows += [("non-object", b"[1]"), ("non-json", b"not json"), ("non-utf8", b"\xff{}")]
            for name, body in rows:
                yield pytest.param(endpoint, side, body, id=f"{side[:3]}-{_NAME[endpoint]}-{name}")


@pytest.fixture(scope="module")
def testbed():
    return Testbed.build(TestbedConfig(isolation=IsolationMode.CONTAINER, seed=17))


@contextlib.contextmanager
def answering(server, method, path, body):
    """``server`` answers ``path`` with ``body``, at the declared success
    status, for the duration."""
    real = server._resolve(method, path)
    status = EXCHANGES[path].status
    server.route(method, path, lambda request, context: HttpResponse(status, body))
    try:
        yield
    finally:
        server.route(method, path, real)


def _gateway_error(call):
    with pytest.raises(JsonApiError) as caught:
        call()
    assert caught.value.status == 502


def _read_answer(testbed, endpoint):
    """Make ``endpoint``'s reader read the rewritten answer."""
    if endpoint == sbi.NRF_REGISTER:
        _gateway_error(lambda: testbed.smf.register_with(testbed.nrf))
    elif endpoint == sbi.NRF_DISCOVER:
        registry = {nf.name: nf for nf in (testbed.ausf, testbed.udm, testbed.smf)}
        _gateway_error(lambda: testbed.amf.discover(NFType.AUSF, registry, refresh=True))
        assert testbed.amf.peer(NFType.AUSF) is testbed.ausf
    elif endpoint in (sbi.SMF_PDU_SESSION, sbi.UPF_N4_SESSION):
        # A refused PDU session costs the UE its session, not its
        # registration, and is no NAS protocol error.
        ue, gnb, amf = testbed.add_subscriber(), testbed.gnb, testbed.amf
        before = (gnb.registrations_succeeded, gnb.sojourn_ms.stats.count, amf.nas_protocol_errors)
        outcome = testbed.register(ue, establish_session=True)
        assert outcome.success and "SMF" in outcome.failure_cause and ue.ue_address is None
        after = (gnb.registrations_succeeded, gnb.sojourn_ms.stats.count, amf.nas_protocol_errors)
        assert after == (before[0] + 1, before[1] + 1, before[2])
    else:
        ue = testbed.add_subscriber()
        if endpoint in (sbi.UDR_AUTH_PEEK, sbi.UDR_AUTH_RESYNC, sbi.EUDM_VERIFY_AUTS):
            ue.usim.sqn_ms = 1 << 35  # forces the resync round (TS 33.102 §6.3.5)
        outcome = testbed.register(ue, establish_session=False)
        assert not outcome.success
        assert "(502)" in outcome.failure_cause or " answer: " in outcome.failure_cause


@pytest.mark.parametrize("endpoint,side,body", list(_corpus()))
def test_fuzz(testbed, endpoint, side, body):
    if endpoint == sbi.ERROR:  # no server sends it on purpose: the decoder alone
        return _gateway_error(lambda: decode(endpoint, body, ANSWER))
    name = EXCHANGES[endpoint].server.lower()  # a P-AKA module's starts with "e"
    server = (testbed.paka.module(name) if name[0] == "e" else getattr(testbed, name)).server
    method = EXCHANGES[endpoint].method
    if side == REQUEST:
        connection = testbed.amf.client.connect(server)
        response = testbed.amf.client.request(connection, method, endpoint, body=body)
        assert response.status == 400
        assert decode(sbi.ERROR, response.body, ANSWER)["error"].startswith("malformed ")
    else:
        with answering(server, method, endpoint, body):
            _read_answer(testbed, endpoint)
    assert testbed.register(testbed.add_subscriber(), establish_session=True).success


def test_non_json_body_rejected(monolithic_testbed):
    testbed = monolithic_testbed
    connection = testbed.ausf.client.connect(testbed.udm.server)
    response = testbed.ausf.client.request(
        connection, "POST", sbi.UDM_UE_AUTH_GET, body=b"\xff\xfe not json"
    )
    assert response.status == 400


def test_fuzz_base_bodies_decode():
    """Each row breaks one thing: the body it starts from is valid.  And
    the writer is the reader's inverse, byte for byte with ``json.dumps``:
    a flat body's decoded fields write back to the wire form they came from."""
    for endpoint, exchange in EXCHANGES.items():
        for side, shape in ((REQUEST, exchange.request), (ANSWER, exchange.answer)):
            if shape is None:
                continue
            wire = json.dumps(_base(shape), sort_keys=True).encode()
            fields = decode(endpoint, wire, side)
            assert fields is not None
            if all(f.shape is None and f.kind != sbi.LIST for f in shape.fields):
                assert write(endpoint, fields, side) == wire


@pytest.mark.parametrize("raw", [b'"abc"', b"[1]", b"\xff", b"{}", b'{"kind": ["x"]}'])
def test_fuzz_inner_nas(raw):
    with pytest.raises(NasSecurityError):
        decode_inner(raw)


def test_a_confirmation_without_kseaf_rejects_the_ue(testbed):
    """``kseaf`` is optional on the wire (a failed confirmation has none),
    so a success without it is the AMF's semantic reject, not a 502."""
    body = json.dumps({"result": "AUTHENTICATION_SUCCESS", "supi": "imsi-1"}).encode()
    with answering(testbed.ausf.server, "POST", sbi.AUSF_UE_AUTH_CONFIRM, body):
        outcome = testbed.register(testbed.add_subscriber(), establish_session=False)
    assert outcome.failure_cause == "AUSF confirmation failed"
    assert testbed.register(testbed.add_subscriber(), establish_session=True).success


def test_storm_suci_rejects_keep_their_wire_texts(monolithic_testbed):
    """The NAS-fuzz storm's SUCI rejects cross the UDM → AUSF wire, so
    their bytes are part of the simulated cost."""
    testbed = monolithic_testbed
    suci = {"mcc": "001", "mnc": "01", "scheme": 1, "keyId": 1}
    for sent, status, text in [
        ({"mcc": "001"}, 400, "malformed SUCI: 'mnc'"),
        ({**suci, "schemeOutput": "zz-not-hex-7"}, 400,
         "malformed SUCI: non-hexadecimal number found in fromhex() arg at position 0"),
        ({**suci, "schemeOutput": "00" * 5}, 403,
         "SUCI de-concealment failed: scheme output too short for Profile A"),
    ]:
        body = write(sbi.UDM_UE_AUTH_GET, {"servingNetworkName": testbed.snn, "suci": sent},
                     REQUEST)
        connection = testbed.ausf.client.connect(testbed.udm.server)
        response = testbed.ausf.client.request(connection, "POST", sbi.UDM_UE_AUTH_GET, body)
        assert (response.status, response.body) == (status, json.dumps({"error": text}).encode())


# ------------------------------------------------------ semantic checks


def test_udr_resync_validates_sqn_range(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    with pytest.raises(JsonApiError, match="UDR resync failed") as caught:
        testbed.udm.call(
            testbed.udr, sbi.UDR_AUTH_RESYNC, {"supi": str(ue.usim.supi), "sqnMs": 1 << 50}
        )
    assert caught.value.status == 400


def test_udr_resync_unknown_subscriber(monolithic_testbed):
    with pytest.raises(JsonApiError, match="UDR resync failed") as caught:
        monolithic_testbed.udm.call(
            monolithic_testbed.udr, sbi.UDR_AUTH_RESYNC, {"supi": "imsi-nobody", "sqnMs": 5}
        )
    assert caught.value.status == 404


def test_module_errors_propagate_as_gateway_errors(container_testbed):
    """If the eUDM module refuses (unknown SUPI), the UDM maps it to an
    upstream error rather than crashing the chain."""
    testbed = container_testbed
    # Subscriber exists in the UDR but was never pushed to the module.
    testbed.udr.provision(
        AuthSubscription(supi="imsi-001019999999990", k=bytes(16), opc=bytes(16))
    )
    _gateway_error(lambda: testbed.ausf.call(
        testbed.udm, sbi.UDM_UE_AUTH_GET,
        {"servingNetworkName": testbed.snn, "supi": "imsi-001019999999990"},
    ))


def test_malformed_discovery_answer_is_a_typed_error_and_keeps_the_bind(
    container_testbed,
):
    testbed = container_testbed
    registry = {nf.name: nf for nf in (testbed.ausf, testbed.udm, testbed.smf)}
    with answering(testbed.nrf.server, "GET", sbi.NRF_DISCOVER, b"[1, 2]"):
        with pytest.raises(JsonApiError, match="object") as caught:
            testbed.amf.discover(NFType.AUSF, registry, refresh=True)
    assert caught.value.status == 502
    assert testbed.amf.peer(NFType.AUSF) is testbed.ausf
    assert testbed.register(testbed.add_subscriber(), establish_session=False).success
