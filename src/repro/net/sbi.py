"""Service-Based Interface conventions (3GPP TS 29.5xx family).

Names the services and API paths the VNFs expose to each other, the NF
profile the NRF stores for discovery, and — in :data:`EXCHANGES` — the
one declared shape of every SBI message.  Paths follow the 3GPP naming
style (``nausf-auth``, ``nudm-ueau`` …); the P-AKA module paths are this
reproduction's equivalent of the paper's "REST API endpoints where each
AKA function is mapped to an endpoint handler".

Each row also names the method, the status of a success and how the
caller reports any other answer, so an exchange has one path each way:
:func:`serve` routes a handler that takes decoded fields and returns
fields, and ``NetworkFunction.call`` returns the peer's decoded answer.
:func:`write` is the only way fields become a body, byte-identical to
``json.dumps(body, sort_keys=True)`` with each shape's key order fixed
once.  :func:`decode` is the only way a body becomes fields.  It fails
closed: a body that is not UTF-8, not JSON or not an object, a missing
field, a value of the wrong kind or length, and a field the shape does
not declare are all refused — :class:`~repro.net.rest.JsonApiError` 400
on a request (the caller's fault), 502 on an answer (the peer's).  A
reject's text is wire bytes (an error body's length moves transit and
TLS record costs), so the texts below are part of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.crypto.suci import Suci
from repro.net.codec import dumps_value, loads_object
from repro.net.http import HttpResponse
from repro.net.rest import JsonApiError


class NFType(Enum):
    NRF = "NRF"
    UDR = "UDR"
    UDM = "UDM"
    AUSF = "AUSF"
    AMF = "AMF"
    SMF = "SMF"
    UPF = "UPF"


# Core SBI API paths.
NRF_REGISTER = "/nnrf-nfm/v1/nf-instances"
NRF_DISCOVER = "/nnrf-disc/v1/nf-instances"
UDR_AUTH_SUBSCRIPTION = "/nudr-dr/v1/subscription-data/authentication-data"
UDR_AUTH_PEEK = "/nudr-dr/v1/subscription-data/authentication-data/peek"
UDR_AUTH_RESYNC = "/nudr-dr/v1/subscription-data/authentication-data/resync"
UDM_UE_AUTH_GET = "/nudm-ueau/v1/generate-auth-data"
AUSF_UE_AUTH = "/nausf-auth/v1/ue-authentications"
AUSF_UE_AUTH_CONFIRM = "/nausf-auth/v1/ue-authentications/confirmation"
SMF_PDU_SESSION = "/nsmf-pdusession/v1/sm-contexts"
UPF_N4_SESSION = "/n4/v1/sessions"

# P-AKA module endpoints (one per offloaded function group, Table I).
EUDM_GENERATE_AV = "/eudm-paka/v1/generate-av"
EUDM_VERIFY_AUTS = "/eudm-paka/v1/verify-auts"
EAUSF_DERIVE_SE_AV = "/eausf-paka/v1/derive-se-av"
EAMF_DERIVE_KAMF = "/eamf-paka/v1/derive-kamf"

# The body of every error answer (serve writes it): not a path.
ERROR = "error"


@dataclass
class NFProfile:
    """What an NF registers with the NRF."""

    nf_instance_id: str
    nf_type: NFType
    endpoint_name: str  # bridge endpoint (the "address")
    services: List[str] = field(default_factory=list)
    metadata: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "nfInstanceId": self.nf_instance_id,
            "nfType": self.nf_type.value,
            "endpoint": self.endpoint_name,
            "services": list(self.services),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NFProfile":
        """Build from :data:`PROFILE`'s decoded fields; an unknown
        ``nfType`` is a ``ValueError``."""
        return cls(
            nf_instance_id=data["nfInstanceId"],
            nf_type=NFType(data["nfType"]),
            endpoint_name=data["endpoint"],
            services=list(data.get("services", ())),
            metadata=dict(data.get("metadata", {})),
        )


# ------------------------------------------------------------------ schema

HEX, STR, INT, OBJECT, LIST, MAP = "hex", "str", "int", "object", "list", "map"
REQUEST, ANSWER = "request", "answer"


class Field(NamedTuple):
    """One declared field.

    ``kind``: ``hex`` (an octet string, decoded to ``bytes`` of exactly
    ``nbytes``, or of any length when ``None``), ``str`` (non-empty),
    ``int`` (not a bool), ``object`` (read by ``shape``; with none it is
    kept as parsed, for a hop that forwards it untouched), ``list`` (of
    ``shape`` objects, or of strings) or ``map`` (string to string).
    ``label`` is the parameter's Table I name and ``nbytes`` its Table I
    size — on a str field only an accounting size, never checked.
    """

    wire: str
    kind: str = STR
    nbytes: Optional[int] = None
    optional: bool = False
    shape: Optional["Shape"] = None
    label: Optional[str] = None


def hexf(wire: str, nbytes: Optional[int] = None, label: Optional[str] = None) -> Field:
    return Field(wire, HEX, nbytes, label=label)


class Shape:
    """A JSON object's declared fields, in order; a bare string declares
    a required ``str`` field.

    ``title`` names the object in its rejects (an untitled one, a whole
    message, is named by its server and side).  ``one_of``: at least one of these
    optional fields is present.  ``build`` turns the decoded fields into
    the object a reader wants; a ``ValueError`` it raises is a malformed
    body like any other.
    """

    def __init__(self, *fields, title: str = "", one_of: Tuple[str, ...] = (),
                 build: Optional[Callable[[Dict[str, Any]], Any]] = None) -> None:
        self.fields = tuple(Field(f) if f.__class__ is str else f for f in fields)
        self.names = frozenset(f.wire for f in self.fields)
        self.title, self.one_of, self.build = title, one_of, build
        # What write() needs per field, in json.dumps(sort_keys=True) order.
        self.writers = tuple(
            (f.wire, f'"{f.wire}": ', f.kind is HEX)
            for f in sorted(self.fields, key=lambda f: f.wire)
        )


class Exchange(NamedTuple):
    """One SBI endpoint: who serves it, what goes each way, and how.

    ``status`` is the one status of a success.  ``refused`` is how the
    caller reports an answer of any other status: the status it raises
    (``None``: the peer's own) and the text, formatted with ``status``
    (the peer's) and ``server``.  Where the caller is a handler, that
    text is its own error answer, so it is wire bytes too.
    """

    server: str
    request: Optional[Shape]
    answer: Shape
    refused: Tuple[Optional[int], str] = (None, "")
    method: str = "POST"
    status: int = 200


def _read(shape: Shape, data: Dict[str, Any], status: int) -> Any:
    """Check ``data`` (a parsed object) against ``shape``, decoding in
    place.  A violation inside a titled object is named by that object
    ("malformed SUCI: 'mnc'"), not by the message around it."""
    try:
        for wire, kind, nbytes, optional, sub, _ in shape.fields:
            if wire not in data:
                if optional:
                    continue
                raise KeyError(wire)
            value = data[wire]
            cls = value.__class__
            if kind is STR:
                ok = cls is str and value != ""
            elif kind is HEX:
                ok = cls is str
                if ok:
                    value = data[wire] = bytes.fromhex(value)
                    if nbytes is not None and len(value) != nbytes:
                        raise ValueError(f"{wire!r} must be {nbytes} bytes, got {len(value)}")
            elif kind is INT:
                ok = cls is int
            elif kind is MAP:
                ok = cls is dict and all(v.__class__ is str for v in value.values())
            elif kind is LIST:
                item = str if sub is None else dict
                ok = cls is list and all(v.__class__ is item for v in value)
                if ok and sub is not None:
                    data[wire] = [_read(sub, v, status) for v in value]
            else:  # OBJECT
                ok = cls is dict
                if ok and sub is not None:
                    data[wire] = _read(sub, value, status)
            if not ok:
                raise ValueError(f"{wire!r} is not a valid {kind}")
        if not shape.names.issuperset(data):
            raise ValueError(f"undeclared field {min(data.keys() - shape.names)!r}")
        if shape.one_of and not any(name in data for name in shape.one_of):
            raise ValueError("needs " + " or ".join(map(repr, shape.one_of)))
        return data if shape.build is None else shape.build(data)
    except (KeyError, ValueError) as exc:
        if not shape.title:  # a whole message: decode names it
            raise
        raise JsonApiError(status, f"malformed {shape.title}: {exc}") from None


def decode(endpoint: str, body: bytes, side: str) -> Any:
    """``body`` as ``endpoint``'s declared ``side`` (:data:`REQUEST` or
    :data:`ANSWER`): the fields, hex ones as ``bytes`` — or what the
    shape builds.  Anything else is ``JsonApiError`` 400 / 502."""
    exchange = EXCHANGES[endpoint]
    shape, status = (exchange.request, 400) if side == REQUEST else (exchange.answer, 502)
    try:
        return _read(shape, loads_object(body), status)
    except (KeyError, ValueError) as exc:  # also: not UTF-8, not JSON, not an object
        raise JsonApiError(status, f"malformed {exchange.server} {side}: {exc}") from None


def _write(shape: Shape, fields: Dict[str, Any]) -> bytes:
    parts = []
    for wire, head, is_hex in shape.writers:
        if wire in fields:
            value = fields[wire]
            parts.append(f'{head}"{value.hex()}"' if is_hex else head + dumps_value(value))
    return ("{" + ", ".join(parts) + "}").encode()


def write(endpoint: str, fields: Dict[str, Any], side: str) -> bytes:
    """``fields`` as ``endpoint``'s declared ``side``, the inverse of
    :func:`decode`: hex fields are given as ``bytes``, a nested object
    or list in its wire form (a hop forwards what it read untouched).
    Only declared fields are written; the reader judges the rest."""
    exchange = EXCHANGES[endpoint]
    return _write(exchange.request if side == REQUEST else exchange.answer, fields)


def _answer(status: int, shape: Shape, fields: Dict[str, Any]) -> HttpResponse:
    return HttpResponse(status, _write(shape, fields), {"Content-Type": "application/json"})


def serve(server, path: str, handler) -> None:
    """Route ``path`` on ``server`` with its declared method.

    ``handler(fields, context)`` gets the decoded request and returns the
    answer's fields, sent with the declared success status; a
    ``JsonApiError`` it (or :func:`decode`) raises becomes the error answer.
    """
    exchange = EXCHANGES[path]
    error = EXCHANGES[ERROR].answer

    def wrapped(request, context):
        try:
            fields = handler(decode(path, request.body, REQUEST), context)
        except JsonApiError as exc:
            return _answer(exc.status, error, {"error": exc.message})
        return _answer(exchange.status, exchange.answer, fields)

    server.route(exchange.method, path, wrapped)


def _suci(fields: Dict[str, Any]) -> Suci:
    return Suci(fields["mcc"], fields["mnc"], fields["scheme"], fields.get("keyId", 1),
                fields["schemeOutput"])


def _auth_request(suci: Optional[Shape] = None, resync: Optional[Shape] = None) -> Shape:
    return Shape(
        "servingNetworkName", Field("supi", optional=True),
        Field("suci", OBJECT, optional=True, shape=suci),
        Field("resynchronizationInfo", OBJECT, optional=True, shape=resync),
        one_of=("supi", "suci"),
    )


PROFILE = Shape(
    "nfInstanceId", "nfType", "endpoint", Field("services", LIST, optional=True),
    Field("metadata", MAP, optional=True), title="NF profile", build=NFProfile.from_dict,
)
SUCI = Shape(
    "mcc", "mnc", Field("scheme", INT), Field("keyId", INT, optional=True),
    hexf("schemeOutput"), title="SUCI", build=_suci,
)
RESYNC = Shape(hexf("rand", 16), hexf("auts", 14), title="resynchronizationInfo")
_BY_SUPI = Shape("supi")
_AUTH_DATA = Shape("supi", hexf("k", 16), hexf("opc", 16), hexf("sqn", 6), hexf("amfField", 2))
_UNKNOWN_SUBSCRIBER = (None, "UDR rejected the subscriber")
# A P-AKA module's refusal is its caller's gateway error.
_MODULE_ERROR = (502, "{server} module error: {status}")

EXCHANGES: Dict[str, Exchange] = {
    NRF_REGISTER: Exchange(
        "NRF", PROFILE, Shape("nfInstanceId"), (None, "NRF registration failed: {status}"),
        "PUT", 201,
    ),
    NRF_DISCOVER: Exchange(
        "NRF", Shape("targetNfType"), Shape(Field("nfInstances", LIST, shape=PROFILE)),
        (None, "NRF discovery failed: {status}"), "GET",
    ),
    UDR_AUTH_SUBSCRIPTION: Exchange("UDR", _BY_SUPI, _AUTH_DATA, _UNKNOWN_SUBSCRIBER),
    UDR_AUTH_PEEK: Exchange("UDR", _BY_SUPI, _AUTH_DATA, _UNKNOWN_SUBSCRIBER),
    UDR_AUTH_RESYNC: Exchange(
        "UDR", Shape("supi", Field("sqnMs", INT)), Shape("supi", hexf("sqn", 6)),
        (None, "UDR resync failed"),
    ),
    # The UDM (SIDF) judges the SUCI and the AUTS token; the AUSF forwards
    # both untouched, so their rejects (and those texts on the UDM → AUSF
    # wire) stay the UDM's.
    UDM_UE_AUTH_GET: Exchange(
        "UDM", _auth_request(SUCI, RESYNC),
        Shape(hexf("rand", 16), hexf("autn", 16), hexf("xresStar", 16), hexf("kausf", 32),
              "supi"),
        (None, "UDM rejected authentication"),
    ),
    AUSF_UE_AUTH: Exchange(
        "AUSF", _auth_request(),
        Shape("authCtxId", hexf("rand", 16), hexf("autn", 16), hexf("hxresStar", 16)),
        (None, "AUSF refused authentication ({status})"), status=201,
    ),
    AUSF_UE_AUTH_CONFIRM: Exchange(
        "AUSF", Shape("authCtxId", hexf("resStar", 16)),
        # A failed confirmation names neither the SUPI nor a key.
        Shape("result", Field("supi", optional=True),
              Field("kseaf", HEX, 32, optional=True)),
        (None, "AUSF confirmation failed"),
    ),
    SMF_PDU_SESSION: Exchange(
        "SMF", Shape("supi", Field("sessionId", INT), "dnn"),
        Shape("ueAddress", "qosFlow", "sessionKey"),
        (None, "SMF rejected PDU session: {status}"), status=201,
    ),
    UPF_N4_SESSION: Exchange(
        "UPF", Shape("ueAddress", "dnn"), Shape("installed"),
        (502, "UPF rejected N4 session"), status=201,
    ),
    # The Table I rows: the labelled fields, in the paper's order.
    EUDM_GENERATE_AV: Exchange(
        "eUDM",
        Shape("supi", hexf("opc", 16, "OPc"), hexf("rand", 16, "RAND"),
              hexf("sqn", 6, "SQN"), hexf("amfField", 2, "AMFid"), "snn"),
        Shape(hexf("rand", 16, "RAND"), hexf("xresStar", 16, "XRES*"),
              hexf("kausf", 32, "KAUSF"), hexf("autn", 16, "AUTN")),
        _MODULE_ERROR,
    ),
    # Its refusal (403: the AUTS does not verify) is the answer itself.
    EUDM_VERIFY_AUTS: Exchange(
        "eUDM", Shape("supi", hexf("opc", 16), hexf("rand", 16), hexf("auts", 14)),
        Shape(Field("sqnMs", INT)), (None, "AUTS verification failed"),
    ),
    EAUSF_DERIVE_SE_AV: Exchange(
        "eAUSF",
        # Table I sizes the SNN at 2 bytes; the spec SNN is a string of
        # ~32 (DESIGN.md §2).
        Shape(hexf("rand", 16, "RAND"), hexf("xresStar", 16, "XRES*"),
              Field("snn", STR, 32, label="SNN"), hexf("kausf", 32, "KAUSF"), hexf("autn", 16)),
        # HXRES*: Table I lists 8 bytes, TS 33.501 A.5 defines 16.
        Shape(hexf("kseaf", 32, "KSEAF"), hexf("hxresStar", 16, "HXRES*")),
        _MODULE_ERROR,
    ),
    EAMF_DERIVE_KAMF: Exchange(
        "eAMF", Shape(hexf("kseaf", 32, "KSEAF"), "supi", hexf("abba", 2)),
        Shape(hexf("kamf", 32, "KAMF")), _MODULE_ERROR,
    ),
    ERROR: Exchange("peer", None, Shape("error")),
}
