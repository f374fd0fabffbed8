"""A SUCI concealed on first read is the SUCI concealed eagerly (hypothesis).

The UE hands the core a :class:`DeferredSuci`; its wire fields must be
exactly :func:`conceal_supi`'s, computed once however often they are
read, and whether a request is ever read must not move the UE's next
ephemeral key.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import suci as suci_module
from repro.crypto.suci import (
    DeferredSuci,
    Suci,
    Supi,
    conceal_supi,
    deconceal_suci,
    x25519_public_key,
)
from repro.ran.ue import UserEquipment
from repro.ran.usim import Usim
from repro.sim.rng import RngService

HN_PRIVATE = bytes(range(1, 33))
HN_PUBLIC = x25519_public_key(HN_PRIVATE)
K, OPC = bytes(range(16)), bytes(range(16, 32))

msins = st.text(alphabet="0123456789", min_size=5, max_size=10)
ephemerals = st.binary(min_size=32, max_size=32)


@given(msin=msins, eph=ephemerals)
@settings(max_examples=25, deadline=None)
def test_deferred_fields_are_the_eager_concealment(msin, eph):
    supi = Supi("001", "01", msin)
    eager = conceal_supi(supi, HN_PUBLIC, eph)
    fields = DeferredSuci(supi, HN_PUBLIC, eph).copy()
    assert fields == {
        "mcc": eager.mcc,
        "mnc": eager.mnc,
        "scheme": eager.protection_scheme,
        "keyId": eager.home_network_key_id,
        "schemeOutput": eager.scheme_output.hex(),
    }
    wire = Suci(
        mcc=fields["mcc"],
        mnc=fields["mnc"],
        protection_scheme=fields["scheme"],
        home_network_key_id=fields["keyId"],
        scheme_output=bytes.fromhex(fields["schemeOutput"]),
    )
    assert deconceal_suci(wire, HN_PRIVATE) == supi


@given(msin=msins, eph=ephemerals)
@settings(max_examples=10, deadline=None)
def test_reading_twice_conceals_once(msin, eph):
    supi = Supi("001", "01", msin)
    calls = []

    def counting(*args):
        calls.append(args)
        return conceal_supi(*args)

    deferred = DeferredSuci(supi, HN_PUBLIC, eph)
    with mock.patch.object(suci_module, "conceal_supi", counting):
        assert calls == []
        first = deferred.copy()
        assert deferred.get("schemeOutput") == first["schemeOutput"]
        assert deferred.copy() == first
    assert len(calls) == 1
    # Concealed, it keeps the wire fields only.
    assert (deferred._supi, deferred._eph_private_key) == (None, None)


def _ue() -> UserEquipment:
    usim = Usim(supi=Supi("001", "01", "0000000001"), k=K, opc=OPC)
    return UserEquipment("ue-1", usim, HN_PUBLIC, RngService(seed=7), "5G:mnc001.mcc001")


@given(read=st.lists(st.booleans(), max_size=4))
@settings(max_examples=10, deadline=None)
def test_the_next_ephemeral_does_not_depend_on_what_was_read(read):
    reader, skipper = _ue(), _ue()
    for was_read in read:
        request = reader.build_registration_request()
        if was_read:
            request.suci.copy()
        skipper.build_registration_request()
    assert (
        reader.build_registration_request().suci.copy()
        == skipper.build_registration_request().suci.copy()
    )
