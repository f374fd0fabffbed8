"""AUSF: authentication contexts, SE AV derivation, confirmation."""

import pytest

from repro.fivegc.ausf import _CONTEXT_TTL_NS
from repro.net.rest import JsonApiError
from repro.net.sbi import AUSF_UE_AUTH, AUSF_UE_AUTH_CONFIRM


def authenticate(testbed, ue):
    from repro.crypto.suci import conceal_supi

    suci = conceal_supi(
        ue.usim.supi, testbed.hn_public_key, testbed.host.rng.randbytes("eph2", 32)
    )
    return testbed.amf.call(
        testbed.ausf, AUSF_UE_AUTH,
        {
            "servingNetworkName": testbed.snn,
            "suci": {"mcc": suci.mcc, "mnc": suci.mnc, "scheme": 1, "keyId": 1,
                     "schemeOutput": suci.scheme_output.hex()},
        },
    )


def confirm(testbed, auth_ctx_id, res_star):
    return testbed.amf.call(
        testbed.ausf, AUSF_UE_AUTH_CONFIRM, {"authCtxId": auth_ctx_id, "resStar": res_star}
    )


def refused_with(call):
    """The status of an answer the caller reports as a refusal."""
    with pytest.raises(JsonApiError) as caught:
        call()
    return caught.value.status


def _res_star(testbed, ue, body):
    result = ue.usim.authenticate(body["rand"], body["autn"], testbed.snn.encode())
    assert result.success
    return result.res_star


def test_authenticate_returns_se_av(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue)
    assert body["authCtxId"].startswith("authctx-")
    assert len(body["hxresStar"]) == 16
    # XRES*, K_AUSF and K_SEAF never appear in the SE AV response.
    assert "xresStar" not in body and "kausf" not in body and "kseaf" not in body


def test_confirmation_releases_kseaf(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue)
    # The genuine UE computes RES* through its USIM.
    answer = confirm(testbed, body["authCtxId"], _res_star(testbed, ue, body))
    assert answer["result"] == "AUTHENTICATION_SUCCESS"
    assert len(answer["kseaf"]) == 32
    assert answer["supi"] == str(ue.usim.supi)


def test_wrong_res_star_fails_confirmation(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    answer = confirm(testbed, authenticate(testbed, ue)["authCtxId"], bytes(16))
    assert answer == {"result": "AUTHENTICATION_FAILURE"}


def test_failed_context_is_consumed(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    ctx_id = authenticate(testbed, ue)["authCtxId"]
    confirm(testbed, ctx_id, bytes(16))
    assert refused_with(lambda: confirm(testbed, ctx_id, bytes(16))) == 404


def test_confirmed_context_is_consumed_and_kseaf_released_once(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue)
    res_star = _res_star(testbed, ue, body)
    first = confirm(testbed, body["authCtxId"], res_star)
    assert first["result"] == "AUTHENTICATION_SUCCESS"
    # The same RES* replayed against the same context: K_SEAF is not
    # handed out a second time.
    assert refused_with(lambda: confirm(testbed, body["authCtxId"], res_star)) == 404


def test_drained_registrations_leave_no_auth_context(monolithic_testbed):
    testbed = monolithic_testbed
    for _ in range(5):
        assert testbed.register(testbed.add_subscriber()).success
    assert len(testbed.ausf._contexts) == 0


# ------------------------------------------------------------- expiry
#
# A challenge nobody answers (a replayed SUCI, a rejected resync) is
# forgotten ``_CONTEXT_TTL_NS`` after it was issued, on the simulated
# clock: dropped when the next challenge is issued, refused if its
# confirmation turns up first.


def test_unanswered_challenges_are_gone_after_the_ttl(monolithic_testbed):
    testbed = monolithic_testbed
    clock = testbed.host.clock
    ue = testbed.add_subscriber()
    for _ in range(3):
        authenticate(testbed, ue)
    assert len(testbed.ausf._contexts) == 3
    # Not yet: the oldest is younger than the TTL when the fourth is issued.
    clock.advance(_CONTEXT_TTL_NS // 2)
    authenticate(testbed, ue)
    assert len(testbed.ausf._contexts) == 4
    # Half a TTL on, the first three are too old and the fourth is not.
    clock.advance(_CONTEXT_TTL_NS // 2 + 1)
    fifth = authenticate(testbed, ue)
    assert list(testbed.ausf._contexts) == ["authctx-4", fifth["authCtxId"]]
    clock.advance(_CONTEXT_TTL_NS + 1)
    authenticate(testbed, ue)
    assert list(testbed.ausf._contexts) == ["authctx-6"]


def test_expiry_spends_no_simulated_time_and_draws_nothing(monkeypatch):
    """Twins on one seed, one of which never expires anything: the same
    challenges come back at the same simulated nanosecond."""
    from repro.fivegc import ausf
    from repro.testbed import Testbed, TestbedConfig

    def run(ttl_ns):
        monkeypatch.setattr(ausf, "_CONTEXT_TTL_NS", ttl_ns)
        testbed = Testbed.build(TestbedConfig(isolation=None, seed=13))
        ue = testbed.add_subscriber()
        bodies = [authenticate(testbed, ue) for _ in range(3)]
        testbed.host.clock.advance(40_000_000_000)
        bodies.append(authenticate(testbed, ue))
        return bodies, testbed.host.clock.now_ns, len(testbed.ausf._contexts)

    expiring = run(_CONTEXT_TTL_NS)
    retaining = run(10**18)
    assert expiring[:2] == retaining[:2]
    assert (expiring[2], retaining[2]) == (1, 4)


def test_a_timely_confirmation_still_succeeds(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue)
    issued_ns = testbed.ausf._contexts[body["authCtxId"]].issued_ns
    # As late as the TTL allows, to the nanosecond the handler reads.
    testbed.host.clock.advance(_CONTEXT_TTL_NS - 1_000_000_000)
    assert testbed.host.clock.now_ns - issued_ns <= _CONTEXT_TTL_NS
    answer = confirm(testbed, body["authCtxId"], _res_star(testbed, ue, body))
    assert answer["result"] == "AUTHENTICATION_SUCCESS"
    assert len(answer["kseaf"]) == 32
    assert len(testbed.ausf._contexts) == 0


def test_a_late_confirmation_is_404_and_never_yields_kseaf(monolithic_testbed):
    testbed = monolithic_testbed
    ue = testbed.add_subscriber()
    body = authenticate(testbed, ue)
    res_star = _res_star(testbed, ue, body)
    testbed.host.clock.advance(_CONTEXT_TTL_NS)
    # The right RES*, too late — and nothing newer was issued in between,
    # so the context is still in the table when the confirmation arrives.
    assert body["authCtxId"] in testbed.ausf._contexts
    late = refused_with(lambda: confirm(testbed, body["authCtxId"], res_star))
    assert late == 404
    # Same answer as for an id that never existed.
    assert refused_with(lambda: confirm(testbed, "authctx-999", res_star)) == late


def test_contexts_stay_bounded_under_a_storm(sgx_testbed):
    """A ``storm-defended``-shaped run — suci-replay and auts-resync
    events that never confirm, between paced legitimate registrations —
    several TTLs long: what the AUSF holds is what the last TTL issued,
    not what the run did."""
    from repro.security.attacks import AttackPlane, generate_storm

    testbed = sgx_testbed
    ausf, clock = testbed.ausf, testbed.host.clock
    plane = AttackPlane(testbed)
    start_ns = clock.now_ns
    peak = 0
    events = generate_storm(seed=7, horizon_s=100.0, rate_per_s=3.0)
    for index, event in enumerate(events):
        remaining_ns = start_ns + event.at_ns - clock.now_ns
        if remaining_ns > 0:
            testbed.idle(remaining_ns / 1e9)
        plane.execute(event)
        if index % 25 == 0:
            assert testbed.register(testbed.add_subscriber()).success
        issued = [context.issued_ns for context in ausf._contexts.values()]
        assert issued == sorted(issued)
        assert not issued or issued[-1] - issued[0] <= _CONTEXT_TTL_NS
        peak = max(peak, len(issued))
    unanswered = plane.outcomes["suci-replay"]["pending"] + sum(
        plane.outcomes["auts-resync"].values()
    )
    assert clock.now_ns - start_ns > 3 * _CONTEXT_TTL_NS
    assert unanswered > 100
    # Roughly a third of the run fits in one TTL; none of it would have
    # been dropped without one.
    assert peak < unanswered / 2


def test_unknown_context_404(monolithic_testbed):
    testbed = monolithic_testbed
    assert refused_with(lambda: confirm(testbed, "authctx-999", bytes(16))) == 404


def test_serving_network_authorization(host):
    from repro.container.network import BridgeNetwork
    from repro.fivegc.ausf import Ausf

    bridge = BridgeNetwork(name="sbi", host=host)
    ausf = Ausf("ausf", host, bridge, allowed_snns={"5G:mnc001.mcc001.3gppnetwork.org"})
    from repro.fivegc.nf_base import NetworkFunction

    caller = NetworkFunction("caller", host, bridge)
    fields = {"servingNetworkName": "5G:mnc070.mcc901.3gppnetwork.org", "supi": "imsi-x"}
    assert refused_with(lambda: caller.call(ausf, AUSF_UE_AUTH, fields)) == 403
