"""Attack executions: must succeed on containers, fail on SGX.

Both directions matter: an attack that fails everywhere proves nothing
about HMEE, and one that succeeds everywhere means the mitigation is
fiction.
"""

from repro.security.attacks import (
    AttestationSpoofAttack,
    FunctionTamperAttack,
    ImageSecretExtractionAttack,
    MemoryIntrospectionAttack,
    NetworkSniffAttack,
    VirtualKeyStoreAttack,
)
from repro.security.keyissues import _credential_image
from repro.security.threat import Attacker


def armed_attacker(testbed, name="mallory"):
    attacker = Attacker(name=name, host=testbed.host, engine=testbed.engine)
    assert attacker.full_chain()
    return attacker


def registered(testbed, count=1):
    for _ in range(count):
        ue = testbed.add_subscriber()
        assert testbed.register(ue, establish_session=False).success
    return testbed


class TestMemoryIntrospection:
    def test_succeeds_on_container(self, container_testbed):
        testbed = registered(container_testbed)
        result = MemoryIntrospectionAttack().run(armed_attacker(testbed), testbed)
        assert result.succeeded
        # Real key material was exfiltrated, including subscriber keys.
        assert any("k:" in key for key in result.evidence)
        assert any("last_kausf" in key for key in result.evidence)

    def test_stolen_key_is_the_real_subscriber_key(self, container_testbed):
        testbed = container_testbed
        ue = testbed.add_subscriber()
        assert testbed.register(ue, establish_session=False).success
        result = MemoryIntrospectionAttack().run(armed_attacker(testbed), testbed)
        stolen = result.evidence[f"eudm/k:{ue.usim.supi}"]
        assert bytes.fromhex(stolen) == ue.usim._k

    def test_fails_on_sgx(self, sgx_testbed):
        testbed = registered(sgx_testbed)
        result = MemoryIntrospectionAttack().run(armed_attacker(testbed), testbed)
        assert not result.succeeded
        assert result.evidence == {}


class TestVirtualKeyStore:
    def test_succeeds_without_attestation(self, container_testbed):
        result = VirtualKeyStoreAttack().run(
            armed_attacker(container_testbed), container_testbed
        )
        assert result.succeeded

    def test_fails_with_attestation(self, sgx_testbed):
        result = VirtualKeyStoreAttack().run(armed_attacker(sgx_testbed), sgx_testbed)
        assert not result.succeeded


class TestImageSecretExtraction:
    def test_plaintext_credentials_recovered(self):
        result = ImageSecretExtractionAttack().run_against_image(
            _credential_image(sealed=False), sealed=False
        )
        assert result.succeeded
        assert "credentials" in result.evidence

    def test_sealed_credentials_useless(self):
        result = ImageSecretExtractionAttack().run_against_image(
            _credential_image(sealed=True), sealed=True
        )
        assert not result.succeeded

    def test_image_without_secret(self):
        from repro.container.image import oai_base_image

        image, _ = oai_base_image("eudm-aka", bulk_mb=10)
        result = ImageSecretExtractionAttack().run_against_image(image, sealed=False)
        assert not result.succeeded


class TestFunctionTamper:
    def test_undetected_on_container(self, container_testbed):
        result = FunctionTamperAttack().run(
            armed_attacker(container_testbed), container_testbed
        )
        assert result.succeeded

    def test_detected_on_sgx(self, sgx_testbed):
        result = FunctionTamperAttack().run(armed_attacker(sgx_testbed), sgx_testbed)
        assert not result.succeeded
        assert "MRENCLAVE" in result.notes


class TestAttestationSpoof:
    def test_wins_by_default_without_hmee(self, container_testbed):
        result = AttestationSpoofAttack().run(
            armed_attacker(container_testbed), container_testbed
        )
        assert result.succeeded

    def test_forged_quote_rejected_with_hmee(self, sgx_testbed):
        result = AttestationSpoofAttack().run(armed_attacker(sgx_testbed), sgx_testbed)
        assert not result.succeeded


class TestNetworkSniff:
    """TLS protects the bridge in BOTH deployments (orthogonal to HMEE)."""

    def test_fails_on_container(self, container_testbed):
        result = NetworkSniffAttack().run(
            armed_attacker(container_testbed), container_testbed
        )
        assert not result.succeeded
        assert "TLS-protected" in result.notes

    def test_fails_on_sgx(self, sgx_testbed):
        result = NetworkSniffAttack().run(armed_attacker(sgx_testbed), sgx_testbed)
        assert not result.succeeded
