#!/usr/bin/env python3
"""Slice lifecycle: GSC build → sign → launch → attest → seal → teardown.

Shows the operator-facing deployment pipeline of §IV-C piece by piece,
below the Testbed convenience layer: graminizing a module image, signing
it, loading the enclave through the PAL under aesmd launch control,
verifying it by remote attestation, sealing a credential to it, and
tearing the slice down (including what happens when someone tampers with
the image).

Run:  python examples/slice_lifecycle.py
"""

from repro.container.engine import ContainerEngine
from repro.container.image import oai_base_image
from repro.gramine.gsc import build_gsc_image, sign_gsc_image
from repro.gramine.manifest import GramineManifest
from repro.gramine.pal import PlatformAdaptationLayer
from repro.hw.host import paper_testbed_host
from repro.sgx.aesm import AesmDaemon, LaunchDeniedError
from repro.sgx.attestation import AttestationService, QuotingEnclave, verify_quote
from repro.sgx.epc import EpcManager
from repro.sgx.errors import AttestationError
from repro.sgx.sealing import SealPolicy, seal, unseal

OPERATOR_KEY = b"vno-operator-signing-key-2024-001"


def main() -> None:
    host = paper_testbed_host()
    print(f"Host: {host.name} — {host.cpu.spec.model} x{len(host.cpus)}, "
          f"{host.total_epc_bytes // 1024**3} GB combined EPC")

    # 1. Build the module image and graminize it.
    image, _ = oai_base_image("eudm-aka", bulk_mb=3000)
    manifest = GramineManifest(
        entrypoint=image.entrypoint,
        enclave_size="512M",
        max_threads=4,
        preheat_enclave=True,
        enable_stats=True,
    )
    gsc = build_gsc_image(image, manifest)
    print(f"\n[gsc build] {image.reference} -> {gsc.image.reference}")
    print(f"  trusted files: {len(gsc.manifest.trusted_files)} paths, "
          f"{gsc.build_info.trusted_files_bytes / 1024**3:.2f} GB to verify at load")

    # 2. An unsigned production enclave cannot launch.
    epc = EpcManager(host.total_epc_bytes, host.cpu)
    pal = PlatformAdaptationLayer(host, epc, AesmDaemon("platform-0"))
    try:
        pal.load_enclave(gsc.build_info)
        raise SystemExit("unsigned enclave launched?!")
    except LaunchDeniedError as denial:
        print(f"\n[launch control] unsigned image refused: {denial}")

    # 3. Sign and launch.
    signed = sign_gsc_image(gsc, OPERATOR_KEY)
    enclave, span = pal.load_enclave(signed.build_info)
    print(f"\n[launch] enclave up in {span.seconds:.1f} s "
          f"(MRENCLAVE {enclave.measurement.hex()[:16]}…)")

    # 4. Remote attestation before trusting it with keys.
    service = AttestationService()
    qe = QuotingEnclave("platform-0", service)
    quote = qe.quote(enclave, report_data=b"provisioning-kex-pubkey")
    verify_quote(quote, service, expected_mrenclave=enclave.measurement.mrenclave,
                 allow_debug=True)
    print("[attest] quote verified against the expected MRENCLAVE")

    # A tampered build would measure differently and fail verification:
    try:
        verify_quote(quote, service, expected_mrenclave=bytes(32), allow_debug=True)
    except AttestationError as error:
        print(f"[attest] tampered expectation rejected: {error}")

    # 5. Seal a credential to the enclave identity (the KI 27 pattern).
    credential = b"nudm-tls-client-certificate-key"
    blob = seal(enclave, credential, policy=SealPolicy.MRSIGNER,
                platform_id="platform-0")
    assert unseal(enclave, blob, platform_id="platform-0") == credential
    print(f"[seal] credential sealed ({len(blob.ciphertext)} bytes ciphertext); "
          f"unseals only inside the operator's enclaves on this platform")

    # 6. Teardown scrubs the EPC.
    enclave.destroy()
    print(f"\n[teardown] EPC resident pages after destroy: {epc.resident_pages}")


if __name__ == "__main__":
    main()
