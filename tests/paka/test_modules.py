"""P-AKA module servers: endpoint behaviour and crypto equivalence."""

import json

import pytest

from repro.aka import HomeAuthVector, derive_se_av, generate_he_av
from repro.container.engine import ContainerEngine
from repro.crypto.kdf import derive_kamf, serving_network_name
from repro.hw.host import paper_testbed_host
from repro.net.http import HttpClient
from repro.net.sbi import (
    EAMF_DERIVE_KAMF,
    EAUSF_DERIVE_SE_AV,
    EUDM_GENERATE_AV,
)
from repro.paka.deploy import IsolationMode, PakaDeployment
from repro.runtime.native import NativeRuntime

SNN = serving_network_name("001", "01").decode()
K = bytes.fromhex("465b5ce8b199b49faa5f0a2ee238a6bc")
OPC = bytes.fromhex("cd63cb71954a9f4e48a5994e37a02baf")
RAND = bytes.fromhex("23553cbe9637a89d218ae64dae47bf35")
SQN = (7).to_bytes(6, "big")
SUPI = "imsi-001010000000001"


@pytest.fixture(params=[IsolationMode.CONTAINER, IsolationMode.SGX])
def slice_and_client(request):
    host = paper_testbed_host(seed=31)
    engine = ContainerEngine(host)
    network = engine.create_network("oai-bridge")
    deployment = PakaDeployment(host, engine, network)
    slice_ = deployment.deploy(request.param)
    client = HttpClient("test-vnf", NativeRuntime("test-vnf", host), network)
    return slice_, client


def post(client, module, path, payload):
    connection = client.connect(module.server)
    return client.request(
        connection, "POST", path, body=json.dumps(payload).encode()
    )


def test_eudm_generates_spec_correct_av(slice_and_client):
    slice_, client = slice_and_client
    eudm = slice_.module("eudm")
    eudm.provision_direct(SUPI, K)
    response = post(client, eudm, EUDM_GENERATE_AV, {
        "supi": SUPI, "opc": OPC.hex(), "rand": RAND.hex(),
        "sqn": SQN.hex(), "amfField": "8000", "snn": SNN,
    })
    assert response.ok
    body = json.loads(response.body)
    expected = generate_he_av(k=K, opc=OPC, rand=RAND, sqn=SQN, snn=SNN.encode())
    assert bytes.fromhex(body["autn"]) == expected.autn
    assert bytes.fromhex(body["xresStar"]) == expected.xres_star
    assert bytes.fromhex(body["kausf"]) == expected.kausf


def test_eudm_unprovisioned_supi_404(slice_and_client):
    slice_, client = slice_and_client
    response = post(client, slice_.module("eudm"), EUDM_GENERATE_AV, {
        "supi": "imsi-001019999999999", "opc": OPC.hex(), "rand": RAND.hex(),
        "sqn": SQN.hex(), "amfField": "8000", "snn": SNN,
    })
    assert response.status == 404


def test_eudm_validates_parameter_sizes(slice_and_client):
    slice_, client = slice_and_client
    eudm = slice_.module("eudm")
    eudm.provision_direct(SUPI, K)
    response = post(client, eudm, EUDM_GENERATE_AV, {
        "supi": SUPI, "opc": "00", "rand": RAND.hex(),
        "sqn": SQN.hex(), "amfField": "8000", "snn": SNN,
    })
    assert response.status == 400


def test_eausf_derives_se_av(slice_and_client):
    slice_, client = slice_and_client
    he_av = generate_he_av(k=K, opc=OPC, rand=RAND, sqn=SQN, snn=SNN.encode())
    response = post(client, slice_.module("eausf"), EAUSF_DERIVE_SE_AV, {
        "rand": he_av.rand.hex(), "autn": he_av.autn.hex(),
        "xresStar": he_av.xres_star.hex(), "kausf": he_av.kausf.hex(), "snn": SNN,
    })
    assert response.ok
    expected_se, expected_kseaf = derive_se_av(he_av, SNN.encode())
    body = json.loads(response.body)
    assert bytes.fromhex(body["hxresStar"]) == expected_se.hxres_star
    assert bytes.fromhex(body["kseaf"]) == expected_kseaf


def test_eamf_derives_kamf(slice_and_client):
    slice_, client = slice_and_client
    kseaf = bytes(range(32))
    response = post(client, slice_.module("eamf"), EAMF_DERIVE_KAMF, {
        "kseaf": kseaf.hex(), "supi": SUPI, "abba": "0000",
    })
    assert response.ok
    assert bytes.fromhex(json.loads(response.body)["kamf"]) == derive_kamf(kseaf, SUPI)


def test_module_keeps_derived_keys_in_memory(slice_and_client):
    """The freshly derived keys live in module memory — the asset the
    isolation protects (plaintext in container, ciphertext in SGX)."""
    slice_, client = slice_and_client
    kseaf = bytes(range(32))
    post(client, slice_.module("eamf"), EAMF_DERIVE_KAMF, {
        "kseaf": kseaf.hex(), "supi": SUPI, "abba": "0000",
    })
    kamf = derive_kamf(kseaf, SUPI)
    assert slice_.module("eamf").runtime.load_secret("last_kamf") == kamf
    view = slice_.module("eamf").runtime.memory_view("container-engine")
    if slice_.shielded:
        assert kamf.hex().encode() not in view
    else:
        assert kamf.hex().encode() in view


def test_provision_direct_validates_key(slice_and_client):
    slice_, _ = slice_and_client
    with pytest.raises(ValueError):
        slice_.module("eudm").provision_direct(SUPI, b"short")
