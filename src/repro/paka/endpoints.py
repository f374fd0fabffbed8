"""Table I — the enclave I/O contracts of the P-AKA modules.

The paper's Table I fixes, for each module, the parameters crossing the
enclave boundary and their sizes, plus the functions executed inside.
Each contract is a view of its module's exchange in
:data:`repro.net.sbi.EXCHANGES`: the fields carrying a Table I label, in
the table's order, at the table's size — so the endpoint handlers, the
wire and ``tests/paka/test_endpoints.py`` all read one declaration.

Spec note: the paper lists HXRES* as 8 bytes and SNN as 2; TS 33.501
defines HXRES* as 16 bytes and the SNN as a variable-length string
(~32 bytes for a 3-digit MCC / 2-digit MNC).  We implement the spec and
record the deviation in the table and in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.net.sbi import (
    EAMF_DERIVE_KAMF,
    EAUSF_DERIVE_SE_AV,
    EUDM_GENERATE_AV,
    EXCHANGES,
    Shape,
)


@dataclass(frozen=True)
class IoParam:
    """One enclave input or output parameter."""

    name: str
    nbytes: int


def _params(shape: Shape) -> Tuple[IoParam, ...]:
    return tuple(IoParam(f.label, f.nbytes) for f in shape.fields if f.label)


@dataclass(frozen=True)
class EnclaveIoContract:
    """One row of Table I."""

    module: str
    endpoint: str
    executes: Tuple[str, ...]

    @property
    def inputs(self) -> Tuple[IoParam, ...]:
        return _params(EXCHANGES[self.endpoint].request)

    @property
    def outputs(self) -> Tuple[IoParam, ...]:
        return _params(EXCHANGES[self.endpoint].answer)

    @property
    def input_bytes(self) -> int:
        return sum(p.nbytes for p in self.inputs)

    @property
    def output_bytes(self) -> int:
        return sum(p.nbytes for p in self.outputs)

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


EUDM_CONTRACT = EnclaveIoContract("eUDM", EUDM_GENERATE_AV, ("f1", "f2345", "KAUSF", "AUTN"))
EAUSF_CONTRACT = EnclaveIoContract("eAUSF", EAUSF_DERIVE_SE_AV, ("KSEAF", "HXRES*"))
EAMF_CONTRACT = EnclaveIoContract("eAMF", EAMF_DERIVE_KAMF, ("KAMF",))
