"""Gramine manifest.

The manifest declares how the LibOS runs the application: entrypoint,
enclave size, allowed thread count, trusted/allowed files, and the debug /
stats / preheat switches the paper sets (``sgx.preheat_enclave = true``,
``sgx.max_threads = 4``, 512 MB enclave, stats + debug for metrics).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


class ManifestError(Exception):
    """Invalid manifest contents."""


_SIZE_SUFFIXES = {"K": 1024, "M": 1024**2, "G": 1024**3}


def parse_size(text: str) -> int:
    """Parse a Gramine size string such as ``512M`` or ``8G``."""
    if not isinstance(text, str):
        raise ManifestError(f"size must be a string, got {text!r}")
    raw = text.strip().upper()
    if not raw:
        raise ManifestError("empty size string")
    if raw[-1] in _SIZE_SUFFIXES:
        number, multiplier = raw[:-1], _SIZE_SUFFIXES[raw[-1]]
    else:
        number, multiplier = raw, 1
    try:
        value = int(number)
    except ValueError:
        raise ManifestError(f"bad size string {text!r}")
    if value <= 0:
        raise ManifestError(f"size must be positive: {text!r}")
    return value * multiplier


def format_size(nbytes: int) -> str:
    for suffix in ("G", "M", "K"):
        unit = _SIZE_SUFFIXES[suffix]
        if nbytes % unit == 0 and nbytes >= unit:
            return f"{nbytes // unit}{suffix}"
    return str(nbytes)


@dataclass
class GramineManifest:
    """A validated manifest (the JSON file GSC feeds to Gramine)."""

    entrypoint: str
    enclave_size: str = "512M"
    max_threads: int = 4
    preheat_enclave: bool = False
    debug: bool = False
    enable_stats: bool = False
    trusted_files: List[str] = field(default_factory=list)
    allowed_files: List[str] = field(default_factory=list)
    env: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def enclave_size_bytes(self) -> int:
        return parse_size(self.enclave_size)

    def validate(self) -> None:
        if not isinstance(self.entrypoint, str) or not self.entrypoint:
            raise ManifestError("manifest needs an entrypoint")
        if not isinstance(self.max_threads, int) or self.max_threads < 1:
            raise ManifestError(f"sgx.max_threads must be >= 1, got {self.max_threads}")
        self.enclave_size_bytes  # raises on bad size strings
        overlap = set(self.trusted_files) & set(self.allowed_files)
        if overlap:
            raise ManifestError(
                f"files cannot be both trusted and allowed: {sorted(overlap)[:3]}"
            )

    # ----------------------------------------------------------- serialize

    def to_dict(self) -> Dict[str, Any]:
        return {
            "libos": {"entrypoint": self.entrypoint},
            "loader": {"env": dict(self.env)},
            "sgx": {
                "enclave_size": self.enclave_size,
                "max_threads": self.max_threads,
                "preheat_enclave": self.preheat_enclave,
                "debug": self.debug,
                "enable_stats": self.enable_stats,
                "trusted_files": list(self.trusted_files),
                "allowed_files": list(self.allowed_files),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GramineManifest":
        try:
            sgx = data.get("sgx", {})
            return cls(
                entrypoint=data["libos"]["entrypoint"],
                enclave_size=sgx.get("enclave_size", "512M"),
                max_threads=sgx.get("max_threads", 4),
                preheat_enclave=sgx.get("preheat_enclave", False),
                debug=sgx.get("debug", False),
                enable_stats=sgx.get("enable_stats", False),
                trusted_files=list(sgx.get("trusted_files", [])),
                allowed_files=list(sgx.get("allowed_files", [])),
                env=dict(data.get("loader", {}).get("env", {})),
            )
        except KeyError as missing:
            raise ManifestError(f"manifest missing required key: {missing}")
        except (AttributeError, TypeError, ValueError) as error:
            raise ManifestError(f"malformed manifest: {error}") from None

    @classmethod
    def from_json(cls, text: str) -> "GramineManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ManifestError(f"manifest is not valid JSON: {error}")
        return cls.from_dict(data)
