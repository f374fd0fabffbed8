"""Gramine manifest parsing and validation."""

import pytest

from repro.gramine.manifest import GramineManifest, ManifestError, format_size, parse_size


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512M", 512 * 1024**2),
            ("8G", 8 * 1024**3),
            ("64K", 64 * 1024),
            ("4096", 4096),
            (" 1g ", 1024**3),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "-1G", "0M", "1.5G"])
    def test_invalid(self, text):
        with pytest.raises(ManifestError):
            parse_size(text)

    def test_format_size_roundtrip(self):
        assert format_size(512 * 1024**2) == "512M"
        assert format_size(8 * 1024**3) == "8G"
        assert parse_size(format_size(12345 * 1024)) == 12345 * 1024


class TestManifest:
    def paper_manifest(self, **overrides):
        defaults = dict(
            entrypoint="/opt/oai/eudm-aka",
            enclave_size="512M",
            max_threads=4,
            preheat_enclave=True,
            debug=True,
            enable_stats=True,
        )
        defaults.update(overrides)
        return GramineManifest(**defaults)

    def test_paper_settings_valid(self):
        manifest = self.paper_manifest()
        assert manifest.enclave_size_bytes == 512 * 1024**2
        assert manifest.max_threads == 4
        assert manifest.preheat_enclave

    def test_entrypoint_required(self):
        with pytest.raises(ManifestError):
            self.paper_manifest(entrypoint="")

    def test_threads_must_be_positive(self):
        with pytest.raises(ManifestError):
            self.paper_manifest(max_threads=0)

    def test_bad_size_rejected(self):
        with pytest.raises(ManifestError):
            self.paper_manifest(enclave_size="lots")

    def test_trusted_allowed_overlap_rejected(self):
        with pytest.raises(ManifestError):
            self.paper_manifest(
                trusted_files=["/etc/app.conf"], allowed_files=["/etc/app.conf"]
            )

    def test_json_roundtrip(self):
        manifest = self.paper_manifest(
            trusted_files=["/opt/oai/eudm-aka", "/usr/lib/libssl.so.1.1"],
            allowed_files=["/tmp/scratch"],
            env={"LOG_LEVEL": "info"},
        )
        restored = GramineManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ManifestError):
            GramineManifest.from_json("{not json")

