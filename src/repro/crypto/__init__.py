"""Cryptography substrate.

Unlike the hardware substrates, nothing here is simulated: these are exact
implementations of the algorithms the 5G-AKA protocol runs —

* :mod:`repro.crypto.aes` — AES-128 block cipher (pure Python; the
  standard library ships no AES and this reproduction is offline),
* :mod:`repro.crypto.milenage` — the MILENAGE algorithm set f1–f5*
  (3GPP TS 35.205/35.206) used for MAC/RES/CK/IK/AK generation,
* :mod:`repro.crypto.kdf` — the 3GPP generic KDF (TS 33.220 Annex B) and
  the 5G key-derivation tree of TS 33.501 Annex A (K_AUSF, K_SEAF, K_AMF,
  RES*/XRES*, HXRES*),
* :mod:`repro.crypto.suci` — SUPI concealment via ECIES Profile A
  (Curve25519, TS 33.501 Annex C),
* :mod:`repro.crypto.tls` — TLS session model with real AEAD-style record
  protection plus the latency cost hooks the network substrate uses.
"""
