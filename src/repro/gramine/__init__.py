"""Gramine-SGX LibOS layer.

Gramine runs unmodified binaries inside SGX enclaves by interposing a
library OS between the application and the host: syscalls become OCALLs
through the (untrusted) Platform Adaptation Layer, external data is
validated by shielding code, and a handful of helper threads service IPC,
timers/async events and pipe TLS handshakes — which is why an enclave
needs at least **4** threads to run a single-threaded server consistently
(paper §V-B2).

GSC (Gramine Shielded Containers) wraps this for Docker images: it
appends Gramine to the image, templates a manifest that marks essentially
the whole root filesystem as trusted files, and signs the result.
"""
