"""HTTP/1.1 over TLS over the simulated bridge.

The server is modelled on Pistache's epoll reactor: each request is
surrounded by a configurable *syscall profile* — the sequence of host
syscalls the server issues while accepting, polling, reading and writing.
Under the native runtime each is a cheap trap; under Gramine each is an
OCALL, which is precisely how the paper's SGX overheads arise (§V-B3:
"network I/O operations … trigger OCALLs and ECALLs", "the Pistache HTTP
server uses epoll_wait system calls to monitor sockets").

Latency instrumentation follows the paper's definitions:

* ``L_F`` (functional latency) — measured by the server around the
  handler, i.e. the AKA function execution,
* ``L_T`` (total latency) — measured by the server from request received
  to response sent, so ``L_T = L_F + L_N``,
* ``R`` (response time) — measured by the client around the full exchange.

Each window is two reads of ``clock.now_ns`` at the edges of the span
that shows it; see docs/ARCHITECTURE.md for what one hop books.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from repro.container.network import BridgeNetwork, FrameLost, NetworkError
from repro.crypto.tls import (
    HANDSHAKE_CYCLES,
    TlsSession,
    establish_session,
    record_cycles,
)
from repro.runtime.base import Runtime
from repro.sim.clock import NS_PER_US
from repro.sim.metrics import BoundedSeries
from repro.sim.rng import RngService

Handler = Callable[["HttpRequest", "HandlerContext"], "HttpResponse"]

# One syscall profile entry: (name, bytes_out, bytes_in).
SyscallSpec = Tuple[str, int, int]


class HttpError(Exception):
    """Protocol-level failure (no route, bad payload, closed connection)."""


class UnresponsiveError(HttpError):
    """The peer accepted the frame but will never answer (crash window).

    Raised by a server's ``fault_gate``; the client converts it into a
    :class:`RequestTimeout` after waiting out its response deadline.
    """


class RequestTimeout(HttpError):
    """The client's per-attempt response deadline expired."""


@dataclass(frozen=True)
class RetryPolicy:
    """SBI client retry behaviour: per-attempt deadline + capped
    exponential backoff with multiplicative jitter.

    Backoff jitter draws from the client's own ``retry.<name>`` RNG
    stream, and only when a retry actually happens — fault-free runs
    never touch the stream, keeping golden clocks bit-identical.
    """

    max_attempts: int = 3
    timeout_us: float = 2_000_000.0  # per-attempt response deadline
    base_backoff_us: float = 50_000.0
    backoff_multiplier: float = 2.0
    max_backoff_us: float = 1_600_000.0
    jitter: float = 0.10

    def backoff_us(
        self, retry_index: int, rng: Optional[RngService] = None, stream: str = ""
    ) -> float:
        """Backoff before retry number ``retry_index`` (1-based)."""
        base = min(
            self.base_backoff_us * self.backoff_multiplier ** (retry_index - 1),
            self.max_backoff_us,
        )
        if rng is None or self.jitter <= 0:
            return base
        return rng.jitter(stream, base, self.jitter)


#: Default SBI policy for NF-to-NF calls (attached by NetworkFunction).
DEFAULT_SBI_RETRY = RetryPolicy()


# Serialized head-section cache: SBI traffic reuses a handful of
# (method, path, headers) / (status, headers) shapes for the whole
# campaign, so the f-string/sort/encode work happens once per shape.
_HEAD_CACHE: Dict[tuple, bytes] = {}


def _cache_head(key: tuple, start_line: str, header_items: tuple) -> bytes:
    """Serialize one head and remember it under ``key`` (either direction).

    Unique-header traffic cannot leak memory: past 8 192 shapes the cache
    starts over, so it never holds more than 8 193.
    """
    if len(_HEAD_CACHE) > 8192:
        _HEAD_CACHE.clear()
    header_lines = "".join(f"{k}: {v}\r\n" for k, v in sorted(header_items))
    head = _HEAD_CACHE[key] = f"{start_line}\r\n{header_lines}\r\n".encode()
    return head


def _request_head(method: str, path: str, header_items: tuple) -> bytes:
    key = (method, path, header_items)
    head = _HEAD_CACHE.get(key)
    return head or _cache_head(key, f"{method} {path} HTTP/1.1", header_items)


def _response_head(status: int, header_items: tuple) -> bytes:
    key = (status, header_items)
    head = _HEAD_CACHE.get(key)
    return head or _cache_head(key, f"HTTP/1.1 {status} X", header_items)


@dataclass
class HttpRequest:
    method: str
    path: str
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)

    def wire_bytes(self) -> bytes:
        head = _request_head(self.method, self.path, tuple(self.headers.items()))
        return head + self.body

    @classmethod
    def from_wire(cls, raw: bytes) -> "HttpRequest":
        head, _, body = raw.partition(b"\r\n\r\n")
        try:
            lines = head.decode().split("\r\n")
            method, path, _ = lines[0].split(" ", 2)
        except ValueError as exc:  # undecodable bytes, or not three fields
            raise HttpError(f"malformed request head: {exc}") from exc
        headers = {}
        for line in lines[1:]:
            if ": " in line:
                key, value = line.split(": ", 1)
                headers[key] = value
        return cls(method=method, path=path, body=body, headers=headers)


@dataclass
class HttpResponse:
    status: int
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def wire_bytes(self) -> bytes:
        head = _response_head(self.status, tuple(self.headers.items()))
        return head + self.body

    @classmethod
    def from_wire(cls, raw: bytes) -> "HttpResponse":
        head, _, body = raw.partition(b"\r\n\r\n")
        try:
            lines = head.decode().split("\r\n")
            status = int(lines[0].split(" ")[1])
        except (ValueError, IndexError) as exc:  # undecodable, short or non-numeric
            raise HttpError(f"malformed status line: {exc}") from exc
        headers = {}
        for line in lines[1:]:
            if ": " in line:
                key, value = line.split(": ", 1)
                headers[key] = value
        return cls(status=status, body=body, headers=headers)


@dataclass(frozen=True)
class ServerSyscallProfile:
    """The server's syscall footprint around one request.

    ``in_window_*`` syscalls fall inside the L_T measurement window
    (between request-received and response-sent); ``out_of_window``
    models the reactor chatter around it (epoll re-arms, timer fds,
    eventfd wakeups, futexes) that still costs OCALLs per request and
    therefore lands in the client-observed response time R and in the
    per-registration EENTER/EEXIT deltas of Table III.

    Every sequence is a tuple, so a profile is immutable and hashable:
    runtimes memoise what they compile from it process-wide.
    """

    in_window_pre: Tuple[SyscallSpec, ...]
    in_window_post: Tuple[SyscallSpec, ...]
    out_of_window: Tuple[SyscallSpec, ...]
    connection_setup: Tuple[SyscallSpec, ...]
    # Application-level parse/serialize compute, cycles per byte + fixed.
    parse_fixed_cycles: float = 9_000
    parse_per_byte_cycles: float = 14.0

    @staticmethod
    @lru_cache(maxsize=8)
    def pistache_like(reactor_chatter: int = 80) -> "ServerSyscallProfile":
        """The default Pistache-style profile used by the P-AKA modules.

        ``reactor_chatter`` scales the out-of-window reactor noise; the
        calibrated default lands each request at ≈90 syscalls total, the
        per-registration transition count the paper reports.  Built once
        per ``reactor_chatter`` value and process.
        """
        return ServerSyscallProfile(
            in_window_pre=(
                ("epoll_wait", 0, 0),
                ("recvmsg", 0, 512),
                ("recvmsg", 0, 512),
                ("clock_gettime", 0, 0),
            ),
            in_window_post=(
                ("sendmsg", 512, 0),
                ("sendmsg", 256, 0),
                ("epoll_ctl", 0, 0),
            ),
            out_of_window=tuple(
                _REACTOR_ROTATION[i % len(_REACTOR_ROTATION)]
                for i in range(reactor_chatter)
            ),
            connection_setup=(
                ("accept4", 0, 0),
                ("setsockopt", 0, 0),
                ("setsockopt", 0, 0),
                ("epoll_ctl", 0, 0),
                # TLS handshake records (hello, cert, kex, finished).
                ("recvmsg", 0, 512), ("sendmsg", 2048, 0),
                ("recvmsg", 0, 256), ("sendmsg", 320, 0),
                ("recvmsg", 0, 128), ("sendmsg", 64, 0),
                ("getrandom", 0, 64),
                ("epoll_ctl", 0, 0),
            ),
        )

    @staticmethod
    def userlevel_tcp() -> "ServerSyscallProfile":
        """A user-level TCP stack (mTCP/DPDK style) inside the process.

        The paper's §V-B7 optimization: pulling the TCP stack into the
        enclave removes almost every per-request syscall — polling the
        NIC rings is plain memory access — at the cost of a larger TCB.
        Per-request compute rises slightly (the stack now runs in the
        application), while the OCALL-able syscall count collapses.
        """
        return ServerSyscallProfile(
            in_window_pre=(("clock_gettime", 0, 0),),
            in_window_post=(),
            out_of_window=(
                ("clock_gettime", 0, 0),
                ("sched_yield", 0, 0),
                ("clock_gettime", 0, 0),
            ),
            connection_setup=(("getrandom", 0, 64),),
            # TCP/IP processing moves into the application.
            parse_fixed_cycles=9_000 + 14_000,
            parse_per_byte_cycles=14.0 + 3.5,
        )

    @staticmethod
    def pistache_startup() -> Tuple[SyscallSpec, ...]:
        """The server's start-up footprint (see ``_PISTACHE_STARTUP``)."""
        return _PISTACHE_STARTUP


# What the reactor does around each request, cycled ``reactor_chatter``
# times by ``ServerSyscallProfile.pistache_like``.
_REACTOR_ROTATION: Tuple[SyscallSpec, ...] = (
    ("epoll_wait", 0, 0),
    ("clock_gettime", 0, 0),
    ("futex", 0, 0),
    ("read", 0, 8),        # timerfd
    ("write", 8, 0),       # eventfd wakeup
    ("epoll_ctl", 0, 0),
    ("clock_gettime", 0, 0),
    ("sched_yield", 0, 0),
)

# The "Pistache server inside an enclave costs ~650 EENTER/EEXITs"
# startup footprint: sockets, TLS context, thread pool, epoll setup.
_PISTACHE_STARTUP: Tuple[SyscallSpec, ...] = (
    ("socket", 0, 0), ("setsockopt", 0, 0), ("bind", 0, 0),
    ("listen", 0, 0), ("epoll_ctl", 0, 0), ("clone", 0, 0),
    ("clone", 0, 0), ("getrandom", 0, 48),
    # TLS context: certificate chain + DH parameter loading.
    *(("openat", 0, 0), ("read", 0, 16384), ("close", 0, 0)) * 40,
    # Thread pool + allocator warmup.
    *(("mmap", 0, 0), ("brk", 0, 0), ("futex", 0, 0), ("clock_gettime", 0, 0)) * 130,
)


class HandlerContext:
    """What a request handler sees: the runtime of the serving module.

    The server measures L_F around the handler invocation, so everything
    the handler charges through ``context.runtime`` (the AKA function
    execution) lands in the functional-latency window; the surrounding
    parse/serialize/TLS/syscall work lands in L_T only.
    """

    def __init__(self, server: "HttpServer") -> None:
        self.server = server
        self.runtime = server.runtime


class HttpServer:
    """An epoll-reactor HTTPS server bound to a bridge endpoint."""

    def __init__(
        self,
        name: str,
        runtime: Runtime,
        network: BridgeNetwork,
        profile: Optional[ServerSyscallProfile] = None,
    ) -> None:
        self.name = name
        self.runtime = runtime
        self.network = network
        self.endpoint = network.attach(name)
        self.profile = profile or ServerSyscallProfile.pistache_like()
        self.started = False
        self._routes: Dict[Tuple[str, str], Handler] = {}
        # Fault-injection hook: consulted at the top of :meth:`serve`;
        # raises (e.g. UnresponsiveError) to fail the request.  None in
        # fault-free runs — zero cost on the hot path.
        self.fault_gate: Optional[Callable[["HttpServer"], None]] = None
        # Per-request latency records, in microseconds of simulated time,
        # aggregate and per path (so AKA-endpoint metrics are not diluted
        # by auxiliary requests).
        self.lf_us: BoundedSeries = BoundedSeries()
        self.lt_us: BoundedSeries = BoundedSeries()
        self.lf_us_by_path: Dict[str, BoundedSeries] = {}
        self.lt_us_by_path: Dict[str, BoundedSeries] = {}
        # Full server occupancy per request (L_T window + reactor chatter):
        # the serial-capacity denominator for horizontal-scaling estimates.
        self.busy_us: BoundedSeries = BoundedSeries()
        self.requests_served = 0
        # HandlerContext carries only (server, runtime), both fixed for the
        # server's lifetime: one instance serves every request.
        self._handler_context = HandlerContext(self)
        # The per-request syscall profiles replay for every serve();
        # compiling them hoists all per-spec cost/stat lookups into setup.
        self._in_window_pre = runtime.compile_syscalls(self.profile.in_window_pre)
        self._in_window_post = runtime.compile_syscalls(self.profile.in_window_post)
        self._out_of_window = runtime.compile_syscalls(self.profile.out_of_window)
        self._connection_setup = runtime.compile_syscalls(self.profile.connection_setup)

    # ------------------------------------------------------------- routing

    def route(self, method: str, path: str, handler: Handler) -> None:
        self._routes[(method.upper(), path)] = handler

    def _resolve(self, method: str, path: str) -> Handler:
        try:
            return self._routes[(method.upper(), path)]
        except KeyError:
            raise HttpError(f"{self.name}: no route {method} {path}")

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Run the server startup syscall footprint (socket/TLS/pool)."""
        if self.started:
            raise HttpError(f"server {self.name!r} already started")
        self.runtime.syscall_batch(ServerSyscallProfile.pistache_startup())
        self.started = True

    def stop(self) -> None:
        self.network.detach(self.name)
        self.started = False

    # ------------------------------------------------------------- serving

    def accept_connection(self, connection: "HttpConnection") -> None:
        if not self.started:
            raise HttpError(f"server {self.name!r} not started")
        self.runtime.syscall_profile(self._connection_setup)
        # TLS handshake crypto on the server side.
        self.runtime.compute(HANDSHAKE_CYCLES)

    def serve(self, connection: "HttpConnection", protected_request: bytes) -> bytes:
        """Handle one protected request; returns the protected response.

        Measures L_T from request-received to response-sent, L_F around
        the handler and the busy window around both plus the reactor
        chatter, and appends each to the server's metric series.
        """
        if not self.started:
            raise HttpError(f"server {self.name!r} not started")
        if self.fault_gate is not None:
            self.fault_gate(self)
        runtime = self.runtime
        host = runtime.host
        clock = host.clock

        # First-request lazy initialization (Fig 10b's initial response).
        warmup = getattr(runtime, "lazy_warmup", None)
        if warmup is not None:
            warmup()

        # The in-flight trace context (see HttpConnection.traceparent) is
        # attached to the parsed request below, so the header exists
        # exactly where a real server would see it.
        traceparent = connection.traceparent
        # Each window is two reads of the clock at the edges of the span
        # that shows it, so the two are the same float; busy wraps L_T
        # plus the reactor chatter after it.
        with host.span(self.name, kind="sbi.server", server=self.name) as srv_span:
            busy_start = clock.now_ns
            with host.span("window", kind="L_T"):
                lt_start = clock.now_ns
                runtime.syscall_profile(self._in_window_pre)
                runtime.compute(record_cycles(len(protected_request)))
                raw = connection.server_tls.unprotect(protected_request)
                request = HttpRequest.from_wire(raw)
                if traceparent is not None:
                    request.headers["traceparent"] = traceparent
                runtime.compute(
                    self.profile.parse_fixed_cycles
                    + self.profile.parse_per_byte_cycles * len(raw)
                )
                handler = self._resolve(request.method, request.path)
                with host.span(request.path, kind="L_F", path=request.path):
                    lf_start = clock.now_ns
                    response = handler(request, self._handler_context)
                    lf_us = (clock.now_ns - lf_start) / NS_PER_US
                response_raw = response.wire_bytes()
                runtime.compute(record_cycles(len(response_raw)))
                protected_response = connection.server_tls.protect(response_raw)
                runtime.syscall_profile(self._in_window_post)
                lt_us = (clock.now_ns - lt_start) / NS_PER_US

            # Reactor chatter around the request (outside the L_T window
            # but inside the client's response-time window).
            runtime.syscall_profile(self._out_of_window)
            busy_us = (clock.now_ns - busy_start) / NS_PER_US
        srv_span.tag(path=request.path, status=response.status)
        if traceparent is not None:
            srv_span.tag(traceparent=traceparent)

        self.busy_us.append(busy_us)
        self.lf_us.append(lf_us)
        self.lt_us.append(lt_us)
        lf_series = self.lf_us_by_path.get(request.path)
        if lf_series is None:
            lf_series = self.lf_us_by_path[request.path] = BoundedSeries()
            self.lt_us_by_path[request.path] = BoundedSeries()
        lf_series.append(lf_us)
        self.lt_us_by_path[request.path].append(lt_us)
        self.requests_served += 1
        return protected_response

    # ------------------------------------------------------------- metrics

    def collect_metrics(self, registry, component: Optional[str] = None) -> None:
        """Snapshot this server into a ``repro.obs`` registry (pull).

        Latency histograms *adopt* the live BoundedSeries — no copying,
        and the registry sees every later request for free.  ``component``
        adds a label for P-AKA modules (eamf/eausf/eudm).
        """
        labels = {"server": self.name}
        if component is not None:
            labels["component"] = component
        registry.counter("http_requests_served_total", **labels).set(
            self.requests_served
        )
        registry.histogram_from_series("http_lf_us", self.lf_us, **labels)
        registry.histogram_from_series("http_lt_us", self.lt_us, **labels)
        registry.histogram_from_series("http_busy_us", self.busy_us, **labels)
        for path, series in sorted(self.lf_us_by_path.items()):
            registry.histogram_from_series(
                "http_lf_us_by_path", series, path=path, **labels
            )
        for path, series in sorted(self.lt_us_by_path.items()):
            registry.histogram_from_series(
                "http_lt_us_by_path", series, path=path, **labels
            )


@dataclass
class HttpConnection:
    """An established TLS connection from a client to a server.

    ``traceparent`` is the in-flight W3C trace-context header for the
    request currently traversing this connection.  It rides the
    connection object instead of the wire bytes on purpose: every wire
    cost in the model is length-dependent (TLS record cycles, bridge
    transmit, per-byte parse), so carrying the header in ``raw`` would
    make a traced run spend different simulated time than an untraced
    one.  The server reads it and materialises the real header on the
    parsed request, which is where handlers (and tests) observe it.
    The client sets it for the duration of one attempt and clears it on
    every way out, so a gated or lost request leaves nothing behind.
    """

    client_name: str
    server: HttpServer
    client_tls: TlsSession
    server_tls: TlsSession
    open: bool = True
    traceparent: Optional[str] = None


class HttpClient:
    """A client (e.g. a parent VNF) issuing requests over the bridge."""

    _CLIENT_REQUEST_SYSCALLS: Tuple[SyscallSpec, ...] = (
        ("sendmsg", 512, 0),
        ("epoll_wait", 0, 0),
        ("recvmsg", 0, 512),
        ("recvmsg", 0, 256),
        ("clock_gettime", 0, 0),
    )
    _CLIENT_CONNECT_SYSCALLS: Tuple[SyscallSpec, ...] = (
        ("socket", 0, 0), ("connect", 0, 0), ("setsockopt", 0, 0),
        ("sendmsg", 512, 0), ("recvmsg", 0, 2048),
        ("sendmsg", 320, 0), ("recvmsg", 0, 320),
        ("getrandom", 0, 64), ("epoll_ctl", 0, 0),
    )

    def __init__(self, name: str, runtime: Runtime, network: BridgeNetwork) -> None:
        self.name = name
        self.runtime = runtime
        self.network = network
        # The client owns a bridge endpoint so that its traffic is real
        # frames on the wire (capturable by an on-path attacker).
        self.endpoint = network.attach(name)
        # Per-request / per-connect syscall profiles, precompiled once.
        self._request_profile = runtime.compile_syscalls(self._CLIENT_REQUEST_SYSCALLS)
        self._connect_profile = runtime.compile_syscalls(self._CLIENT_CONNECT_SYSCALLS)
        # BoundedSeries (uncapped: nothing is dropped) rather than plain lists
        # so metric collection adopts them instead of re-observing every
        # sample into fresh histograms on each scrape — the difference
        # between O(total samples) and O(1) per armed-scraper pull.
        self.response_times_us: BoundedSeries = BoundedSeries()
        self.response_times_by_server: Dict[str, BoundedSeries] = {}
        # Resilience accounting (only moves when faults/retries happen).
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0

    def connect(self, server: HttpServer) -> HttpConnection:
        """TCP + mutual-TLS connection establishment."""
        self.runtime.syscall_profile(self._connect_profile)
        self.runtime.compute(HANDSHAKE_CYCLES)
        # SYN/ACK + TLS flights across the bridge (alternating directions).
        for index, nbytes in enumerate((64, 64, 2048, 384)):
            if index % 2 == 0:
                self.network.transmit(self.name, server.name, bytes(nbytes))
            else:
                self.network.transmit(server.name, self.name, bytes(nbytes))
        client_tls, server_tls = establish_session(
            self.name, server.name, f"{self.name}->{server.name}".encode()
        )
        connection = HttpConnection(
            client_name=self.name, server=server,
            client_tls=client_tls, server_tls=server_tls,
        )
        server.accept_connection(connection)
        return connection

    def request(
        self,
        connection: HttpConnection,
        method: str,
        path: str,
        body: bytes = b"",
        retry: Optional[RetryPolicy] = None,
    ) -> HttpResponse:
        """One request/response exchange; records the response time R.

        With ``retry`` set, transport failures (timeouts, lost frames,
        dead endpoints) are retried with exponential backoff, transparently
        re-establishing the TLS connection in place.  Protocol errors
        (no route, malformed exchange) are deterministic and never
        retried, and each attempt waits at most ``retry.timeout_us`` for
        its answer.  Without ``retry`` the behaviour is exactly the
        pre-resilience hot path.
        """
        if retry is None:
            return self._attempt(connection, method, path, body, None)
        last_error: Optional[Exception] = None
        for attempt in range(1, retry.max_attempts + 1):
            if attempt > 1:
                self.retries += 1
                backoff = retry.backoff_us(
                    attempt - 1, self.runtime.host.rng, f"retry.{self.name}"
                )
                self.runtime.host.clock.advance_us(backoff)
            try:
                if not connection.open:
                    self._reconnect(connection)
                return self._attempt(
                    connection, method, path, body, retry.timeout_us
                )
            except (RequestTimeout, UnresponsiveError, NetworkError) as exc:
                last_error = exc
                # The transport is suspect: force a fresh connection on
                # the next attempt (TCP would be in an undefined state).
                connection.open = False
        assert last_error is not None
        raise last_error

    def _attempt(
        self,
        connection: HttpConnection,
        method: str,
        path: str,
        body: bytes,
        timeout_us: Optional[float],
    ) -> HttpResponse:
        """A single request/response attempt with an optional deadline."""
        if not connection.open:
            raise HttpError("connection is closed")
        host = self.runtime.host
        clock = host.clock
        server = connection.server
        dst = server.name
        host.events.add("sbi.request")
        raw = _request_head(method, path, ()) + body
        with host.span(
            path, kind="sbi.request", src=self.name, dst=dst, method=method, path=path,
        ) as req_span:
            # R is two reads of the clock at the span's edges.
            start_ns = clock.now_ns
            # W3C traceparent naming the open sbi.request span as parent;
            # propagated out-of-band — see HttpConnection.traceparent for
            # why it stays off the wire.
            connection.traceparent = req_span.traceparent
            try:
                self.runtime.compute(record_cycles(len(raw)))
                protected = connection.client_tls.protect(raw)
                self.runtime.syscall_profile(self._request_profile)
                # Request transit, server handling, response transit — real
                # frames on the bridge (advances the clock per hop).
                self.network.transmit(self.name, dst, protected)
                protected_response = server.serve(connection, protected)
                self.network.transmit(dst, self.name, protected_response)
                self.runtime.compute(record_cycles(len(protected_response)))
                response_raw = connection.client_tls.unprotect(protected_response)
            except (UnresponsiveError, FrameLost) as exc:
                # No response will ever arrive; the client blocks until
                # its deadline.
                if timeout_us is None:
                    raise
                elapsed_us = (clock.now_ns - start_ns) / 1_000.0
                if timeout_us > elapsed_us:
                    clock.advance_us(timeout_us - elapsed_us)
                self.timeouts += 1
                raise RequestTimeout(
                    f"{self.name}->{dst} {method} {path}: "
                    f"no response within {timeout_us:.0f}us"
                ) from exc
            finally:
                # The header belongs to this request: whether it was
                # served, gated or lost, it never outlives the exchange
                # (``_reconnect`` re-establishes the connection in place).
                connection.traceparent = None
            r_us = (clock.now_ns - start_ns) / NS_PER_US
        if timeout_us is not None and r_us > timeout_us:
            # The response arrived after the client already gave up
            # (e.g. an injected latency spike): it is discarded.
            self.timeouts += 1
            raise RequestTimeout(
                f"{self.name}->{dst} {method} {path}: "
                f"response after {r_us:.0f}us deadline {timeout_us:.0f}us"
            )
        self.response_times_us.append(r_us)
        by_server = self.response_times_by_server.get(dst)
        if by_server is None:
            by_server = self.response_times_by_server[dst] = BoundedSeries()
        by_server.append(r_us)
        req_span.tag(r_us=r_us)
        return HttpResponse.from_wire(response_raw)

    def _reconnect(self, connection: HttpConnection) -> None:
        """Re-establish a dead connection *in place*.

        Mutating the existing object keeps every cached reference (NF
        connection caches) valid — callers never learn the TCP session
        was replaced, just like a connection pool.
        """
        fresh = self.connect(connection.server)
        connection.client_tls = fresh.client_tls
        connection.server_tls = fresh.server_tls
        connection.open = True
        self.reconnects += 1

    def close(self, connection: HttpConnection) -> None:
        if connection.open:
            self.runtime.syscall("shutdown")
            self.runtime.syscall("close")
            connection.open = False

    # ------------------------------------------------------------- metrics

    def collect_metrics(self, registry) -> None:
        """Snapshot this client into a ``repro.obs`` registry (pull).

        Response-time histograms *adopt* the live BoundedSeries — no
        copying and no re-observation, so a scrape costs O(1) per series
        no matter how many requests the campaign has issued.
        """
        labels = {"client": self.name}
        registry.counter("http_client_retries_total", **labels).set(self.retries)
        registry.counter("http_client_timeouts_total", **labels).set(self.timeouts)
        registry.counter("http_client_reconnects_total", **labels).set(
            self.reconnects
        )
        registry.histogram_from_series(
            "http_client_response_us", self.response_times_us, **labels
        )
        for server, series in sorted(self.response_times_by_server.items()):
            registry.histogram_from_series(
                "http_client_response_us_by_server", series,
                server=server, **labels
            )
