"""Server syscall profiles: calibration invariants."""

from repro.net.http import ServerSyscallProfile


def test_pistache_like_totals_about_ninety():
    """The calibration anchor: ≈90 syscalls per request overall (the
    paper's per-registration EENTER/EEXIT count)."""
    profile = ServerSyscallProfile.pistache_like()
    total = (
        len(profile.in_window_pre)
        + len(profile.in_window_post)
        + len(profile.out_of_window)
    )
    assert 80 <= total <= 95


def test_in_window_is_small():
    """Only a handful of syscalls sit between request-received and
    response-sent; the rest is reactor chatter around it."""
    profile = ServerSyscallProfile.pistache_like()
    in_window = len(profile.in_window_pre) + len(profile.in_window_post)
    assert 5 <= in_window <= 10
    assert len(profile.out_of_window) > 5 * in_window


def test_userlevel_tcp_collapses_syscalls():
    kernel = ServerSyscallProfile.pistache_like()
    mtcp = ServerSyscallProfile.userlevel_tcp()
    kernel_total = (
        len(kernel.in_window_pre) + len(kernel.in_window_post) + len(kernel.out_of_window)
    )
    mtcp_total = (
        len(mtcp.in_window_pre) + len(mtcp.in_window_post) + len(mtcp.out_of_window)
    )
    assert mtcp_total < kernel_total / 10


def test_userlevel_tcp_moves_work_into_compute():
    kernel = ServerSyscallProfile.pistache_like()
    mtcp = ServerSyscallProfile.userlevel_tcp()
    assert mtcp.parse_fixed_cycles > kernel.parse_fixed_cycles
    assert mtcp.parse_per_byte_cycles > kernel.parse_per_byte_cycles


def test_startup_footprint_is_about_650():
    """The paper: deploying Pistache in an enclave costs ≈650 transitions."""
    startup = ServerSyscallProfile.pistache_startup()
    assert 550 <= len(startup) <= 750


def test_connection_setup_includes_tls_flights():
    profile = ServerSyscallProfile.pistache_like()
    names = [name for name, _, _ in profile.connection_setup]
    assert "accept4" in names
    assert names.count("recvmsg") >= 3  # handshake records
    assert "getrandom" in names
