//go:build linux

package nic

import (
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// rawUDP is the allocation-free drain path for a UDP socket. The net
// package's deadline reads wrap every expiry in a fresh *net.OpError, so a
// batch loop that probes "is another datagram ready?" with a nanosecond
// deadline pays one heap allocation per batch. This helper instead issues a
// non-blocking recvfrom through the connection's RawConn: EAGAIN comes back
// as a bare errno, the source address lands in a preallocated
// RawSockaddrAny, and the rc.Control closure is built once per socket — so
// a ready-or-not probe touches the heap not at all. Control, not Read: Read
// takes the descriptor's read lock, which a goroutine parked in a blocking
// read on the same socket (a UDPServer watcher, a client's last-resort
// wait) holds for as long as it is parked.
//
// tryRecv is safe for concurrent use: the Minos design has small cores
// drain large cores' NIC queues alongside the owner, so one queue's reader
// state can be hit from several cores. The mutex guards the per-call
// exchange area; it is uncontended in the common own-queue case.
type rawUDP struct {
	mu  sync.Mutex
	rc  syscall.RawConn
	ctl func(fd uintptr) // cached closure handed to rc.Control

	// readable's cached closure and its result.
	probe func(fd uintptr)
	ready atomic.Bool

	// Per-call exchange area for the closure: buf in; n, errno, rsa out.
	buf    []byte
	n      int
	errno  syscall.Errno
	rsa    syscall.RawSockaddrAny
	rsaLen uint32
}

// newRawUDP wraps conn's raw descriptor. Returns nil (disabling the raw
// fast path) if the RawConn is unavailable.
func newRawUDP(conn *net.UDPConn) *rawUDP {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rawUDP{rc: rc}
	r.ctl = r.recvfrom
	r.probe = func(fd uintptr) { r.ready.Store(pollIn(fd)) }
	return r
}

func (r *rawUDP) recvfrom(fd uintptr) {
	var p unsafe.Pointer
	if len(r.buf) > 0 {
		p = unsafe.Pointer(&r.buf[0])
	}
	r.rsaLen = syscall.SizeofSockaddrAny
	n, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, fd,
		uintptr(p), uintptr(len(r.buf)), uintptr(syscall.MSG_DONTWAIT),
		uintptr(unsafe.Pointer(&r.rsa)), uintptr(unsafe.Pointer(&r.rsaLen)))
	r.n, r.errno = int(n), e
}

// tryRecv attempts one non-blocking datagram read into buf. ok reports
// whether a datagram was consumed; on false the socket had nothing ready
// (or failed — the caller's blocking path will surface the real error).
func (r *rawUDP) tryRecv(buf []byte) (n int, addr netip.AddrPort, ok bool) {
	if r == nil {
		return 0, netip.AddrPort{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = buf
	err := r.rc.Control(r.ctl)
	r.buf = nil
	if err != nil || r.errno != 0 || r.n < 0 {
		return 0, netip.AddrPort{}, false
	}
	return r.n, r.addrPort(), true
}

// readable reports, without blocking or consuming anything, whether the
// socket has a datagram waiting. It takes none of tryRecv's state, so the
// two run concurrently.
func (r *rawUDP) readable() bool {
	if r == nil || r.rc.Control(r.probe) != nil {
		return false
	}
	// Concurrent callers may read each other's answer; it is the same
	// question about the same instant, give or take.
	return r.ready.Load()
}

// waitReadable parks the caller in the netpoller until the socket has a
// datagram waiting, leaving it there; false means the socket was closed.
func (r *rawUDP) waitReadable() bool {
	return r.rc.Read(pollIn) == nil
}

// pollIn is a ppoll of fd for input with a zero timeout.
func pollIn(fd uintptr) bool {
	const in = 0x1 // POLLIN, which package syscall does not name
	pfd := struct {
		fd      int32
		events  int16
		revents int16
	}{fd: int32(fd), events: in}
	var zero syscall.Timespec
	n, _, _ := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1,
		uintptr(unsafe.Pointer(&zero)), 0, 0, 0)
	return n == 1
}

// addrPort decodes the raw source address. Port bytes arrive in network
// order regardless of host endianness.
func (r *rawUDP) addrPort() netip.AddrPort {
	switch r.rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&r.rsa))
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&r.rsa))
		port := binary.BigEndian.Uint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:])
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), port)
	}
	return netip.AddrPort{}
}
