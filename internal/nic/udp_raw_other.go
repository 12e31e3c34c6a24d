//go:build !linux

package nic

import (
	"net"
	"net/netip"
)

// rawUDP's non-blocking drain fast path is Linux-only; elsewhere the UDP
// transports fall back to deadline-based probe reads (correct, one
// *net.OpError allocation per batch), and a parked server core is woken
// to look once a millisecond instead of by the arrival itself.
type rawUDP struct{}

func newRawUDP(*net.UDPConn) *rawUDP { return nil }

func (r *rawUDP) tryRecv([]byte) (int, netip.AddrPort, bool) {
	return 0, netip.AddrPort{}, false
}

func (r *rawUDP) readable() bool { return false }

func (r *rawUDP) waitReadable() bool { return false }
