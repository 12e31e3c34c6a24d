package nic

import (
	"fmt"
	"time"

	"github.com/minoskv/minos/internal/apierr"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/ring"
)

// Endpoint identifies a client for replies. ID is stable and unique per
// client; Addr carries transport-specific addressing (nil for the
// in-process fabric, an interned netip.AddrPort for UDP).
type Endpoint struct {
	ID   uint64
	Addr any
}

// Frame is one received packet. Data is valid until the receiver calls
// Release (or TakeBuf) — the transport leases receive buffers instead of
// allocating per packet, and the draining core returns each one when the
// frame has been served, copied, or dropped.
type Frame struct {
	Src  Endpoint
	Data []byte

	// buf is the leased buffer backing Data; nil for frames whose Data
	// is caller-owned heap memory (tests, Static sends on the fabric).
	buf *mem.Buf

	// due is the emulated delivery time (UnixNano) on fabrics with a
	// configured RTT; zero means deliver immediately.
	due int64
}

// Release returns the frame's leased buffer (if any) to the recycler and
// invalidates Data. Receivers call it once per drained frame.
func (f *Frame) Release() {
	if f.buf != nil {
		f.buf.Release()
		f.buf = nil
	}
	f.Data = nil
}

// TakeBuf transfers ownership of the frame's leased buffer to the caller,
// which must Release it; Data stays valid until then. It returns nil when
// the frame's Data is plain heap memory (which never expires), and the
// caller may keep Data either way — this is how a draining core retains a
// fragment it routes to another core without copying it.
func (f *Frame) TakeBuf() *mem.Buf {
	b := f.buf
	f.buf = nil
	return b
}

// ServerTransport is the server side of the multi-queue network: Recv
// drains an RX queue without blocking; Send transmits a reply frame from
// the given queue's TX path. A core that has polled long enough for nothing
// (ring.SpinBound) parks on a doorbell, and SetRxBell is how the transport
// learns which one an arrival on each queue must ring.
//
// Buffer ownership: Send and SendBatch take ownership of every *mem.Buf
// passed in — the transport forwards the lease (fabric) or writes and
// releases it (UDP), and the caller must not touch the buffer afterwards,
// whether or not an error is returned. Frames returned by Recv carry
// leased buffers the caller must Release (or TakeBuf) exactly once each.
type ServerTransport interface {
	// Queues returns the number of RX queues (one per core).
	Queues() int
	// Recv fills out with up to len(out) frames from queue q and
	// returns the count. It never blocks. The caller owns each returned
	// frame's buffer and must Release it.
	Recv(q int, out []Frame) int
	// SetRxBell steers queue q's arrival notifications: from now on a
	// frame that becomes receivable on q rings bell if it is armed. The
	// server points each queue at the core that drains it and re-points
	// them when the plan moves a queue to another core.
	SetRxBell(q int, bell *ring.Doorbell)
	// Send transmits one frame to dst from queue q's TX side, taking
	// ownership of the buffer.
	Send(q int, dst Endpoint, frame *mem.Buf) error
	// SendBatch transmits frames to dst from queue q's TX side in one
	// call, preserving order and taking ownership of every buffer. It
	// amortizes per-send overhead (channel and lock operations on the
	// fabric, address setup on UDP) when a reply spans several
	// fragments.
	SendBatch(q int, dst Endpoint, frames []*mem.Buf) error
	// Close releases transport resources; subsequent calls error.
	Close() error
}

// ClientTransport is one client thread's connection. Send and SendBatch
// take ownership of the passed buffers exactly as on ServerTransport.
type ClientTransport interface {
	// Send transmits one frame to server RX queue q, taking ownership
	// of the buffer.
	Send(q int, frame *mem.Buf) error
	// SendBatch transmits frames to server RX queue q in one call,
	// preserving order and taking ownership of every buffer. Frames for
	// different queues need separate calls, as on hardware TX queues.
	SendBatch(q int, frames []*mem.Buf) error
	// Recv waits up to timeout for one reply frame into buf, returning
	// the frame length and whether one arrived.
	Recv(buf []byte, timeout time.Duration) (int, bool)
	// RecvBatch waits up to timeout for at least one reply frame, then
	// drains whatever else is immediately available. Each out[i] must
	// have capacity for a full MTU frame; received frames are re-sliced
	// in place to their lengths. Returns the number of frames received
	// (a prefix of out).
	RecvBatch(out [][]byte, timeout time.Duration) int
	// Endpoint returns this client's reply address.
	Endpoint() Endpoint
	Close() error
}

// ErrClosed is returned by operations on a closed transport. It wraps the
// taxonomy sentinel apierr.ErrClosed, so errors.Is(err, minos.ErrClosed)
// holds whether the client engine or the transport underneath it closed.
var ErrClosed = fmt.Errorf("nic: transport closed: %w", apierr.ErrClosed)

// RSSQueue maps a flow to an RX queue the way receive-side scaling does:
// a deterministic hash of the 5-tuple reduced modulo the queue count. The
// paper's clients search for source ports whose RSS hash lands on the
// queue they want (§5.1); SourcePortFor automates that search.
func RSSQueue(srcIP, dstIP uint32, srcPort, dstPort uint16, queues int) int {
	if queues <= 0 {
		return 0
	}
	h := uint64(srcIP)<<32 | uint64(dstIP)
	h ^= uint64(srcPort)<<16 | uint64(dstPort)
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h % uint64(queues))
}

// SourcePortFor returns a source port that RSS-steers the flow to the
// wanted queue, mirroring the paper's preliminary port-probing experiments
// ("we ran a set of preliminary experiments to determine to which port to
// send a packet so that it is received by a specific RX queue").
func SourcePortFor(srcIP, dstIP uint32, dstPort uint16, queues, wantQueue int) (uint16, bool) {
	for p := 1024; p < 65536; p++ {
		if RSSQueue(srcIP, dstIP, uint16(p), dstPort, queues) == wantQueue {
			return uint16(p), true
		}
	}
	return 0, false
}
