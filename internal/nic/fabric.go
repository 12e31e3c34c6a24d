package nic

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/ring"
)

// Fabric is the in-process network: bounded multi-producer rings stand in
// for NIC RX queues (many clients, one draining core at a time) and client
// mailboxes (several server cores may reply concurrently). Overflowing a
// ring drops the frame and counts it, as the hardware would.
//
// Nothing here sleeps on a timer to wait for a frame. Each RX queue rings
// the doorbell the server steered it to (SetRxBell) and each mailbox rings
// its client's, after the enqueue and only when the waiter is armed, so a
// send to a polling peer costs one atomic load more than the enqueue.
type Fabric struct {
	rx     []*ring.MPMC[Frame]
	rxBell []atomic.Pointer[ring.Doorbell]
	drops  atomic.Uint64
	closed atomic.Bool
	rttNs  atomic.Int64

	// mailboxes is indexed by client id and published copy-on-write, so
	// the reply path reads it without a lock; mu serializes NewClient.
	mu        sync.Mutex
	mailboxes atomic.Pointer[[]*mailbox]
}

// mailbox is one client's reply ring and the doorbell its receiver parks on.
type mailbox struct {
	q    *ring.MPMC[Frame]
	bell *ring.Doorbell
}

// Queue capacities: RX rings match the simulator's default; mailboxes are
// larger because a burst of large-reply fragments lands in one mailbox.
const (
	fabricRxCap      = 4096
	fabricMailboxCap = 65536
)

// NewFabric returns a fabric with the given number of server RX queues.
// Clients attach with NewClient.
func NewFabric(queues int) *Fabric {
	f := &Fabric{
		rx:     make([]*ring.MPMC[Frame], queues),
		rxBell: make([]atomic.Pointer[ring.Doorbell], queues),
	}
	for i := range f.rx {
		f.rx[i] = ring.NewMPMC[Frame](fabricRxCap)
	}
	f.mailboxes.Store(new([]*mailbox))
	return f
}

// Drops returns frames lost to ring overflow.
func (f *Fabric) Drops() uint64 { return f.drops.Load() }

// SetRTT emulates a network round trip: reply frames become visible to
// the client rtt after the server transmits them, modeling the NIC and
// propagation latency of the real link the fabric stands in for (the
// paper's testbed round trips are tens of microseconds; the fabric's
// native delivery is nanoseconds). The request path stays immediate so
// server-side queueing dynamics are unchanged; the whole round trip is
// charged on the reply. Zero, the default, disables the emulation.
// Closed-loop clients are bound by this RTT while the pipelined engine
// hides it — the motivating gap for the open-loop client.
func (f *Fabric) SetRTT(rtt time.Duration) { f.rttNs.Store(int64(rtt)) }

// Server returns the fabric's server-side transport.
func (f *Fabric) Server() ServerTransport { return (*fabricServer)(f) }

// NewClient attaches a client endpoint.
func (f *Fabric) NewClient() ClientTransport {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.mailboxes.Load()
	mb := &mailbox{q: ring.NewMPMC[Frame](fabricMailboxCap), bell: ring.NewDoorbell()}
	next := append(old[:len(old):len(old)], mb)
	f.mailboxes.Store(&next)
	return &fabricClient{f: f, id: uint64(len(old)), mb: mb}
}

type fabricServer Fabric

func (s *fabricServer) Queues() int { return len(s.rx) }

func (s *fabricServer) Recv(q int, out []Frame) int {
	if s.closed.Load() {
		return 0
	}
	return s.rx[q].DequeueBatch(out)
}

func (s *fabricServer) SetRxBell(q int, bell *ring.Doorbell) { s.rxBell[q].Store(bell) }

// replyDue stamps the emulated delivery time for a reply sent now.
func (s *fabricServer) replyDue() int64 {
	if rtt := s.rttNs.Load(); rtt > 0 {
		return time.Now().UnixNano() + rtt
	}
	return 0
}

// Send forwards the lease through the mailbox ring: the buffer written by
// the server core is the one the client copies out of, with no
// intermediate copy. Every path that fails to deliver releases the lease.
func (s *fabricServer) Send(_ int, dst Endpoint, frame *mem.Buf) error {
	if s.closed.Load() {
		frame.Release()
		return ErrClosed
	}
	mb := s.mailboxFor(dst)
	if mb == nil {
		frame.Release() // unknown client: silently dropped, like the network
		return nil
	}
	if !mb.q.Enqueue(Frame{Data: frame.Data, buf: frame, due: s.replyDue()}) {
		s.drops.Add(1)
		frame.Release()
	}
	mb.bell.Ring()
	return nil
}

// SendBatch delivers all frames with a single mailbox lookup, the fabric
// analogue of posting one TX descriptor chain.
func (s *fabricServer) SendBatch(_ int, dst Endpoint, frames []*mem.Buf) error {
	if s.closed.Load() {
		releaseAll(frames)
		return ErrClosed
	}
	mb := s.mailboxFor(dst)
	if mb == nil {
		releaseAll(frames)
		return nil
	}
	due := s.replyDue()
	for _, frame := range frames {
		if !mb.q.Enqueue(Frame{Data: frame.Data, buf: frame, due: due}) {
			s.drops.Add(1)
			frame.Release()
		}
	}
	mb.bell.Ring()
	return nil
}

func releaseAll(frames []*mem.Buf) {
	for _, frame := range frames {
		frame.Release()
	}
}

func (s *fabricServer) mailboxFor(dst Endpoint) *mailbox {
	if mbs := *s.mailboxes.Load(); dst.ID < uint64(len(mbs)) {
		return mbs[dst.ID]
	}
	return nil
}

// Close marks the fabric closed and rings every doorbell: closed is one of
// the sources a parked waiter re-polls, so none outlives the fabric.
func (s *fabricServer) Close() error {
	s.closed.Store(true)
	for i := range s.rxBell {
		if bell := s.rxBell[i].Load(); bell != nil {
			bell.Ring()
		}
	}
	for _, mb := range *s.mailboxes.Load() {
		mb.bell.Ring()
	}
	return nil
}

type fabricClient struct {
	f  *Fabric
	id uint64
	mb *mailbox

	// idle and timer belong to the single receiver: how long it has
	// polled an empty mailbox, and the one timer that bounds its parks.
	idle  ring.Idle
	timer *time.Timer

	// stash holds a dequeued frame whose emulated delivery time has not
	// arrived yet. Receiving is single-consumer (one receiver goroutine
	// per client transport), so no lock guards it.
	stash    Frame
	hasStash bool
}

// take returns the next mailbox frame, honoring a stashed one first.
func (c *fabricClient) take() (Frame, bool) {
	if c.hasStash {
		c.hasStash = false
		return c.stash, true
	}
	return c.mb.q.Dequeue()
}

func (c *fabricClient) Endpoint() Endpoint { return Endpoint{ID: c.id} }

func (c *fabricClient) Send(q int, frame *mem.Buf) error {
	if c.f.closed.Load() {
		frame.Release()
		return ErrClosed
	}
	if q < 0 || q >= len(c.f.rx) {
		frame.Release() // misdirected frame vanishes, like the network
		return nil
	}
	if !c.f.rx[q].Enqueue(Frame{Src: Endpoint{ID: c.id}, Data: frame.Data, buf: frame}) {
		c.f.drops.Add(1)
		frame.Release()
	}
	c.ringRx(q)
	return nil
}

// ringRx wakes whoever drains RX queue q, if it is parked.
func (c *fabricClient) ringRx(q int) {
	if bell := c.f.rxBell[q].Load(); bell != nil {
		bell.Ring()
	}
}

// SendBatch enqueues every frame onto the RX ring in order. Misdirected
// batches vanish whole, like the network.
func (c *fabricClient) SendBatch(q int, frames []*mem.Buf) error {
	if c.f.closed.Load() {
		releaseAll(frames)
		return ErrClosed
	}
	if q < 0 || q >= len(c.f.rx) {
		releaseAll(frames)
		return nil
	}
	src := Endpoint{ID: c.id}
	rx := c.f.rx[q]
	for _, frame := range frames {
		if !rx.Enqueue(Frame{Src: src, Data: frame.Data, buf: frame}) {
			c.f.drops.Add(1)
			frame.Release()
		}
	}
	c.ringRx(q)
	return nil
}

// Recv waits up to timeout for one reply frame. It polls the mailbox,
// yielding between polls, until ring.SpinBound has passed since a frame
// last arrived, and only then parks on the mailbox doorbell, bounded by
// what is left of timeout.
func (c *fabricClient) Recv(buf []byte, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if frame, ok := c.take(); ok {
			c.idle.Reset()
			if frame.due > 0 && time.Now().UnixNano() < frame.due {
				if time.Unix(0, frame.due).After(deadline) {
					// Not deliverable before the caller's deadline: keep
					// it for the next call, and sleep the deadline out.
					// Delivery is in-order per mailbox, so no other frame
					// can mature before this one; returning immediately
					// instead would turn the caller's poll loop into a
					// hot spin for the whole emulated RTT.
					c.stash, c.hasStash = frame, true
					if wait := time.Until(deadline); wait > 0 {
						time.Sleep(wait)
					}
					return 0, false
				}
				// Poll until the emulated delivery instant, as a
				// DPDK-style client polls its RX ring; sleeping
				// would charge timer granularity (hundreds of
				// microseconds) instead of the configured RTT.
				for time.Now().UnixNano() < frame.due {
					runtime.Gosched()
				}
			}
			n := copy(buf, frame.Data)
			frame.Release()
			return n, true
		}
		left := time.Until(deadline)
		if c.f.closed.Load() || left <= 0 {
			return 0, false
		}
		if c.idle.Spin() {
			continue
		}
		c.park(left)
	}
}

// park blocks until the mailbox doorbell rings or d passes. The re-poll
// between Arm and the block covers both things a ring can mean: a frame in
// the mailbox, or the fabric closing.
func (c *fabricClient) park(d time.Duration) {
	bell := c.mb.bell
	bell.Arm()
	if c.mb.q.Len() == 0 && !c.f.closed.Load() {
		if c.timer == nil {
			c.timer = time.NewTimer(d)
		} else {
			c.timer.Reset(d)
		}
		select {
		case <-bell.C():
		case <-c.timer.C:
		}
		c.timer.Stop()
	}
	bell.Disarm()
}

// RecvBatch waits for the first frame like Recv, then drains the
// mailbox without blocking, so a burst of replies costs one wait. Frames
// whose emulated delivery time has not arrived stay pending.
func (c *fabricClient) RecvBatch(out [][]byte, timeout time.Duration) int {
	if len(out) == 0 {
		return 0
	}
	n, ok := c.Recv(out[0][:cap(out[0])], timeout)
	if !ok {
		return 0
	}
	out[0] = out[0][:n]
	got := 1
	now := time.Now().UnixNano()
	for got < len(out) {
		frame, ok := c.take()
		if !ok {
			break
		}
		if frame.due > now {
			c.stash, c.hasStash = frame, true
			break
		}
		m := copy(out[got][:cap(out[got])], frame.Data)
		frame.Release()
		out[got] = out[got][:m]
		got++
	}
	return got
}

func (c *fabricClient) Close() error { return nil }
