package server

import (
	"errors"
	"time"

	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/wire"
)

// coreLoop is one polling core. The loop structure mirrors the paper's
// run-to-completion processing: drain the software queue, then the RX
// queues the design assigns to this core. The paper's cores spin forever;
// on shared hardware a core keeps polling, yielding between polls, until
// ring.SpinBound has passed since it last found work, then parks on its
// doorbell until someone has work for it.
func (s *Server) coreLoop(c *coreState) {
	defer s.wg.Done()
	defer c.reader.Close()
	frames := make([]nic.Frame, s.cfg.Batch)
	var idle ring.Idle
	for !s.stopped() {
		if s.poll(c, frames) > 0 {
			idle.Reset()
		} else if !idle.Spin() {
			s.park(c, frames)
		}
	}
}

// poll is one iteration of the core: everything it drains, once.
func (s *Server) poll(c *coreState, frames []nic.Frame) int {
	// The pin covers the whole iteration: every item this core finds
	// (including the reply encode that aliases item values) happens
	// between Pin and Unpin, so the store's recycler leaves those
	// items alone. One atomic store each way.
	c.reader.Pin()
	did := s.drainSwq(c)
	did += s.drainRx(c, frames)
	c.reader.Unpin()
	return did
}

// park blocks the core until its doorbell rings or the server stops. The
// poll between Arm and the block is the doorbell protocol's re-check, and
// being a whole iteration it covers every source by construction.
func (s *Server) park(c *coreState, frames []nic.Frame) {
	c.bell.Arm()
	if s.poll(c, frames) == 0 {
		select {
		case <-c.bell.C():
		case <-s.stop:
		}
	}
	c.bell.Disarm()
}

// ringIdle wakes one parked core among cores[lo:hi] other than c, for work
// c queued on its own ring that any of them may take.
func (s *Server) ringIdle(c *coreState, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i != c.id && s.cores[i].bell.Ring() {
			return
		}
	}
}

// drainSwq serves queued software work: complete messages, and — on Minos
// large cores — raw fragments fed to this core's reassembler. SHO handoff
// cores skip it: their ring is an output consumed by workers.
func (s *Server) drainSwq(c *coreState) int {
	if s.cfg.Design == SHO && c.id < s.cfg.HandoffCores {
		return 0
	}
	did := 0
	for i := 0; i < s.cfg.Batch; i++ {
		w, ok := c.swq.Dequeue()
		if !ok {
			break
		}
		did++
		switch {
		case w.msg != nil:
			s.serve(c, w.src, w.msg)
			w.msg.Release()
		case w.frag != nil:
			complete, err := c.reasm.AddInto(w.src.ID, w.frag, &c.scratch)
			if err != nil {
				s.badFrame.Add(1)
			} else {
				c.pkts.Add(1)
				if complete {
					s.serve(c, w.src, &c.scratch)
				}
			}
			c.scratch.Reset()
			if w.fragBuf != nil {
				w.fragBuf.Release()
			}
		}
	}
	return did
}

// drainRx reads RX queues according to the design's policy.
func (s *Server) drainRx(c *coreState, frames []nic.Frame) int {
	switch s.cfg.Design {
	case Minos:
		return s.drainMinos(c, frames)
	case HKH:
		return s.processBatch(c, frames[:s.tr.Recv(c.id, frames)])
	case HKHWS:
		return s.drainWS(c, frames)
	case SHO:
		return s.drainSHO(c, frames)
	}
	return 0
}

// drainMinos: small cores read B from their own queue and B/ns from each
// large core's queue (§3); pure large cores never touch RX queues.
func (s *Server) drainMinos(c *coreState, frames []nic.Frame) int {
	plan := s.plan.Load()
	if !plan.IsSmallCore(c.id) {
		return 0
	}
	did := s.processBatch(c, frames[:s.tr.Recv(c.id, frames)])
	if plan.Standby {
		return did
	}
	quota := (s.cfg.Batch + plan.NumSmall - 1) / plan.NumSmall
	for i := 0; i < plan.NumLarge; i++ {
		q := plan.LargeCoreID(i)
		did += s.processBatch(c, frames[:s.tr.Recv(q, frames[:quota])])
	}
	return did
}

// drainWS: move the own RX queue into the stealable software queue (the
// serving happens in drainSwq); once both are empty, steal one queued
// request from a peer's software queue (ZygOS-style; see DESIGN.md for the
// live-path simplification of packet stealing).
func (s *Server) drainWS(c *coreState, frames []nic.Frame) int {
	if did := s.processBatch(c, frames[:s.tr.Recv(c.id, frames)]); did > 0 {
		return did
	}
	if c.swq.Len() > 0 {
		return 0 // own queued work next loop; no stealing while busy
	}
	n := len(s.cores)
	for i := 1; i < n; i++ {
		victim := &s.cores[(c.id+i)%n]
		if w, ok := victim.swq.Dequeue(); ok && w.msg != nil {
			s.serve(c, w.src, w.msg)
			w.msg.Release()
			return 1
		}
	}
	return 0
}

// drainSHO: handoff cores reassemble their RX queues and deposit complete
// requests on their handoff ring; workers pull one request at a time
// (§5.2). Worker pulls happen in drainSwq via the shared rings, so here a
// worker scans the handoff queues round-robin.
func (s *Server) drainSHO(c *coreState, frames []nic.Frame) int {
	h := s.cfg.HandoffCores
	if c.id < h {
		n := s.tr.Recv(c.id, frames)
		did := 0
		for i := range frames[:n] {
			fr := &frames[i]
			c.pkts.Add(1)
			msg := wire.NewMessage()
			complete, err := c.reasm.AddInto(fr.Src.ID, fr.Data, msg)
			if err != nil {
				msg.Release()
				s.badFrame.Add(1)
				// The reassembler refused to allocate for an oversized
				// header; answer the first fragment so the client fails
				// fast (other designs do this in processFrame).
				if errors.Is(err, wire.ErrOversize) {
					if h, _, derr := wire.DecodeHeader(fr.Data); derr == nil && h.FragOff == 0 {
						s.replyTooLarge(c, fr.Src, &h)
					}
				}
				fr.Release()
				continue
			}
			if !complete {
				msg.Release()
				fr.Release()
				continue
			}
			// The message crosses to a worker core; it must own its body
			// before this RX frame goes back to the recycler.
			msg.Own()
			fr.Release()
			if !c.swq.Enqueue(work{src: fr.Src, msg: msg}) {
				s.swDrops.Add(1)
				msg.Release()
			}
			s.ringIdle(c, h, len(s.cores)) // a parked worker, if any
			did++
		}
		return did
	}
	// Worker: pull one request from the handoff queues.
	for i := 0; i < h; i++ {
		if w, ok := s.cores[(c.id+i)%h].swq.Dequeue(); ok && w.msg != nil {
			s.serve(c, w.src, w.msg)
			w.msg.Release()
			return 1
		}
	}
	return 0
}

// processBatch handles freshly drained frames on a (small) core, returning
// each frame's leased buffer to the recycler afterwards (paths that retain
// the payload — fragment routing — take the lease out of the frame first).
func (s *Server) processBatch(c *coreState, frames []nic.Frame) int {
	for i := range frames {
		s.processFrame(c, &frames[i])
		frames[i].Release()
	}
	return len(frames)
}

// processFrame classifies one frame: small work is completed in place;
// large work is routed to the owning large core (§3). Fragmented PUTs are
// routed fragment-by-fragment using the size carried in every header, so a
// single large core sees the whole message.
func (s *Server) processFrame(c *coreState, fr *nic.Frame) {
	c.pkts.Add(1)
	h, _, err := wire.DecodeHeader(fr.Data)
	if err != nil {
		s.badFrame.Add(1)
		return
	}
	if s.rejectOversize(c, fr.Src, &h) {
		return
	}
	if s.cfg.Design != Minos {
		// Size-unaware designs reassemble at the draining core. HKH
		// serves run-to-completion; HKH+WS queues the request on its
		// stealable software ring first (owning the body, because the RX
		// frame is recycled when this batch ends).
		msg := wire.NewMessage()
		complete, err := c.reasm.AddInto(fr.Src.ID, fr.Data, msg)
		if err != nil {
			msg.Release()
			s.badFrame.Add(1)
			return
		}
		if !complete {
			msg.Release()
			return
		}
		if s.cfg.Design == HKHWS {
			msg.Own()
			if !c.swq.Enqueue(work{src: fr.Src, msg: msg}) {
				s.swDrops.Add(1)
				msg.Release()
			}
			s.ringIdle(c, 0, len(s.cores)) // a parked thief, if any
			return
		}
		s.serve(c, fr.Src, msg)
		msg.Release()
		return
	}

	plan := s.plan.Load()
	switch h.Op {
	case wire.OpPutRequest:
		valSize := int64(h.TotalSize) - int64(h.KeyLen)
		// The profiling histogram counts requests, not packets (§3):
		// record a fragmented PUT once, on its first fragment.
		if h.FragOff == 0 {
			s.recordSize(c, valSize)
		}
		// Multi-fragment PUTs always go to a large core, even when the
		// size is below the threshold: a large core's reassembler is
		// the only place guaranteed to see every fragment, because
		// several small cores may drain the same RX queue (§4.1).
		if plan.IsSmall(valSize) && wire.FragmentsFor(int(h.TotalSize)) == 1 {
			complete, err := c.reasm.AddInto(fr.Src.ID, fr.Data, &c.scratch)
			if err != nil {
				s.badFrame.Add(1)
				return
			}
			if complete {
				s.serve(c, fr.Src, &c.scratch)
			}
			c.scratch.Reset()
			return
		}
		s.routeLarge(plan, valSize, work{src: fr.Src, frag: fr.Data, fragBuf: fr.TakeBuf()})
	case wire.OpDeleteRequest:
		// Deletes carry a key and no value: a small request by
		// construction, served in place on the draining core. They are
		// profiled like every other request (§3 counts all requests);
		// size 0 charges the one packet a delete actually handles. The
		// rare multi-fragment delete (oversized foreign key) routes to
		// a large core for the same single-reassembler guarantee as
		// fragmented PUTs.
		if h.FragOff == 0 {
			s.recordSize(c, 0)
		}
		if wire.FragmentsFor(int(h.TotalSize)) > 1 {
			s.routeLarge(plan, 0, work{src: fr.Src, frag: fr.Data, fragBuf: fr.TakeBuf()})
			return
		}
		complete, err := c.reasm.AddInto(fr.Src.ID, fr.Data, &c.scratch)
		if err != nil {
			s.badFrame.Add(1)
			return
		}
		if complete {
			s.serve(c, fr.Src, &c.scratch)
		}
		c.scratch.Reset()
	case wire.OpGetRequest:
		msg := wire.NewMessage()
		complete, err := c.reasm.AddInto(fr.Src.ID, fr.Data, msg)
		if err != nil {
			msg.Release()
			s.badFrame.Add(1)
			return
		}
		if !complete {
			msg.Release()
			return
		}
		// The small core looks the item up to learn its size (§3); the
		// actual serve reuses the lookup's target. The lookup is
		// expiry-aware: a dead item is a miss here, reported with the
		// cache-distinguishable status.
		item, expiredMiss := s.store.Find(msg.Key)
		if item == nil {
			s.replyMiss(c, fr.Src, msg, missStatus(expiredMiss))
			msg.Release()
			return
		}
		size := int64(len(item.Value))
		s.recordSize(c, size)
		if plan.IsSmall(size) {
			s.serve(c, fr.Src, msg)
			msg.Release()
			return
		}
		// Crossing to the owning large core: the message must outlive
		// this RX frame.
		msg.Own()
		s.routeLarge(plan, size, work{src: fr.Src, msg: msg})
	default:
		s.badFrame.Add(1)
	}
}

// rejectOversize answers frames whose header demands more memory than
// MaxValueSize allows. The check runs before any reassembly state is
// allocated — a single forged frame must never reserve gigabytes — and
// the first fragment gets a StatusTooLarge reply so well-behaved foreign
// clients fail fast instead of timing out.
func (s *Server) rejectOversize(c *coreState, src nic.Endpoint, h *wire.Header) bool {
	if int64(h.TotalSize) <= int64(wire.MaxValueSize)+int64(h.KeyLen) {
		return false
	}
	s.badFrame.Add(1)
	if h.FragOff == 0 {
		s.replyTooLarge(c, src, h)
	}
	return true
}

// replyTooLarge sends the op-matched StatusTooLarge reply for h.
func (s *Server) replyTooLarge(c *coreState, src nic.Endpoint, h *wire.Header) {
	op := wire.OpErrorReply
	switch h.Op {
	case wire.OpPutRequest:
		op = wire.OpPutReply
	case wire.OpDeleteRequest:
		op = wire.OpDeleteReply
	case wire.OpGetRequest:
		op = wire.OpGetReply
	}
	s.transmit(c, src, &wire.Message{
		Op:        op,
		Status:    wire.StatusTooLarge,
		RxQueue:   h.RxQueue,
		ReqID:     h.ReqID,
		Timestamp: h.Timestamp,
	})
}

// routeLarge pushes work onto the owning large core's ring, releasing the
// work's owned resources when the ring is full (the request is dropped, so
// nobody else will).
func (s *Server) routeLarge(plan *core.Plan, size int64, w work) {
	target := &s.cores[plan.LargeCoreID(plan.LargeIndexFor(size))]
	if !target.swq.Enqueue(w) {
		s.swDrops.Add(1)
		if w.msg != nil {
			w.msg.Release()
		}
		if w.fragBuf != nil {
			w.fragBuf.Release()
		}
	}
	target.bell.Ring()
}

// recordSize updates the per-core profiling histogram (§3).
func (s *Server) recordSize(c *coreState, size int64) {
	c.histMu.Lock()
	c.sizeHist.Record(size)
	c.histMu.Unlock()
}

// serve completes one request and transmits the reply from this core's TX
// queue.
func (s *Server) serve(c *coreState, src nic.Endpoint, msg *wire.Message) {
	c.ops.Add(1)
	reply := wire.Message{
		RxQueue:   msg.RxQueue,
		ReqID:     msg.ReqID,
		Timestamp: msg.Timestamp,
	}
	switch msg.Op {
	case wire.OpGetRequest:
		item, expiredMiss := s.store.Find(msg.Key)
		if item == nil {
			s.replyMiss(c, src, msg, missStatus(expiredMiss))
			return
		}
		c.hits.Add(1)
		reply.Op = wire.OpGetReply
		reply.Status = wire.StatusOK
		reply.Value = item.Value
		reply.TTL = remainingTTL(item.Expire, s.store.Clock())
	case wire.OpPutRequest:
		reply.Op = wire.OpPutReply
		if len(msg.Value) > wire.MaxValueSize {
			// Our own clients reject oversized values before sending;
			// this answers foreign clients without touching the store.
			reply.Status = wire.StatusTooLarge
		} else {
			// The TTL travels in every fragment header (milliseconds);
			// 0 keeps the paper's immortal-item semantics.
			s.store.PutTTL(msg.Key, msg.Value, int64(msg.TTL)*int64(time.Millisecond))
			reply.Status = wire.StatusOK
		}
	case wire.OpDeleteRequest:
		// Deletes are writes under the same CREW protocol as PUTs: the
		// store takes the primary bucket's epoch spinlock, so any core
		// may serve them regardless of which core masters the key.
		reply.Op = wire.OpDeleteReply
		if s.store.Delete(msg.Key) {
			reply.Status = wire.StatusOK
		} else {
			reply.Status = wire.StatusNotFound
		}
	default:
		reply.Op = wire.OpErrorReply
		reply.Status = wire.StatusError
	}
	s.transmit(c, src, &reply)
}

// remainingTTL converts an item's absolute expiry to the reply header's
// remaining-TTL field: whole milliseconds, rounded up so a live item
// never reports 0 (which means immortal on the wire), saturating at the
// field's maximum. Replicating clients use it to read-repair a value
// onto a recovering replica with the life it has left.
func remainingTTL(expire, now int64) uint32 {
	if expire == 0 {
		return 0
	}
	left := expire - now
	if left <= 0 {
		// The read raced the expiry sweep and won; report the smallest
		// non-immortal TTL rather than resurrecting the item forever.
		return 1
	}
	ms := (left + int64(time.Millisecond) - 1) / int64(time.Millisecond)
	if ms > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// missStatus picks the reply status for a GET miss: StatusEvicted when
// the store could still observe that the key died under cache policy
// (its TTL passed), StatusNotFound for a key that was never there.
func missStatus(expiredMiss bool) uint8 {
	if expiredMiss {
		return wire.StatusEvicted
	}
	return wire.StatusNotFound
}

func (s *Server) replyMiss(c *coreState, src nic.Endpoint, msg *wire.Message, status uint8) {
	c.misses.Add(1)
	op := wire.OpGetReply
	if msg.Op == wire.OpPutRequest {
		op = wire.OpPutReply
	}
	s.transmit(c, src, &wire.Message{
		Op:        op,
		Status:    status,
		RxQueue:   msg.RxQueue,
		ReqID:     msg.ReqID,
		Timestamp: msg.Timestamp,
	})
}

func (s *Server) transmit(c *coreState, dst nic.Endpoint, reply *wire.Message) {
	// Encode into leased frames whose ownership passes to the transport;
	// the core's txFrames slice only carries the pointers across this call
	// and is reused for the next reply.
	c.txFrames = reply.LeaseFrames(c.txFrames[:0])
	c.pkts.Add(uint64(len(c.txFrames)))
	if len(c.txFrames) == 1 {
		_ = s.tr.Send(c.id, dst, c.txFrames[0])
		return
	}
	// Multi-fragment replies go out as one batch, amortizing per-send
	// transport overhead across the fragments of a large value.
	_ = s.tr.SendBatch(c.id, dst, c.txFrames)
}
