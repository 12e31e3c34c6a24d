package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/apierr"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/wire"
)

// Pipeline is an open-loop request engine: many requests in flight at
// once, completions matched to callers by request id regardless of arrival
// order. It is the client-side analogue of the server's run-to-completion
// cores — one receiver goroutine drains the transport in batches while any
// number of caller goroutines submit.
//
// The in-flight window is per RX queue, mirroring a NIC's per-queue
// descriptor ring: a submitter whose target queue has Window requests
// outstanding blocks until one completes, so a slow queue throttles only
// the traffic steered at it. Requests carry a per-request deadline; an
// expired request is retransmitted up to Retries times and then failed
// with ErrTimeout, with both outcomes counted in Stats.
//
// Every blocking operation takes a context. A context that expires before
// the per-request deadline abandons the request: the pending entry is
// removed, the window slot is released immediately (no leaked in-flight
// slot), and the caller gets the context's error. Whichever of the
// context deadline and the pipeline deadline fires first decides the
// error.
type Pipeline struct {
	tr      nic.ClientTransport
	queues  int
	window  int
	timeout time.Duration
	retries int

	mu      sync.Mutex
	rng     *rand.Rand
	pending map[uint64]*pendingCall

	nextID atomic.Uint64
	tokens []chan struct{}

	sent      atomic.Uint64
	completed atomic.Uint64
	timedOut  atomic.Uint64
	retried   atomic.Uint64
	canceled  atomic.Uint64
	stale     atomic.Uint64
	badFrames atomic.Uint64

	start sync.Once
	stop  chan struct{}
	// bell is what the receiver parks on when nothing has been in flight
	// for ring.SpinBound; a submit rings it after inserting its request.
	bell *ring.Doorbell
	wg   sync.WaitGroup
	once sync.Once
}

// PipelineConfig parameterizes a Pipeline. Zero fields take defaults.
type PipelineConfig struct {
	// Window is the maximum number of in-flight requests per RX queue
	// (default DefaultWindow).
	Window int
	// Timeout is the per-request deadline (default one second).
	Timeout time.Duration
	// Retries is how many times an expired request is retransmitted
	// before failing. The default 0 matches the paper's evaluation,
	// which reports loss rather than retransmitting (§5.4).
	Retries int
	// Seed drives GET queue steering.
	Seed int64
}

// DefaultWindow is the per-queue in-flight window when the config leaves
// it zero: deep enough to cover fabric round-trips, small enough that a
// stalled server bounds client memory.
const DefaultWindow = 32

// ErrTimeout is the terminal error of a request whose deadline (and
// retransmits, if configured) expired. It is the apierr taxonomy sentinel
// the public facade re-exports.
var ErrTimeout = apierr.ErrTimeout

// receiver tuning: the longest one RecvBatch may wait (the transport polls,
// then parks on its own notification; this only bounds the park so that
// deadlines get scanned), how many frames it drains per call, and how often
// the pending map is scanned for expired deadlines and cancelled contexts.
const (
	recvPoll      = time.Millisecond
	recvBatch     = 64
	expireScan    = time.Millisecond
	minReassemble = 64
)

// NewPipeline returns a pipeline over tr talking to a server with the
// given number of RX queues. The receiver goroutine starts lazily on the
// first submitted request; Close stops it and fails outstanding calls.
func NewPipeline(tr nic.ClientTransport, queues int, cfg PipelineConfig) *Pipeline {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if queues < 1 {
		queues = 1
	}
	p := &Pipeline{
		tr:      tr,
		queues:  queues,
		window:  cfg.Window,
		timeout: cfg.Timeout,
		retries: cfg.Retries,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		pending: make(map[uint64]*pendingCall),
		tokens:  make([]chan struct{}, queues),
		stop:    make(chan struct{}),
		bell:    ring.NewDoorbell(),
	}
	for i := range p.tokens {
		p.tokens[i] = make(chan struct{}, cfg.Window)
	}
	return p
}

// Window returns the per-queue in-flight window.
func (p *Pipeline) Window() int { return p.window }

// Queues returns the number of server RX queues requests spread over.
func (p *Pipeline) Queues() int { return p.queues }

// Call is one asynchronous request. Wait for Done (or call Wait/Value/Err,
// which block) before reading results.
type Call struct {
	// ID is the wire request id, unique per pipeline.
	ID uint64

	p     *Pipeline
	queue int
	done  chan struct{}
	value []byte
	err   error

	// pooled marks recycled calls backing the blocking wrappers: done is
	// a reusable capacity-1 channel signalled by a token send instead of
	// a close, and the struct goes back to callPool once the waiter has
	// read the results. Calls returned by the *Async methods are never
	// pooled — their Done contract requires a genuinely closed channel.
	pooled bool
	// dst, when set, receives the GET value by append (GetInto); nil
	// means the completion copies the value to fresh heap memory, the
	// public Get contract.
	dst []byte
	// tx is the reusable TX staging slice for leased request frames.
	tx []*mem.Buf
	// ttl is the remaining time-to-live the reply carried (whole
	// milliseconds, 0 = immortal or not a GET hit); read via ReplyTTL.
	ttl uint32
	// doneAt is stamped when the call finishes; read via DoneAt.
	doneAt time.Time
	// pc is the receiver-side state, embedded so a request costs no
	// separate pendingCall allocation.
	pc pendingCall
}

// callPool recycles blocking-wrapper calls; see Call.pooled.
var callPool sync.Pool

func (p *Pipeline) newPooledCall() *Call {
	c, _ := callPool.Get().(*Call)
	if c == nil {
		c = &Call{done: make(chan struct{}, 1), pooled: true}
	}
	c.p = p
	return c
}

// recycleCall scrubs and pools a completed blocking call. The caller must
// have consumed the done token and copied value/err out first.
func recycleCall(c *Call) {
	c.ID = 0
	c.p = nil
	c.queue = 0
	c.value = nil
	c.err = nil
	c.dst = nil
	c.ttl = 0
	c.doneAt = time.Time{}
	c.pc = pendingCall{}
	callPool.Put(c)
}

// Done is closed when the call completes, fails, or times out.
func (c *Call) Done() <-chan struct{} { return c.done }

// Value blocks until the call completes and returns its result: the value
// for GETs (a missing key is apierr.ErrNotFound), nil for acknowledged
// writes.
func (c *Call) Value() (value []byte, err error) {
	<-c.done
	return c.value, c.err
}

// Err blocks until the call completes and returns its terminal error.
func (c *Call) Err() error {
	<-c.done
	return c.err
}

// Wait blocks until the call completes or ctx is done. A context that
// fires first abandons the request — the in-flight window slot is
// released immediately — and returns the context's error.
func (c *Call) Wait(ctx context.Context) (value []byte, err error) {
	if ctx.Done() == nil {
		return c.Value()
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		c.p.abandon(c, ctx.Err())
		<-c.done // abandon or a racing completion finished the call
	}
	return c.value, c.err
}

// Result returns the completed call's value and error without blocking.
// It is the accessor for pooled calls (GetCall), whose Done channel
// delivers a single token instead of closing: the receive from Done that
// observed completion also consumed the token, so the blocking Value/Err
// accessors would hang. Only valid after Done has been observed.
func (c *Call) Result() (value []byte, err error) { return c.value, c.err }

// ReplyTTL returns the remaining time-to-live the reply reported for the
// item a successful GET read: zero for immortal items, writes, and
// misses. Only valid after Done has been observed. Replicated clusters
// use it for read-repair — re-writing a value to a recovering replica
// with the TTL it has left, not the TTL it started with.
func (c *Call) ReplyTTL() time.Duration { return time.Duration(c.ttl) * time.Millisecond }

// DoneAt returns the instant the call finished — reply received,
// deadline fired, or abandoned. Only valid after Done has been observed.
// Latency accounting must use this rather than time.Now() at the point
// the caller notices completion: a caller collecting many calls in order
// notices late, and charging that wait to the node would feed inflated
// tails into the adaptive hedge delay.
func (c *Call) DoneAt() time.Time { return c.doneAt }

// GetCall submits a GET on a pooled call and returns without waiting —
// the building block of hedged cluster reads, which race two of these
// against each other. The contract is stricter than GetAsync in exchange
// for the steady state allocating only the reply value copy-out:
//
//   - Done delivers one token rather than closing; whoever receives it
//     must read results with Result/ReplyTTL, not Value/Err.
//   - Every call must end with exactly one ReleaseCall, after its Done
//     token was consumed. A lost call is first CancelCall'ed, then
//     drained (<-Done()), then released.
//
// key may be reused once GetCall returns.
func (p *Pipeline) GetCall(ctx context.Context, key []byte) *Call {
	call := p.newPooledCall()
	return p.submitCall(ctx, call, wire.OpGetRequest, key, nil, 0, p.timeout)
}

// CancelCall abandons an in-flight pooled call: if the request is still
// pending its window slot is released immediately and the call finishes
// with context.Canceled; if a completion won the race, that result
// stands. Either way the Done token is (or will shortly be) delivered —
// the caller still drains it before ReleaseCall.
func (p *Pipeline) CancelCall(c *Call) { p.abandon(c, context.Canceled) }

// ReleaseCall recycles a pooled call whose Done token has been consumed
// and whose results have been copied out. Releasing a non-pooled
// (*Async) call is a no-op.
func (p *Pipeline) ReleaseCall(c *Call) {
	if c.pooled {
		recycleCall(c)
	}
}

func (c *Call) finish(value []byte, err error) {
	c.doneAt = time.Now()
	c.value, c.err = value, err
	if c.pooled {
		c.done <- struct{}{}
		return
	}
	close(c.done)
}

// pendingCall is the receiver-side state of an in-flight request.
type pendingCall struct {
	call     *Call
	op       wire.Op
	ctx      context.Context
	queue    int
	deadline time.Time
	attempts int
	frames   [][]byte // retained for retransmission; nil when Retries == 0
}

// PipelineStats is a snapshot of pipeline counters.
type PipelineStats struct {
	Sent      uint64 // requests submitted to the transport
	Completed uint64 // requests that got a matching reply
	TimedOut  uint64 // requests that exhausted deadline and retries
	Retried   uint64 // retransmissions performed
	Canceled  uint64 // requests abandoned by context cancellation
	Stale     uint64 // reply frames for no pending request (late or duplicate)
	BadFrames uint64 // undecodable reply frames
	InFlight  int    // currently pending requests
}

func (p *Pipeline) inFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() PipelineStats {
	inflight := p.inFlight()
	return PipelineStats{
		Sent:      p.sent.Load(),
		Completed: p.completed.Load(),
		TimedOut:  p.timedOut.Load(),
		Retried:   p.retried.Load(),
		Canceled:  p.canceled.Load(),
		Stale:     p.stale.Load(),
		BadFrames: p.badFrames.Load(),
		InFlight:  inflight,
	}
}

// steer picks the RX queue: random for GETs, keyhash for writes (§3).
func (p *Pipeline) steer(op wire.Op, key []byte) uint16 {
	if !op.IsWrite() {
		p.mu.Lock()
		q := p.rng.Intn(p.queues)
		p.mu.Unlock()
		return uint16(q)
	}
	return uint16(kv.Hash(key) % uint64(p.queues))
}

// GetAsync submits a GET and returns immediately (unless the target
// queue's window is full, in which case it blocks for a slot). key may be
// reused once GetAsync returns.
func (p *Pipeline) GetAsync(key []byte) *Call {
	return p.submit(context.Background(), wire.OpGetRequest, key, nil, 0, p.timeout)
}

// PutAsync submits a PUT. key and value may be reused once it returns.
func (p *Pipeline) PutAsync(key, value []byte) *Call {
	return p.submit(context.Background(), wire.OpPutRequest, key, value, 0, p.timeout)
}

// PutTTLAsync submits a PUT whose item expires after ttl.
func (p *Pipeline) PutTTLAsync(key, value []byte, ttl time.Duration) *Call {
	return p.submit(context.Background(), wire.OpPutRequest, key, value, ttlMillis(ttl), p.timeout)
}

// DeleteAsync submits a DELETE. key may be reused once it returns.
func (p *Pipeline) DeleteAsync(key []byte) *Call {
	return p.submit(context.Background(), wire.OpDeleteRequest, key, nil, 0, p.timeout)
}

// Get is the blocking wrapper: one GET, wait for its reply. A missing key
// returns apierr.ErrNotFound; a key whose expired item the read itself
// observed returns apierr.ErrEvicted (which also matches ErrNotFound).
// The distinction is best-effort: once a sweep or the eviction clock has
// reclaimed the item, the miss is plain ErrNotFound. The returned value is
// freshly allocated and owned by the caller; GetInto is the
// zero-allocation variant.
func (p *Pipeline) Get(ctx context.Context, key []byte) (value []byte, err error) {
	return p.doSync(ctx, wire.OpGetRequest, key, nil, 0, nil, false)
}

// GetInto is Get appending the value into dst (which may be nil), the way
// kv.Store.Get does: it returns the extended slice on a hit and dst
// unchanged on a miss or error. When cap(dst) covers the value, the whole
// round trip allocates nothing.
func (p *Pipeline) GetInto(ctx context.Context, key, dst []byte) (value []byte, err error) {
	return p.doSync(ctx, wire.OpGetRequest, key, nil, 0, dst, true)
}

// Put is the blocking wrapper: one PUT, wait for its acknowledgment.
func (p *Pipeline) Put(ctx context.Context, key, value []byte) error {
	_, err := p.doSync(ctx, wire.OpPutRequest, key, value, 0, nil, false)
	return err
}

// PutTTL stores value under key with a time-to-live: reads after ttl
// elapses miss — with apierr.ErrEvicted when the read observes the
// expired item, plain apierr.ErrNotFound once a sweep already reclaimed
// it. ttl <= 0 stores an immortal item (identical to Put). The wire
// carries whole milliseconds; sub-millisecond TTLs round up.
func (p *Pipeline) PutTTL(ctx context.Context, key, value []byte, ttl time.Duration) error {
	_, err := p.doSync(ctx, wire.OpPutRequest, key, value, ttlMillis(ttl), nil, false)
	return err
}

// Delete removes key, waiting for the acknowledgment. Deleting a key that
// does not exist returns apierr.ErrNotFound.
func (p *Pipeline) Delete(ctx context.Context, key []byte) error {
	_, err := p.doSync(ctx, wire.OpDeleteRequest, key, nil, 0, nil, false)
	return err
}

// doSync runs one blocking request on a recycled call, so the steady-state
// synchronous path allocates neither a Call, a done channel, a
// pendingCall, nor (via the leased encode path) any frame.
func (p *Pipeline) doSync(ctx context.Context, op wire.Op, key, value []byte, ttlMs uint32, dst []byte, intoDst bool) ([]byte, error) {
	call := p.newPooledCall()
	call.dst = dst
	p.submitCall(ctx, call, op, key, value, ttlMs, p.timeout)
	if ctx.Done() == nil {
		<-call.done
	} else {
		select {
		case <-call.done:
		case <-ctx.Done():
			p.abandon(call, ctx.Err())
			<-call.done // abandon or a racing completion finished the call
		}
	}
	v, err := call.value, call.err
	recycleCall(call)
	if intoDst && v == nil {
		v = dst // miss or failure: GetInto leaves dst as it was
	}
	return v, err
}

// ttlMillis converts a TTL to the wire's millisecond field, rounding up
// so a positive TTL never becomes "immortal", and saturating at the
// field's ~49-day maximum.
func ttlMillis(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	ms := (int64(ttl) + int64(time.Millisecond) - 1) / int64(time.Millisecond)
	if ms > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// MultiGet pipelines one GET per key and waits for all of them — the
// fan-out pattern of §1, where application response time is the slowest of
// K parallel GETs. values[i] carries the value for keys[i]; a missing key
// leaves values[i] nil without failing the batch. err is the first
// failure other than a miss, if any (remaining results are still filled
// in).
func (p *Pipeline) MultiGet(ctx context.Context, keys [][]byte) (values [][]byte, err error) {
	calls := make([]*Call, len(keys))
	for i, k := range keys {
		calls[i] = p.submit(ctx, wire.OpGetRequest, k, nil, 0, p.timeout)
	}
	values = make([][]byte, len(keys))
	for i, c := range calls {
		v, cerr := c.Wait(ctx)
		values[i] = v
		if cerr != nil && err == nil && !errors.Is(cerr, apierr.ErrNotFound) {
			err = cerr
		}
	}
	return values, err
}

// submit allocates a fresh asynchronous call and transmits it; the *Async
// methods use it so their Done channel really closes.
func (p *Pipeline) submit(ctx context.Context, op wire.Op, key, value []byte, ttlMs uint32, timeout time.Duration) *Call {
	call := &Call{p: p, done: make(chan struct{})}
	return p.submitCall(ctx, call, op, key, value, ttlMs, timeout)
}

// submitCall encodes and transmits one request with the given deadline on
// the provided (fresh or recycled) call. ttlMs rides in the header on PUTs
// (0 = no expiry).
//
// Request frames are leased and handed to the transport, which recycles
// them once transmitted (or forwards them through the in-process fabric to
// the server, which recycles them after serving). With Retries > 0 the
// frames are instead plain heap memory retained on the pendingCall: a
// retransmission may race with the first copy still sitting in a transport
// ring, so the bytes must stay immutable until the call completes.
func (p *Pipeline) submitCall(ctx context.Context, call *Call, op wire.Op, key, value []byte, ttlMs uint32, timeout time.Duration) *Call {
	p.start.Do(func() {
		p.wg.Add(1)
		go p.receiverLoop()
	})
	// Cancelled before send: fail without transmitting or consuming a
	// window slot.
	if err := ctx.Err(); err != nil {
		p.canceled.Add(1)
		call.finish(nil, err)
		return call
	}
	if len(key) > wire.MaxKeySize {
		call.finish(nil, fmt.Errorf("client: %d byte key: %w", len(key), apierr.ErrKeyTooLarge))
		return call
	}
	if len(value) > wire.MaxValueSize {
		call.finish(nil, fmt.Errorf("client: %d byte value: %w", len(value), apierr.ErrValueTooLarge))
		return call
	}
	if timeout <= 0 {
		timeout = p.timeout
	}
	q := int(p.steer(op, key))
	call.queue = q
	// Acquire a window slot on the target queue; released on completion,
	// terminal timeout, or abandonment.
	select {
	case p.tokens[q] <- struct{}{}:
	case <-ctx.Done():
		p.canceled.Add(1)
		call.finish(nil, ctx.Err())
		return call
	case <-p.stop:
		call.finish(nil, apierr.ErrClosed)
		return call
	}
	call.ID = p.nextID.Add(1)
	msg := wire.Message{
		Op:        op,
		RxQueue:   uint16(q),
		ReqID:     call.ID,
		Timestamp: time.Now().UnixNano(),
		TTL:       ttlMs,
		Key:       key,
		Value:     value,
	}
	pc := &call.pc
	pc.call = call
	pc.op = op
	pc.queue = q
	pc.deadline = time.Now().Add(timeout)
	if ctx.Done() != nil {
		pc.ctx = ctx
	}
	if p.retries > 0 {
		pc.frames = msg.Frames()
		call.tx = appendStatic(call.tx[:0], pc.frames)
	} else {
		call.tx = msg.LeaseFrames(call.tx[:0])
	}
	p.mu.Lock()
	p.pending[call.ID] = pc
	p.mu.Unlock()
	p.bell.Ring() // rouse the receiver if it parked on an empty pipeline
	if err := p.tr.SendBatch(q, call.tx); err != nil {
		p.abandon(call, err)
		return call
	}
	// If the pipeline stopped between the window acquire and the insert,
	// the receiver may already have drained the pending map; reclaim the
	// entry here so the call cannot hang. Removal is guarded by mu, so
	// exactly one of failAll, abandon and complete finishes the call.
	select {
	case <-p.stop:
		p.abandon(call, apierr.ErrClosed)
	default:
	}
	p.sent.Add(1)
	return call
}

// appendStatic wraps heap frames for a transport that now takes owned
// buffers; Static buffers survive the transport's Release, which is what
// the retransmission path needs.
func appendStatic(dst []*mem.Buf, frames [][]byte) []*mem.Buf {
	for _, f := range frames {
		dst = append(dst, mem.Static(f))
	}
	return dst
}

// abandon removes call from the pending map if it is still there and, if
// so, releases its window slot and fails it with err. Losing the race to
// a completion or shutdown is fine: whoever removed the entry finished
// the call.
func (p *Pipeline) abandon(call *Call, err error) {
	p.mu.Lock()
	_, still := p.pending[call.ID]
	if still {
		delete(p.pending, call.ID)
	}
	p.mu.Unlock()
	if still {
		<-p.tokens[call.queue]
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			p.canceled.Add(1)
		}
		call.finish(nil, err)
	}
}

// receiverLoop drains reply frames, matches them to pending calls by
// request id, reassembles fragmented replies, and expires deadlines. It is
// the only goroutine that completes calls from replies, so completion and
// expiry never race with each other.
func (p *Pipeline) receiverLoop() {
	defer p.wg.Done()
	bufs := make([][]byte, recvBatch)
	for i := range bufs {
		bufs[i] = make([]byte, wire.MTU)
	}
	// One reassembler keyed by request id via the single source 0; sized
	// to the whole window so fragmented replies are never evicted while
	// their request is still pending.
	maxPending := p.window * p.queues
	if maxPending < minReassemble {
		maxPending = minReassemble
	}
	reasm := wire.NewReassembler(maxPending)
	// scratch is the reusable decode target: single-fragment replies alias
	// the recv buffer (valid until the next RecvBatch reuses it, which is
	// after complete copies the value out), and reassembled replies move
	// their leased body into it, recycled by the Reset below.
	var scratch wire.Message
	nextExpire := time.Now().Add(expireScan)
	var idle ring.Idle
	for {
		select {
		case <-p.stop:
			p.failAll(apierr.ErrClosed)
			return
		default:
		}
		// With nothing in flight nothing can expire and the next event is
		// a submit: keep reading the transport, without waiting in it and
		// yielding in between, for ring.SpinBound (a reply that is late
		// by less is still counted stale at once), then park on the
		// doorbell submits ring. Stale frames that arrive during the park
		// wait in the transport until the next submit, where they are
		// drained and counted.
		wait := recvPoll
		if p.inFlight() > 0 {
			idle.Reset()
		} else if idle.Spin() {
			wait = 0
		} else {
			p.bell.Arm()
			if p.inFlight() == 0 {
				select {
				case <-p.bell.C():
				case <-p.stop:
				}
			}
			p.bell.Disarm()
			continue
		}
		n := p.tr.RecvBatch(bufs, wait)
		for i := 0; i < n; i++ {
			frame := bufs[i]
			id, ok := wire.PeekReqID(frame)
			if !ok {
				p.badFrames.Add(1)
				continue
			}
			p.mu.Lock()
			pc := p.pending[id]
			p.mu.Unlock()
			if pc == nil {
				p.stale.Add(1) // reply for a timed-out or duplicate request
				continue
			}
			done, err := reasm.AddInto(0, frame, &scratch)
			if err != nil {
				p.badFrames.Add(1)
				continue
			}
			if !done {
				continue // fragment of a still-incomplete reply
			}
			p.complete(pc, &scratch)
			scratch.Reset()
		}
		if now := time.Now(); now.After(nextExpire) {
			p.expire(now)
			nextExpire = now.Add(expireScan)
		}
	}
}

// complete finishes a call from its reply message. Removal from the
// pending map decides ownership: a concurrent shutdown path (abandon,
// failAll) that already removed the entry also already finished the call.
func (p *Pipeline) complete(pc *pendingCall, msg *wire.Message) {
	p.mu.Lock()
	_, still := p.pending[msg.ReqID]
	if still {
		delete(p.pending, msg.ReqID)
	}
	p.mu.Unlock()
	if !still {
		p.stale.Add(1)
		return
	}
	<-p.tokens[pc.queue]
	p.completed.Add(1)
	pc.call.ttl = msg.TTL
	value, err := resultFor(pc.op, msg)
	if value != nil {
		// msg aliases the receive buffer (or a leased reassembly body)
		// that is recycled right after this call, so the value must be
		// copied out before the call is finished. The copy lands in the
		// caller-provided GetInto destination when there is one; plain Get
		// leaves dst nil and pays exactly this one heap allocation — the
		// documented copy-out contract.
		value = append(pc.call.dst, value...)
	}
	pc.call.finish(value, err)
}

// resultFor maps a reply's status to the error taxonomy: StatusNotFound
// becomes ErrNotFound, StatusEvicted becomes ErrEvicted (a subtype of
// ErrNotFound under errors.Is), StatusTooLarge becomes ErrValueTooLarge,
// and any other non-OK status wraps ErrServer with the op and code
// preserved in the message.
func resultFor(op wire.Op, msg *wire.Message) (value []byte, err error) {
	switch msg.Status {
	case wire.StatusOK:
		if op == wire.OpGetRequest {
			return msg.Value, nil
		}
		return nil, nil
	case wire.StatusNotFound:
		return nil, apierr.ErrNotFound
	case wire.StatusEvicted:
		return nil, apierr.ErrEvicted
	case wire.StatusTooLarge:
		return nil, apierr.ErrValueTooLarge
	default:
		return nil, fmt.Errorf("client: %v failed with status %d: %w", op, msg.Status, apierr.ErrServer)
	}
}

// expire retransmits or fails every pending call past its deadline, and
// abandons calls whose context was cancelled — so cancellation releases
// the window slot promptly even when nobody is blocked in Wait.
func (p *Pipeline) expire(now time.Time) {
	type deadCall struct {
		pc  *pendingCall
		err error
	}
	var resend []*pendingCall
	var dead []deadCall
	p.mu.Lock()
	for id, pc := range p.pending {
		if pc.ctx != nil {
			if err := pc.ctx.Err(); err != nil {
				delete(p.pending, id)
				dead = append(dead, deadCall{pc, err})
				continue
			}
		}
		if now.Before(pc.deadline) {
			continue
		}
		if pc.attempts < p.retries {
			pc.attempts++
			pc.deadline = now.Add(p.timeout)
			resend = append(resend, pc)
		} else {
			delete(p.pending, id)
			dead = append(dead, deadCall{pc, ErrTimeout})
		}
	}
	p.mu.Unlock()
	for _, pc := range resend {
		// Retransmission is a rare loss-recovery path: wrapping the
		// retained heap frames in Static buffers (one small allocation
		// each) keeps them immutable across however many copies are in
		// flight, while satisfying the transport's owned-buffer contract.
		p.retried.Add(1)
		_ = p.tr.SendBatch(pc.queue, appendStatic(nil, pc.frames))
	}
	for _, d := range dead {
		<-p.tokens[d.pc.queue]
		if d.err == ErrTimeout {
			p.timedOut.Add(1)
		} else {
			p.canceled.Add(1)
		}
		d.pc.call.finish(nil, d.err)
	}
}

// failAll terminates every pending call with err (pipeline shutdown).
func (p *Pipeline) failAll(err error) {
	p.mu.Lock()
	pending := p.pending
	p.pending = make(map[uint64]*pendingCall)
	p.mu.Unlock()
	for _, pc := range pending {
		<-p.tokens[pc.queue]
		pc.call.finish(nil, err)
	}
}

// Close stops the receiver and fails outstanding calls with ErrClosed.
// The transport is not closed; the caller owns it.
func (p *Pipeline) Close() error {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	return nil
}
