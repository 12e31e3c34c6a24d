package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/minoskv/minos/internal/apierr"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/wire"
)

// fakePipe is a controllable transport: it counts transmissions per
// request id and delivers whatever replies the test pushes, so tests can
// reorder, withhold, or delay completions deterministically.
type fakePipe struct {
	mu      sync.Mutex
	sends   map[uint64]int               // SendBatch calls per request id
	onSend  func(id uint64, nthSend int) // called outside mu per request send
	replies chan []byte
}

func newFakePipe() *fakePipe {
	return &fakePipe{sends: make(map[uint64]int), replies: make(chan []byte, 256)}
}

func (f *fakePipe) Send(q int, frame *mem.Buf) error { return f.SendBatch(q, []*mem.Buf{frame}) }

func (f *fakePipe) SendBatch(q int, frames []*mem.Buf) error {
	type sent struct {
		id  uint64
		nth int
	}
	var events []sent
	f.mu.Lock()
	for _, fr := range frames {
		if id, ok := wire.PeekReqID(fr.Data); ok && wirePrimaryFragment(fr.Data) {
			f.sends[id]++
			events = append(events, sent{id, f.sends[id]})
		}
		fr.Release()
	}
	f.mu.Unlock()
	if f.onSend != nil {
		for _, e := range events {
			f.onSend(e.id, e.nth)
		}
	}
	return nil
}

// wirePrimaryFragment reports whether fr is a message's first fragment, so
// multi-frame requests count once per transmission.
func wirePrimaryFragment(fr []byte) bool {
	h, _, err := wire.DecodeHeader(fr)
	return err == nil && h.FragOff == 0
}

func (f *fakePipe) sendsFor(id uint64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends[id]
}

// pushReply delivers a GET reply for id carrying value.
func (f *fakePipe) pushReply(id uint64, value []byte) {
	msg := &wire.Message{Op: wire.OpGetReply, Status: wire.StatusOK, ReqID: id, Value: value}
	for _, fr := range msg.Frames() {
		f.replies <- fr
	}
}

func (f *fakePipe) Recv(buf []byte, timeout time.Duration) (int, bool) {
	out := [][]byte{buf}
	if n := f.RecvBatch(out, timeout); n == 1 {
		return len(out[0]), true
	}
	return 0, false
}

func (f *fakePipe) RecvBatch(out [][]byte, timeout time.Duration) int {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	got := 0
	for got < len(out) {
		if got == 0 {
			select {
			case fr := <-f.replies:
				out[0] = out[0][:copy(out[0][:cap(out[0])], fr)]
				got = 1
			case <-timer.C:
				return 0
			}
			continue
		}
		select {
		case fr := <-f.replies:
			out[got] = out[got][:copy(out[got][:cap(out[got])], fr)]
			got++
		default:
			return got
		}
	}
	return got
}

func (f *fakePipe) Endpoint() nic.Endpoint { return nic.Endpoint{} }
func (f *fakePipe) Close() error           { return nil }

func TestPipelineOutOfOrderCompletion(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 8, Timeout: 2 * time.Second})
	defer p.Close()

	calls := make([]*Call, 4)
	for i := range calls {
		calls[i] = p.GetAsync([]byte(fmt.Sprintf("key-%d", i)))
	}
	// Replies arrive in reverse submission order; ids are 1..4.
	for id := uint64(4); id >= 1; id-- {
		ft.pushReply(id, []byte(fmt.Sprintf("value-%d", id)))
	}
	for i, c := range calls {
		v, err := c.Value()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := fmt.Sprintf("value-%d", c.ID); string(v) != want {
			t.Fatalf("call %d (id %d): got %q, want %q", i, c.ID, v, want)
		}
	}
	if st := p.Stats(); st.Completed != 4 || st.InFlight != 0 {
		t.Fatalf("stats after out-of-order run: %+v", st)
	}
}

func TestPipelineWindowSaturation(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 2, Timeout: 5 * time.Second})
	defer p.Close()

	c1 := p.GetAsync([]byte("k1"))
	_ = p.GetAsync([]byte("k2"))

	// The third submit must block until a window slot frees.
	third := make(chan *Call, 1)
	go func() { third <- p.GetAsync([]byte("k3")) }()
	select {
	case <-third:
		t.Fatal("third request submitted past a full window")
	case <-time.After(50 * time.Millisecond):
	}
	ft.pushReply(c1.ID, []byte("v1"))
	if _, err := c1.Value(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	select {
	case c3 := <-third:
		ft.pushReply(c3.ID, []byte("v3"))
		if _, err := c3.Value(); err != nil {
			t.Fatalf("third call: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("third submit still blocked after a slot freed")
	}
}

func TestPipelinePerRequestTimeout(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: 20 * time.Millisecond})
	defer p.Close()

	c := p.GetAsync([]byte("never-answered"))
	if err := c.Err(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	st := p.Stats()
	if st.TimedOut != 1 || st.InFlight != 0 {
		t.Fatalf("stats after timeout: %+v", st)
	}
	// A reply landing after the deadline is counted stale, not delivered.
	ft.pushReply(c.ID, []byte("too-late"))
	deadline := time.Now().Add(time.Second)
	for p.Stats().Stale == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late reply never counted stale")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineRetryThenComplete(t *testing.T) {
	ft := newFakePipe()
	// Reply only to the second transmission of each request.
	ft.onSend = func(id uint64, nth int) {
		if nth == 2 {
			ft.pushReply(id, []byte("eventually"))
		}
	}
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: 15 * time.Millisecond, Retries: 3})
	defer p.Close()

	c := p.GetAsync([]byte("flaky"))
	v, err := c.Value()
	if err != nil || string(v) != "eventually" {
		t.Fatalf("retried call: %q err=%v", v, err)
	}
	if got := ft.sendsFor(c.ID); got != 2 {
		t.Fatalf("request transmitted %d times, want 2", got)
	}
	if st := p.Stats(); st.Retried != 1 || st.TimedOut != 0 {
		t.Fatalf("stats after retry: %+v", st)
	}
}

func TestPipelineRetriesExhausted(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: 10 * time.Millisecond, Retries: 2})
	defer p.Close()

	c := p.GetAsync([]byte("black-hole"))
	if err := c.Err(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := ft.sendsFor(c.ID); got != 3 { // original + 2 retries
		t.Fatalf("request transmitted %d times, want 3", got)
	}
	if st := p.Stats(); st.Retried != 2 || st.TimedOut != 1 {
		t.Fatalf("stats after exhausted retries: %+v", st)
	}
}

// TestPipelineConcurrentCallers hammers one shared pipeline from many
// goroutines against a loopback echo; run with -race.
func TestPipelineConcurrentCallers(t *testing.T) {
	ft := newFakePipe()
	// Echo server: complete every request on first transmission with a
	// value derived from its id.
	ft.onSend = func(id uint64, nth int) {
		ft.pushReply(id, []byte(fmt.Sprintf("v%d", id)))
	}
	p := NewPipeline(ft, 4, PipelineConfig{Window: 8, Timeout: 5 * time.Second})
	defer p.Close()

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c := p.GetAsync([]byte(fmt.Sprintf("g%d-i%d", g, i)))
				v, err := c.Value()
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %v", g, i, err)
					return
				}
				if want := fmt.Sprintf("v%d", c.ID); string(v) != want {
					errs <- fmt.Errorf("g%d i%d: got %q want %q", g, i, v, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := p.Stats()
	if st.Completed != goroutines*perG || st.InFlight != 0 {
		t.Fatalf("stats after concurrent run: %+v", st)
	}
}

func TestPipelineCloseFailsOutstanding(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: time.Minute})
	c := p.GetAsync([]byte("stranded"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); !errors.Is(err, apierr.ErrClosed) {
		t.Fatalf("err after close = %v, want ErrClosed", err)
	}
	// Submitting after close fails fast instead of hanging.
	if err := p.GetAsync([]byte("post-close")).Err(); !errors.Is(err, apierr.ErrClosed) {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
}

func TestPipelineMultiGetFragmentedReplies(t *testing.T) {
	ft := newFakePipe()
	big := make([]byte, 3*wire.MaxFragPayload+17) // four fragments
	for i := range big {
		big[i] = byte(i)
	}
	ft.onSend = func(id uint64, nth int) {
		if id%2 == 0 {
			ft.pushReply(id, big)
		} else {
			ft.pushReply(id, []byte("small"))
		}
	}
	p := NewPipeline(ft, 2, PipelineConfig{Window: 4, Timeout: 5 * time.Second})
	defer p.Close()

	keys := make([][]byte, 6)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	values, err := p.MultiGet(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if values[i] == nil {
			t.Fatalf("key %d missing", i)
		}
		if len(values[i]) != len(big) && string(values[i]) != "small" {
			t.Fatalf("key %d: unexpected value length %d", i, len(values[i]))
		}
	}
}

func TestPipelineCancelBeforeSend(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: time.Minute})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Get(ctx, []byte("unsent")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := p.Stats()
	if st.Sent != 0 || st.InFlight != 0 || st.Canceled != 1 {
		t.Fatalf("cancelled-before-send stats: %+v", st)
	}
	if ft.sendsFor(1) != 0 {
		t.Fatal("cancelled request reached the transport")
	}
}

func TestPipelineCancelInFlightReleasesSlot(t *testing.T) {
	ft := newFakePipe() // never replies unless pushed
	p := NewPipeline(ft, 1, PipelineConfig{Window: 1, Timeout: time.Minute})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Get(ctx, []byte("in-flight"))
		done <- err
	}()
	// Wait until the request is actually pending, then cancel mid-flight.
	deadline := time.Now().Add(time.Second)
	for p.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Get did not return promptly")
	}
	st := p.Stats()
	if st.InFlight != 0 || st.Canceled != 1 {
		t.Fatalf("cancelled-in-flight stats: %+v", st)
	}
	// The window slot was released: a fresh request fits immediately
	// even at Window=1.
	c := p.GetAsync([]byte("next"))
	ft.pushReply(c.ID, []byte("v"))
	if _, err := c.Value(); err != nil {
		t.Fatalf("request after cancel: %v", err)
	}
}

// TestPipelineCancelAsyncViaExpireScan covers the path where nobody is
// blocked in Wait: the receiver's expiry scan notices the dead context
// and abandons the slot.
func TestPipelineCancelAsyncViaExpireScan(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 1, Timeout: time.Minute})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := p.submit(ctx, wire.OpGetRequest, []byte("async"), nil, 0, 0)
	cancel()
	select {
	case <-c.Done():
		if err := c.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("expire scan never abandoned the cancelled call")
	}
	if st := p.Stats(); st.InFlight != 0 || st.Canceled != 1 {
		t.Fatalf("stats after async cancel: %+v", st)
	}
}

func TestPipelineCtxDeadlineVsPipelineDeadline(t *testing.T) {
	// Context deadline earlier than the pipeline deadline: the context
	// wins and the error is context.DeadlineExceeded.
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 4, Timeout: time.Minute})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Get(ctx, []byte("ctx-first")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctx-first err = %v, want DeadlineExceeded", err)
	}

	// Pipeline deadline earlier than the context deadline: the request
	// times out with ErrTimeout while the context is still live.
	p2 := NewPipeline(newFakePipe(), 1, PipelineConfig{Window: 4, Timeout: 20 * time.Millisecond})
	defer p2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := p2.Get(ctx2, []byte("pipe-first")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("pipeline-first err = %v, want ErrTimeout", err)
	}
	if st := p2.Stats(); st.TimedOut != 1 || st.InFlight != 0 {
		t.Fatalf("stats after pipeline-deadline race: %+v", st)
	}
}

func TestPipelineValueTooLarge(t *testing.T) {
	ft := newFakePipe()
	p := NewPipeline(ft, 1, PipelineConfig{Window: 1, Timeout: time.Minute})
	defer p.Close()
	huge := make([]byte, wire.MaxValueSize+1)
	err := p.Put(context.Background(), []byte("k"), huge)
	if !errors.Is(err, apierr.ErrValueTooLarge) {
		t.Fatalf("err = %v, want ErrValueTooLarge", err)
	}
	if st := p.Stats(); st.Sent != 0 || st.InFlight != 0 {
		t.Fatalf("oversized put consumed pipeline state: %+v", st)
	}
}

// TestPipelineCloseWithParkedReceiver: after a silence the receiver is
// parked on the pipeline's doorbell, with nothing in flight to time out;
// Close must reach it through the stop channel the park also selects on.
func TestPipelineCloseWithParkedReceiver(t *testing.T) {
	ft := newFakePipe()
	ft.onSend = func(id uint64, _ int) { ft.pushReply(id, []byte("v")) }
	p := NewPipeline(ft, 1, PipelineConfig{Timeout: 5 * time.Second})
	if _, err := p.Get(context.Background(), []byte("k")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // long against ring.SpinBound
	// A submit must rouse it again...
	if _, err := p.Get(context.Background(), []byte("k")); err != nil {
		t.Fatalf("request after the receiver parked: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	// ...and so must Close.
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close did not return with the receiver parked")
	}
}
