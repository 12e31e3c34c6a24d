package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// SpinBound is how long a waiter on the datapath keeps polling, yielding
// between polls, after it last found work before it parks on its doorbell.
// It is the classic "spin for as long as a block costs". Parking at once, or
// after a fixed number of yields, puts a thread wake-up on nearly every
// request at moderate load, and on shared vCPUs a woken thread can queue a
// whole 4 ms kernel tick behind a CPU-bound neighbour; spinning forever is
// the paper's dedicated polling core, which shared hardware cannot afford.
// What the bound has to outlast is the gap between two requests: at rate r
// a waiter parks in mid-stream e^(-r·SpinBound) of the time, which at the
// benchmark's slowest open rate, 10 kops, is once in 150 requests for 0.5 ms
// and once in 22 000 for 1 ms. Measured on 2 vCPUs, small p99: park at once,
// 3.7-5.8 ms; 0.5 ms, 4.3-5.0 ms at 10 kops (udp-small) and 0.3-0.9 ms at
// 20 kops (fabric-mixed); 1 ms, median 0.32 and 0.43 ms (DESIGN.md §13).
const SpinBound = time.Millisecond

// Doorbell parks one waiter until a producer has work for it, without a
// timer and without a lost wake-up. The waiter arms the bell, polls every
// source it drains once more, and only then blocks on C; a producer
// publishes its work first and rings second. Go's atomics are sequentially
// consistent, so either the producer's Ring sees the bell armed or the
// waiter's re-poll sees the work. A producer that finds the bell unarmed
// pays one atomic load, which is all the hot path ever costs.
//
// One goroutine waits on a doorbell; any number may ring it.
type Doorbell struct {
	armed atomic.Bool
	ch    chan struct{}
}

// NewDoorbell returns an unarmed doorbell.
func NewDoorbell() *Doorbell {
	return &Doorbell{ch: make(chan struct{}, 1)}
}

// Arm declares the waiter about to block. It must re-poll its sources
// between Arm and the receive from C.
func (d *Doorbell) Arm() { d.armed.Store(true) }

// Armed reports whether the waiter is parked or about to.
func (d *Doorbell) Armed() bool { return d.armed.Load() }

// C is the channel the armed waiter blocks on; it may select on it beside
// a stop channel or a deadline timer.
func (d *Doorbell) C() <-chan struct{} { return d.ch }

// Disarm ends a park, whether the waiter was rung, found work on its
// re-poll or gave up on a deadline. It swallows a ring that raced the
// re-poll so the next park does not return at once for work already done.
func (d *Doorbell) Disarm() {
	d.armed.Store(false)
	select {
	case <-d.ch:
	default:
	}
}

// Ring wakes the waiter if it is armed and reports whether it did. Call it
// after the work is published. Among concurrent ringers one wins the
// disarming swap and pays the channel send; the rest return false.
func (d *Doorbell) Ring() bool {
	if !d.armed.Load() || !d.armed.CompareAndSwap(true, false) {
		return false
	}
	select {
	case d.ch <- struct{}{}:
	default: // a ring from an earlier park is still unread: one is enough
	}
	return true
}

// monoBase anchors Idle's clock: time.Since on a monotonic base reads only
// the monotonic clock.
var monoBase = time.Now()

// Idle is the other half of the wait discipline: it tells a waiter whose
// poll came up empty whether to poll again or to park. The zero value is
// ready; it is not safe for concurrent use (each waiter owns one).
type Idle struct {
	since time.Duration // first empty poll since work was last found; 0 = busy
}

// Reset notes that the last poll found work.
func (i *Idle) Reset() { i.since = 0 }

// Spin reports whether to poll again, and if so yields first: true until
// SpinBound has passed since the first empty poll after the last Reset.
// Once it returns false it stays false until Reset, so a waiter woken for
// nothing parks again after one poll.
func (i *Idle) Spin() bool {
	now := time.Since(monoBase) | 1 // never 0, the busy mark
	if i.since == 0 {
		i.since = now
	} else if now-i.since >= SpinBound {
		return false
	}
	runtime.Gosched()
	return true
}
