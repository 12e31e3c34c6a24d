package nic

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/ring"
)

// rxWaker rings the server cores' doorbells for a UDPServer, whose Recv
// never blocks and whose producer, the kernel, cannot ring. A parked core
// is woken by whoever is in a position to see its datagram:
//
//   - Nobody is polling. Each socket has a watcher goroutine that sleeps
//     until a core has armed the bell the queue is steered to and polled
//     the queue empty, then waits in the netpoller for the socket to become
//     readable and rings. An idle P sits in the netpoller, so this is
//     prompt exactly when the process is otherwise idle.
//   - Somebody is polling. Then every P is busy, nobody looks at the
//     netpoller until sysmon does after 10 ms, and the 50 requests that
//     reach the parked queue meanwhile wait with the first. So an empty
//     poll of any queue also looks, with one zero-timeout ppoll each, at
//     the sockets of the parked cores and rings for the readable ones.
//
// The first alone leaves udp-small's small p99 at the parent's 7 ms; the
// second alone never wakes a server that is parked as a whole. While no
// core is parked the watchers sleep and an empty poll costs one atomic
// load per queue on top of the core's own non-blocking read.
type rxWaker struct {
	qs   []rxWatch
	done chan struct{} // closed by close: stops the watchers
	once sync.Once
	wg   sync.WaitGroup
}

// rxWatch is one RX queue's share of an rxWaker.
type rxWatch struct {
	raw  *rawUDP                       // nil without a raw path
	bell atomic.Pointer[ring.Doorbell] // whom an arrival wakes (steer)
	kick *ring.Doorbell                // the watcher's own, rung by emptyPoll
}

// wanted reports whether an armed core is waiting on this queue.
func (w *rxWatch) wanted() bool {
	bell := w.bell.Load()
	return bell != nil && bell.Armed()
}

// newRxWaker starts one watcher per socket.
func newRxWaker(raws []*rawUDP) *rxWaker {
	k := &rxWaker{qs: make([]rxWatch, len(raws)), done: make(chan struct{})}
	for q := range k.qs {
		k.qs[q].raw = raws[q]
		k.qs[q].kick = ring.NewDoorbell()
		k.wg.Add(1)
		go k.watcher(&k.qs[q])
	}
	return k
}

// steer points queue q's arrivals at bell.
func (k *rxWaker) steer(q int, bell *ring.Doorbell) { k.qs[q].bell.Store(bell) }

// emptyPoll is told that a Recv of queue q found nothing. For q's own
// parked core that poll was the doorbell protocol's re-check (or that of a
// neighbour that drains q too) and the watcher takes over; for the others
// it stands in for their watchers, which no busy P would schedule.
func (k *rxWaker) emptyPoll(q int) {
	for i := range k.qs {
		w := &k.qs[i]
		bell := w.bell.Load()
		switch {
		case bell == nil || !bell.Armed():
		case i == q:
			w.kick.Ring()
		case w.raw.readable():
			bell.Ring()
		}
	}
}

func (k *rxWaker) watcher(w *rxWatch) {
	defer k.wg.Done()
	for {
		w.kick.Arm()
		if !w.wanted() {
			select {
			case <-w.kick.C():
			case <-k.done:
				return
			}
		}
		w.kick.Disarm()
		if w.wanted() && k.waitReadable(w.raw) {
			if bell := w.bell.Load(); bell != nil {
				bell.Ring()
			}
		}
		select {
		case <-k.done:
			return
		default:
		}
	}
}

// waitReadable blocks until raw's socket has a datagram waiting, in the
// netpoller; without a raw path it says "look" once a millisecond. False
// means the socket was closed.
func (k *rxWaker) waitReadable(raw *rawUDP) bool {
	if raw != nil {
		return raw.waitReadable()
	}
	select {
	case <-k.done:
		return false
	case <-time.After(time.Millisecond):
		return true
	}
}

// close stops the watchers and waits for them. The caller has closed the
// sockets, which is what ends a wait in the netpoller.
func (k *rxWaker) close() {
	k.once.Do(func() { close(k.done) })
	k.wg.Wait()
}
