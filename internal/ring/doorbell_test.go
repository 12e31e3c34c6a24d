package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoorbellRingsOnlyWhenArmed(t *testing.T) {
	d := NewDoorbell()
	if d.Ring() {
		t.Fatal("Ring woke an unarmed bell")
	}
	d.Arm()
	if !d.Armed() {
		t.Fatal("Arm did not arm")
	}
	if !d.Ring() {
		t.Fatal("Ring did not wake an armed bell")
	}
	if d.Ring() {
		t.Fatal("second Ring of one park reported a wake-up")
	}
	select {
	case <-d.C():
	default:
		t.Fatal("no token after a successful Ring")
	}
}

// A ring that raced the re-poll must not make the next park return at once.
func TestDoorbellDisarmSwallowsStaleRing(t *testing.T) {
	d := NewDoorbell()
	d.Arm()
	d.Ring()
	d.Disarm() // the waiter found the work itself
	d.Arm()
	select {
	case <-d.C():
		t.Fatal("stale ring survived Disarm")
	default:
	}
}

// TestDoorbellNoLostWakeup hammers the protocol: many producers publish to
// a ring and ring the bell; one consumer drains, and parks whenever it finds
// nothing. A lost wake-up leaves published work with a parked consumer,
// which the watchdog turns into a failure instead of a hang.
func TestDoorbellNoLostWakeup(t *testing.T) {
	const producers = 8
	perProducer := 20000
	if testing.Short() {
		perProducer = 4000
	}
	q := NewMPMC[int](1024)
	bell := NewDoorbell()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				for !q.Enqueue(i) {
					runtime.Gosched()
				}
				bell.Ring()
				if (i+p)%64 == 0 {
					// Let the consumer run dry and park, so that the
					// arm/re-poll/ring interleavings actually happen.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(p)
	}

	var parks atomic.Int64
	want := producers * perProducer
	watchdog := time.NewTimer(time.Hour)
	defer watchdog.Stop()
	for got := 0; got < want; {
		if _, ok := q.Dequeue(); ok {
			got++
			continue
		}
		bell.Arm()
		if _, ok := q.Dequeue(); ok {
			bell.Disarm()
			got++
			continue
		}
		parks.Add(1)
		watchdog.Reset(5 * time.Second)
		select {
		case <-bell.C():
		case <-watchdog.C:
			t.Fatalf("parked with %d of %d consumed and %d queued: a wake-up was lost", got, want, q.Len())
		}
		bell.Disarm()
	}
	wg.Wait()
	if parks.Load() == 0 {
		t.Fatal("the consumer never parked: the test exercised nothing")
	}
}

func TestIdleSpinsForTheBoundThenStops(t *testing.T) {
	var idle Idle
	start := time.Now()
	for idle.Spin() {
		if time.Since(start) > time.Second {
			t.Fatalf("still spinning after 1 s; the bound is %v", SpinBound)
		}
	}
	if spun := time.Since(start); spun < SpinBound {
		t.Fatalf("spun for %v, less than the bound %v", spun, SpinBound)
	}
	if idle.Spin() {
		t.Fatal("Spin came back true without a Reset: a waiter woken for nothing would poll a whole bound again")
	}
	idle.Reset()
	if !idle.Spin() {
		t.Fatal("Spin is false right after Reset")
	}
}
