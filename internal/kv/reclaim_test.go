package kv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newRecycleStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(Config{NumPartitions: 4, Recycle: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReclaimRetiredRecyclesReplacedItems checks the basic lifecycle:
// overwrites retire the old item, and a reclaim pass with no pinned
// readers recycles all of them.
func TestReclaimRetiredRecyclesReplacedItems(t *testing.T) {
	s := newRecycleStore(t)
	key := []byte("k")
	const overwrites = 50
	for i := 0; i < overwrites; i++ {
		s.Put(key, []byte{byte(i)})
	}
	// Every Put after the first replaced (and retired) the previous item.
	if freed := s.ReclaimRetired(); freed != overwrites-1 {
		t.Fatalf("ReclaimRetired() = %d, want %d", freed, overwrites-1)
	}
	if v, ok := s.Get(key, nil); !ok || v[0] != overwrites-1 {
		t.Fatalf("Get after reclaim = %v, %v", v, ok)
	}
}

// TestPinnedReaderBlocksReclaim checks the QSBR invariant: an item a
// pinned reader could have observed must not be recycled until that
// reader unpins.
func TestPinnedReaderBlocksReclaim(t *testing.T) {
	s := newRecycleStore(t)
	key := []byte("pinned-key")
	s.Put(key, []byte("v1"))

	r := s.AcquireReader()
	defer r.Close()
	r.Pin()
	it := s.GetItem(key)
	if it == nil {
		t.Fatal("GetItem miss")
	}
	val := string(it.Value)

	// Replace the item: the old one is retired but the pin predates the
	// unlink, so it must survive reclamation.
	s.Put(key, []byte("v2"))
	if freed := s.ReclaimRetired(); freed != 0 {
		t.Fatalf("reclaimed %d items despite a pinned reader", freed)
	}
	if got := string(it.Value); got != val {
		t.Fatalf("pinned item mutated: %q -> %q", val, got)
	}

	r.Unpin()
	if freed := s.ReclaimRetired(); freed != 1 {
		t.Fatalf("ReclaimRetired after unpin = %d, want 1", freed)
	}
}

// TestDeleteRetiresItem checks the delete path feeds the retired list and
// reports presence correctly even though the item is retired inside the
// call.
func TestDeleteRetiresItem(t *testing.T) {
	s := newRecycleStore(t)
	s.Put([]byte("a"), []byte("1"))
	if !s.Delete([]byte("a")) {
		t.Fatal("Delete reported absent for a present key")
	}
	if s.Delete([]byte("a")) {
		t.Fatal("second Delete reported present")
	}
	if freed := s.ReclaimRetired(); freed != 1 {
		t.Fatalf("ReclaimRetired = %d, want 1", freed)
	}
}

// TestRecycleHammer drives concurrent writers, copying readers and pinned
// readers against the recycling store; under -race this is the main
// correctness check for the reclamation protocol.
func TestRecycleHammer(t *testing.T) {
	s := newRecycleStore(t)
	const (
		keys    = 64
		writers = 4
		readers = 4
	)
	keyOf := func(i int) []byte { return []byte(fmt.Sprintf("key-%02d", i%keys)) }
	for i := 0; i < keys; i++ {
		s.Put(keyOf(i), []byte(fmt.Sprintf("value-%08d", i)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := seed; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%7 == 0 {
					s.Delete(keyOf(i))
				} else {
					s.Put(keyOf(i), []byte(fmt.Sprintf("value-%08d", i)))
				}
				ops.Add(1)
			}
		}(w * 1000)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(pinning bool) {
			defer wg.Done()
			r := s.AcquireReader()
			defer r.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if pinning {
					// The server-core pattern: pin, dereference found
					// items directly, unpin.
					r.Pin()
					if it := s.GetItem(keyOf(i)); it != nil {
						if len(it.Value) != len("value-00000000") {
							panic(fmt.Sprintf("torn value: %q", it.Value))
						}
					}
					r.Unpin()
				} else {
					// The copying accessor pins internally.
					if v, ok := s.Get(keyOf(i), nil); ok && len(v) != len("value-00000000") {
						panic(fmt.Sprintf("torn copy: %q", v))
					}
				}
				ops.Add(1)
			}
		}(g%2 == 0)
	}
	// A reclaimer goroutine standing in for the server's epoch loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ReclaimRetired()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if ops.Load() == 0 {
		t.Fatal("hammer made no progress")
	}
	// Quiesced: one final pass must drain whatever is still retired, and
	// the store must still serve coherent data.
	s.ReclaimRetired()
	for i := 0; i < keys; i++ {
		if v, ok := s.Get(keyOf(i), nil); ok && len(v) != len("value-00000000") {
			t.Fatalf("key %d corrupt after hammer: %q", i, v)
		}
	}
}

// TestReclaimThresholdTriggersInline checks that a write burst past the
// per-partition threshold reclaims opportunistically, without anyone
// calling ReclaimRetired.
func TestReclaimThresholdTriggersInline(t *testing.T) {
	s := newRecycleStore(t)
	key := []byte("burst")
	// Overwrite one key far past the threshold; the inline reclaim keeps
	// the retired backlog bounded near retireThreshold per partition.
	for i := 0; i < retireThreshold*4; i++ {
		s.Put(key, []byte{byte(i)})
	}
	backlog := 0
	for pi := range s.parts {
		backlog += int(s.parts[pi].retiredN.Load())
	}
	if backlog > retireThreshold {
		t.Fatalf("retired backlog %d never reclaimed inline (threshold %d)", backlog, retireThreshold)
	}
}

// TestLargeBuffersStayUnderLargeValues checks that recycling does not hand
// a buffer that held a large value to a small PUT: the large PUT that
// follows would allocate again, and every round of the mix would leave one
// more large buffer behind under a small value.
func TestLargeBuffersStayUnderLargeValues(t *testing.T) {
	s := newRecycleStore(t)
	large := make([]byte, 64*maxSmallValue)
	small := []byte("seven b")
	for round := 0; round < 200; round++ {
		s.Put([]byte("large"), large)
		s.ReclaimRetired() // the replaced large item is in a pool from here
		for i := 0; i < 8; i++ {
			s.Put([]byte(fmt.Sprintf("small-%d", (round*8+i)%64)), small)
		}
		s.ReclaimRetired()
	}
	s.Range(func(it *Item) bool {
		if len(it.Value) <= maxSmallValue && cap(it.Value) > maxSmallValue {
			t.Errorf("%q: a %d-byte value sits in a %d-byte buffer", it.Key, len(it.Value), cap(it.Value))
		}
		return true
	})
}
