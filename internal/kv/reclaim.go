package kv

// This file is the item-recycling side of the store: quiescent-state-based
// reclamation (QSBR) that lets a PUT-heavy steady state reuse Item structs
// and their key/value storage instead of allocating per write.
//
// The problem recycling creates is the one the immutable-item design (see
// Item) deliberately avoids: a reader that found an item via the seqlock
// protocol holds a bare pointer and reads Key/Value with no lock. If a
// replaced item's bytes were reused immediately, that reader would observe
// another key's data — or race with the writer filling the buffer. So
// reuse must wait until every reader that could possibly hold the pointer
// has moved on.
//
// The scheme, sized for the server's share-nothing cores:
//
//   - A global retire counter stamps each unlinked item (stamp =
//     retires.Add(1), taken AFTER the item left its slot).
//   - Each reader owns a padded slot. Pin() publishes the current counter
//     value (+1, so zero can mean quiescent); Unpin() clears it. The
//     server pins once per polling-loop iteration.
//   - An item is reusable once its stamp is <= every pinned reader's
//     published value - 1: any reader pinned later than the stamp must
//     have pinned after the unlink (the counter is monotone and both
//     operations are seq-cst), so its lookups can no longer find the item.
//
// Writers never need pins: items still linked are never recycled, and
// every writer examines items only under the bucket spinlock that unlink
// requires. Readers outside the server (Get, Range, SweepExpired's
// unlocked pre-scan) pin through a shared guest pool. Callers of Find /
// GetItem on a Recycle store must hold their own pinned Reader.
//
// Retired items accumulate on a per-partition intrusive free list (O(1)
// push under a leaf mutex, safe while holding a bucket spinlock) and are
// reclaimed in batches at safe points: after an unlock in PutItem / Delete
// once the list passes retireThreshold, and once per epoch via
// ReclaimRetired from the server's control loop.

import (
	"sync"
	"sync/atomic"
)

// retireThreshold is how many retired items a partition accumulates before
// an opportunistic reclaim pass. Large enough to amortize the reader scan,
// small enough that a hot partition's retired backlog stays a few hundred
// items.
const retireThreshold = 128

// maxSmallValue is where recycled items are split by value capacity: a page,
// so a small value wastes at most that much under a recycled buffer.
const maxSmallValue = 4 << 10

// itemPools recycle Item structs across partitions. Key/Value capacity
// rides along, so steady-state PUTs of similar-sized values reuse storage.
// There are two, split at maxSmallValue. From a single pool a buffer that
// held a large value is as likely to end up under the next 7-byte value as
// under the next large one, which then allocates: the live heap grows by a
// large value per large PUT (57 MB/s on the benchmark's write mix).
var itemPools [2]sync.Pool

// itemPool is the pool for items whose value buffer holds valueBytes.
func itemPool(valueBytes int) *sync.Pool {
	if valueBytes > maxSmallValue {
		return &itemPools[1]
	}
	return &itemPools[0]
}

// readerSlot is one reader's published pin state, padded so concurrent
// readers on different cores do not share a cache line.
type readerSlot struct {
	// pinned is 0 when quiescent, else (retire counter at pin time) + 1.
	pinned atomic.Uint64
	_      [56]byte
}

// Reader is one goroutine's reclamation guard. A pinned Reader keeps every
// item it can observe alive: items found via Find / GetItem / lookup are
// valid until the next Unpin. Pin and Unpin are one atomic store each, so
// a polling core pins per loop iteration, not per request.
//
// A Reader is not safe for concurrent use; acquire one per goroutine.
type Reader struct {
	s    *Store
	slot *readerSlot
}

// AcquireReader registers a new reader with the store. On stores without
// Recycle it still works (pins are simply never consulted). Close releases
// the slot for reuse.
func (s *Store) AcquireReader() *Reader {
	s.readersMu.Lock()
	defer s.readersMu.Unlock()
	for _, slot := range s.readerSlots {
		if s.freeSlots[slot] {
			delete(s.freeSlots, slot)
			return &Reader{s: s, slot: slot}
		}
	}
	slot := &readerSlot{}
	s.readerSlots = append(s.readerSlots, slot)
	return &Reader{s: s, slot: slot}
}

// Pin publishes that the reader is active: items unlinked from here on
// stay valid for this reader until Unpin.
func (r *Reader) Pin() {
	r.slot.pinned.Store(r.s.retires.Load() + 1)
}

// Unpin publishes quiescence: the reader holds no item pointers.
func (r *Reader) Unpin() {
	r.slot.pinned.Store(0)
}

// Close unpins and returns the slot for reuse by a future AcquireReader.
func (r *Reader) Close() {
	r.Unpin()
	r.s.readersMu.Lock()
	r.s.freeSlots[r.slot] = true
	r.s.readersMu.Unlock()
	r.slot = nil
}

// guestPin borrows a pooled Reader and pins it, for store methods that
// dereference items without the caller holding a Reader.
func (s *Store) guestPin() *Reader {
	r, _ := s.guestPool.Get().(*Reader)
	if r == nil {
		r = s.AcquireReader()
	}
	r.Pin()
	return r
}

func (s *Store) guestUnpin(r *Reader) {
	r.Unpin()
	s.guestPool.Put(r)
}

// minPinned returns the newest retire stamp that is safe to reclaim: the
// minimum over pinned readers of (published value - 1), or the maximum
// stamp when no reader is pinned. A reader pinning concurrently with this
// scan publishes a value >= the current counter, which cannot make any
// already-retired stamp unsafe.
func (s *Store) minPinned() uint64 {
	min := ^uint64(0)
	s.readersMu.Lock()
	for _, slot := range s.readerSlots {
		if e := slot.pinned.Load(); e != 0 && e-1 < min {
			min = e - 1
		}
	}
	s.readersMu.Unlock()
	return min
}

// retire stamps an unlinked item and pushes it on the partition's free
// list. Callers must have removed it from its slot first (they hold the
// bucket lock); the stamp being taken after the unlink is what the
// reclamation invariant rests on.
func (s *Store) retire(p *partition, it *Item) {
	if !s.cfg.Recycle {
		return
	}
	it.retireEpoch = s.retires.Add(1)
	p.retMu.Lock()
	it.nextFree = p.retired
	p.retired = it
	p.retMu.Unlock()
	p.retiredN.Add(1)
}

// maybeReclaim runs a reclaim pass when the partition's retired list has
// grown past the threshold. Callers must not hold any bucket lock.
func (s *Store) maybeReclaim(p *partition) {
	if s.cfg.Recycle && p.retiredN.Load() >= retireThreshold {
		s.reclaimPartition(p)
	}
}

// ReclaimRetired sweeps every partition's retired list, recycling items no
// pinned reader can still observe, and returns how many were recycled.
// The server's control loop calls it once per epoch so retired items do
// not linger on idle partitions; it is safe (and a no-op) on stores
// without Recycle.
func (s *Store) ReclaimRetired() int {
	if !s.cfg.Recycle {
		return 0
	}
	freed := 0
	for pi := range s.parts {
		freed += s.reclaimPartition(&s.parts[pi])
	}
	return freed
}

func (s *Store) reclaimPartition(p *partition) int {
	p.retMu.Lock()
	head := p.retired
	p.retired = nil
	p.retMu.Unlock()
	if head == nil {
		return 0
	}
	min := s.minPinned()
	var keep *Item
	freed, kept := 0, 0
	for it := head; it != nil; {
		next := it.nextFree
		if it.retireEpoch <= min {
			recycleItem(it)
			freed++
		} else {
			it.nextFree = keep
			keep = it
			kept++
		}
		it = next
	}
	p.retiredN.Add(int32(-freed))
	if keep != nil {
		tail := keep
		for tail.nextFree != nil {
			tail = tail.nextFree
		}
		p.retMu.Lock()
		tail.nextFree = p.retired
		p.retired = keep
		p.retMu.Unlock()
	}
	return freed
}

// recycleItem scrubs a reclaimed item and returns it to the pool, keeping
// Key/Value capacity for reuse.
func recycleItem(it *Item) {
	it.Hash = 0
	it.Key = it.Key[:0]
	it.Value = it.Value[:0]
	it.Expire = 0
	it.retireEpoch = 0
	it.nextFree = nil
	it.ref.Store(0)
	itemPool(cap(it.Value)).Put(it)
}

// newItem builds the immutable item for a PUT, from the recycler when
// Recycle is on (reusing key/value capacity) and from the heap otherwise.
func (s *Store) newItem(hash uint64, key, value []byte, expire int64) *Item {
	if !s.cfg.Recycle {
		return &Item{
			Hash:   hash,
			Key:    append(make([]byte, 0, len(key)), key...),
			Value:  append(make([]byte, 0, len(value)), value...),
			Expire: expire,
		}
	}
	it, _ := itemPool(len(value)).Get().(*Item)
	if it == nil {
		it = &Item{}
	}
	it.Hash = hash
	it.Key = append(it.Key[:0], key...)
	it.Value = append(it.Value[:0], value...)
	it.Expire = expire
	return it
}
