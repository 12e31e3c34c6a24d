package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/ring"
)

// FsyncPolicy selects when the writer goroutine calls fsync, which is
// what bounds the data an acknowledged write can lose to a machine
// crash (a process kill loses at most the un-drained ring — see the
// durability contract in DESIGN.md).
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs on a timer — Options.Interval,
	// 100ms unless set. Machine-crash loss window: one interval plus the
	// ring lag.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every drained batch: every record the
	// writer has consumed is on stable storage before it sleeps.
	FsyncAlways
	// FsyncOS never fsyncs; the OS page cache flushes on its own
	// schedule. Fastest, survives process kills but not machine crashes.
	FsyncOS
)

// String returns the policy name as used in flags and metrics.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOS:
		return "os"
	default:
		return "interval"
	}
}

// Options configures a Log. Zero fields take defaults.
type Options struct {
	// Dir is the log directory (created if absent). Required.
	Dir string
	// Fsync is the durability/throughput trade (default FsyncInterval).
	Fsync FsyncPolicy
	// Interval is the FsyncInterval period (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment past this size
	// (default 64 MiB).
	SegmentBytes int64
	// RingSize bounds the write-behind ring (default 65536 records).
	// A full ring back-pressures producers rather than dropping.
	RingSize int
}

func (o *Options) setDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.RingSize <= 0 {
		o.RingSize = 1 << 16
	}
}

const (
	segMagic  = "MWAL0001"
	snapMagic = "MSNP0001"
	magicSize = 8
)

func segmentName(seq uint64) string  { return fmt.Sprintf("wal.%016d.log", seq) }
func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot.%016d", seq) }

// Stats is a snapshot of the log's cumulative counters (all monotone
// except LagBytes and Segments, which are gauges).
type Stats struct {
	Appended  uint64 // records accepted onto the ring
	Written   uint64 // records the writer goroutine has filed
	Fsyncs    uint64 // fsync calls on segment files
	Stalls    uint64 // appends that hit a full ring and had to wait
	LagBytes  int64  // bytes enqueued but not yet written (gauge)
	Replayed  uint64 // records applied by Replay on open
	Snapshots uint64 // compaction snapshots taken
	Segments  int    // live segment files, including the active one (gauge)
	Err       string // first writer I/O error, if any ("" = healthy)
}

// Log is an append-only mutation log with write-behind persistence.
// AppendPut/AppendDelete are safe from any goroutine and never block on
// file I/O; one writer goroutine (Start) owns the files. Replay must
// run before Start.
type Log struct {
	opts Options

	ring *ring.MPMC[*mem.Buf]
	// bell is what the writer parks on when the ring is empty. It parks
	// at once, with no ring.SpinBound of polling first: it is write-behind,
	// nobody waits for it, and a wake-up that comes late costs ring depth,
	// not latency.
	bell *ring.Doorbell

	stop    chan struct{} // graceful: drain, flush, sync, close
	abrupt  chan struct{} // Abandon: drop everything on the floor
	done    chan struct{}
	syncReq chan chan error
	sealReq chan chan sealResult

	closed  atomic.Bool // no new appends accepted
	started atomic.Bool
	endOnce sync.Once

	// Directory state discovered by Open, consumed by Replay/Start.
	segSeqs  []uint64 // existing segments, ascending
	snapSeqs []uint64 // existing snapshots, ascending
	nextSeq  uint64   // sequence Start opens

	// Writer-goroutine-owned file state.
	f        *os.File
	seq      uint64
	segBytes int64
	dirty    bool // bytes written since last fsync

	snapMu sync.Mutex // serializes Snapshot callers

	appended  atomic.Uint64
	written   atomic.Uint64
	fsyncs    atomic.Uint64
	stalls    atomic.Uint64
	lag       atomic.Int64
	replayed  atomic.Uint64
	snapshots atomic.Uint64
	segments  atomic.Int64
	ioErr     atomic.Pointer[string]
}

type sealResult struct {
	newSeq uint64
	err    error
}

// Open creates/scans the log directory. The returned Log accepts
// Replay immediately; call Start before appending.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	opts.setDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:    opts,
		ring:    ring.NewMPMC[*mem.Buf](opts.RingSize),
		bell:    ring.NewDoorbell(),
		stop:    make(chan struct{}),
		abrupt:  make(chan struct{}),
		done:    make(chan struct{}),
		syncReq: make(chan chan error),
		sealReq: make(chan chan sealResult),
	}
	ents, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case len(name) == len("wal.0000000000000000.log") && name[:4] == "wal.":
			if _, err := fmt.Sscanf(name, "wal.%d.log", &seq); err == nil {
				l.segSeqs = append(l.segSeqs, seq)
			}
		case len(name) == len("snapshot.0000000000000000") && name[:9] == "snapshot.":
			if _, err := fmt.Sscanf(name, "snapshot.%d", &seq); err == nil {
				l.snapSeqs = append(l.snapSeqs, seq)
			}
		case name == "snapshot.tmp":
			// A crash mid-snapshot; the rename never happened, so the
			// segments it would have replaced are all still present.
			os.Remove(filepath.Join(opts.Dir, name))
		}
	}
	sort.Slice(l.segSeqs, func(i, j int) bool { return l.segSeqs[i] < l.segSeqs[j] })
	sort.Slice(l.snapSeqs, func(i, j int) bool { return l.snapSeqs[i] < l.snapSeqs[j] })
	l.nextSeq = 1
	if n := len(l.segSeqs); n > 0 {
		l.nextSeq = l.segSeqs[n-1] + 1
	}
	if n := len(l.snapSeqs); n > 0 && l.snapSeqs[n-1] >= l.nextSeq {
		l.nextSeq = l.snapSeqs[n-1] + 1
	}
	l.segments.Store(int64(len(l.segSeqs)))
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// Start opens a fresh segment (never appending to a pre-crash file)
// and launches the write-behind goroutine.
func (l *Log) Start() error {
	if l.started.Swap(true) {
		return fmt.Errorf("wal: already started")
	}
	if err := l.openSegment(l.nextSeq); err != nil {
		return err
	}
	go l.writer()
	return nil
}

// AppendPut logs a put of key=value with absolute expiry instant
// expire (store-clock nanoseconds; 0 = immortal). It allocates nothing
// in steady state and never touches a file; a full ring spins until
// the writer frees a slot.
func (l *Log) AppendPut(key, value []byte, expire int64) {
	l.append(OpPut, key, value, expire)
}

// AppendDelete logs a delete of key.
func (l *Log) AppendDelete(key []byte) {
	l.append(OpDelete, key, nil, 0)
}

func (l *Log) append(op byte, key, value []byte, expire int64) {
	if l.closed.Load() {
		return
	}
	n := recordSize(len(key), len(value))
	b := mem.Lease(n)
	encodeRecord(b.Data, op, key, value, expire)
	for spins := 0; !l.ring.Enqueue(b); spins++ {
		if l.closed.Load() {
			b.Release()
			return
		}
		if spins == 0 {
			l.stalls.Add(1)
		}
		if spins > 16 {
			runtime.Gosched()
		}
	}
	l.appended.Add(1)
	l.lag.Add(int64(n))
	l.bell.Ring()
}

// Sync drains everything appended so far to the file and fsyncs it —
// a durability barrier, used by tests and graceful handover.
func (l *Log) Sync() error {
	if !l.started.Load() || l.closed.Load() {
		return fmt.Errorf("wal: not running")
	}
	ack := make(chan error, 1)
	select {
	case l.syncReq <- ack:
		return <-ack
	case <-l.done:
		return fmt.Errorf("wal: writer stopped")
	}
}

// Close drains the ring, flushes and fsyncs the active segment, and
// stops the writer. Appends racing Close may be dropped (they were
// never acknowledged as durable).
func (l *Log) Close() error {
	l.closed.Store(true)
	if !l.started.Load() {
		return nil
	}
	l.endOnce.Do(func() { close(l.stop) })
	<-l.done
	if e := l.ioErr.Load(); e != nil {
		return fmt.Errorf("wal: %s", *e)
	}
	return nil
}

// Abandon is Close without any of the guarantees: the writer exits
// immediately, ring contents are dropped, nothing is flushed or
// synced. It is what kill -9 looks like from inside the process —
// used to test and demo crash recovery.
func (l *Log) Abandon() {
	l.closed.Store(true)
	if !l.started.Load() {
		return
	}
	l.endOnce.Do(func() { close(l.abrupt) })
	<-l.done
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	st := Stats{
		Appended:  l.appended.Load(),
		Written:   l.written.Load(),
		Fsyncs:    l.fsyncs.Load(),
		Stalls:    l.stalls.Load(),
		LagBytes:  l.lag.Load(),
		Replayed:  l.replayed.Load(),
		Snapshots: l.snapshots.Load(),
		Segments:  int(l.segments.Load()),
	}
	if e := l.ioErr.Load(); e != nil {
		st.Err = *e
	}
	return st
}

// ---- writer goroutine ----

// writer is the write-behind loop: it owns the segment files outright.
func (l *Log) writer() {
	defer close(l.done)
	batch := make([]*mem.Buf, 256)
	var tickC <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		n := l.ring.DequeueBatch(batch)
		if n > 0 {
			l.writeBatch(batch[:n])
			// Keep draining while there is work, but let Abandon cut in,
			// interval fsyncs fire, and Sync/Snapshot barriers make
			// progress even when producers never let the ring go idle.
			select {
			case <-l.abrupt:
				l.f.Close()
				return
			case ack := <-l.syncReq:
				l.drainBounded(batch)
				l.flushSync()
				ack <- l.err()
			case ack := <-l.sealReq:
				l.drainBounded(batch)
				l.flushSync()
				err := l.rotate()
				ack <- sealResult{newSeq: l.seq, err: err}
			case <-tickC:
				l.flushSync()
			default:
			}
			continue
		}
		l.bell.Arm()
		if l.ring.Len() > 0 {
			// Len counts a slot from the moment a producer claims it:
			// yield, in case that producer still has to publish.
			l.bell.Disarm()
			runtime.Gosched()
			continue
		}
		select {
		case <-l.abrupt:
			l.f.Close()
			return
		case <-l.stop:
			l.drainAll(batch)
			l.flushSync()
			l.f.Close()
			return
		case ack := <-l.syncReq:
			l.drainBounded(batch)
			l.flushSync()
			ack <- l.err()
		case ack := <-l.sealReq:
			l.drainBounded(batch)
			l.flushSync()
			err := l.rotate()
			ack <- sealResult{newSeq: l.seq, err: err}
		case <-l.bell.C():
		case <-tickC:
			if l.dirty {
				l.flushSync()
			}
		}
		l.bell.Disarm()
	}
}

// writeBatch files one drained batch, rotating segments at the size
// threshold (checked per record so segments track SegmentBytes even
// when records arrive in large batches) and applying the per-batch
// fsync policy.
func (l *Log) writeBatch(bufs []*mem.Buf) {
	for i, b := range bufs {
		// The batch array outlives the batch: a slot left set would keep
		// its record reachable, a heap-backed oversize one included, until
		// that many more had been written.
		bufs[i] = nil
		if l.err() == nil {
			if l.segBytes >= l.opts.SegmentBytes {
				l.flushSync()
				l.setErr(l.rotate())
			}
			if _, err := l.f.Write(b.Data); err != nil {
				l.setErr(err)
			} else {
				l.segBytes += int64(len(b.Data))
				l.dirty = true
			}
		}
		l.written.Add(1)
		l.lag.Add(-int64(len(b.Data)))
		b.Release()
	}
	if l.opts.Fsync == FsyncAlways {
		l.flushSync()
	}
}

// drainAll empties the ring. Only called on the graceful-stop path,
// where closed producers quiesce, so it terminates.
func (l *Log) drainAll(batch []*mem.Buf) {
	for {
		n := l.ring.DequeueBatch(batch)
		if n == 0 {
			return
		}
		l.writeBatch(batch[:n])
	}
}

// drainBounded drains only the records present when the barrier was
// requested: a Sync or seal must cover "everything appended so far",
// and chasing producers that never go idle would never return. Records
// appended after the barrier land after it, which is exactly the
// contract.
func (l *Log) drainBounded(batch []*mem.Buf) {
	for remaining := l.ring.Len(); remaining > 0; {
		n := l.ring.DequeueBatch(batch[:min(len(batch), remaining)])
		if n == 0 {
			return
		}
		l.writeBatch(batch[:n])
		remaining -= n
	}
}

func (l *Log) flushSync() {
	if !l.dirty || l.err() != nil {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.setErr(err)
		return
	}
	l.fsyncs.Add(1)
	l.dirty = false
}

// rotate closes the active segment and opens the next sequence.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil && l.err() == nil {
		l.setErr(err)
	}
	return l.openSegment(l.seq + 1)
}

// openSegment creates segment seq and writes its magic header.
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.setErr(err)
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		l.setErr(err)
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.seq = seq
	l.segBytes = magicSize
	l.dirty = true
	l.segments.Add(1)
	return nil
}

func (l *Log) err() error {
	if e := l.ioErr.Load(); e != nil {
		return fmt.Errorf("%s", *e)
	}
	return nil
}

// setErr records the first writer I/O error. The log keeps draining
// (and releasing) ring buffers so producers never wedge, but nothing
// further reaches the disk; Stats.Err surfaces the fault.
func (l *Log) setErr(err error) {
	if err == nil {
		return
	}
	s := err.Error()
	l.ioErr.CompareAndSwap(nil, &s)
}
