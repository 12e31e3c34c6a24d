package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/workload"
)

// driver is one connection to the system under test. The load loop is
// the same for every transport; a driver only knows how to put a
// request on its connection and how to learn that one finished.
type driver interface {
	// submit sends (or, for a batching driver, queues) one request that
	// was due at sched.
	submit(req workload.Request, sched time.Time)
	// flush finishes a batch: a driver that queues in submit writes the
	// queue and reads its replies here. Others do nothing.
	flush()
	// poll collects finished requests without blocking and returns how
	// many it found.
	poll() int
	// outstanding is the number of submitted, unfinished requests.
	outstanding() int
}

// load is the state of one run's request stream and its measurements.
// Everything the measured loops touch is allocated here, up front.
type load struct {
	cat    *workload.Catalog
	gen    *workload.Generator
	filler []byte // values are prefixes of this, as server.Preload writes them
	log    io.Writer

	// fills are keys a cache miss asked to be written back (SET on
	// miss); they go out ahead of the generated stream.
	fills []uint64

	attempted, failed int64
	complaints        int // violations already listed on stderr

	// Shape of the stream as submitted.
	gets, hits, puts, larges, userBytes, putBytes int64

	// Current segment.
	segOps int64
	small  *stats.Histogram
	// largeOpen pools the large-request latencies of the measured open
	// segments: at pL < 1 % one segment alone has too few for a p99.
	largeOpen *stats.Histogram
	late      *stats.Histogram // open phase, current segment: submit instant minus scheduled instant
	measuring bool             // false during discarded segments

	// acked marks keys whose PUT was acknowledged (durable workload:
	// each must read back after the restart).
	acked []uint64
}

func newLoad(cat *workload.Catalog, seed int64, log io.Writer) *load {
	maxSize := 0
	for id := 0; id < cat.NumKeys(); id++ {
		maxSize = max(maxSize, cat.Size(uint64(id)))
	}
	return &load{
		cat:       cat,
		gen:       workload.NewGenerator(cat, seed+1),
		filler:    newFiller(maxSize),
		log:       log,
		fills:     make([]uint64, 0, 1024),
		small:     stats.NewLatencyHistogram(),
		largeOpen: stats.NewLatencyHistogram(),
		late:      stats.NewLatencyHistogram(),
		acked:     make([]uint64, (cat.NumKeys()+63)/64),
	}
}

func fillerByte(i int) byte { return byte('a' + i%26) }

// newFiller is the n-byte value every stored value is a prefix of: the
// bytes server.Preload writes.
func newFiller(n int) []byte {
	filler := make([]byte, n)
	for i := range filler {
		filler[i] = fillerByte(i)
	}
	return filler
}

// valueOK checks a GET reply against the catalogue: the length, and the
// first and last byte of the deterministic filler.
func (l *load) valueOK(key uint64, v []byte) bool {
	n := l.cat.Size(key)
	return len(v) == n && (n == 0 || (v[0] == fillerByte(0) && v[n-1] == fillerByte(n-1)))
}

// complain lists a violation on stderr (the first few; the count is in
// the result line).
func (l *load) complain(format string, args ...any) {
	if l.complaints++; l.complaints <= 10 {
		fmt.Fprintf(l.log, "benchmark: violation: "+format+"\n", args...)
	}
}

// sent accounts for one submitted request.
func (l *load) sent(req workload.Request) {
	l.attempted++
	l.userBytes += workload.KeySize + int64(req.Size)
	if req.Op == workload.OpGet {
		l.gets++
	} else {
		l.puts++
		l.putBytes += workload.KeySize + int64(req.Size)
	}
	if req.Class == workload.ClassLarge {
		l.larges++
	}
}

// done accounts for one finished request. ok is false when it timed
// out, errored, or came back with the wrong bytes.
func (l *load) done(req workload.Request, lat time.Duration, ok bool) {
	if !ok {
		l.failed++
		return
	}
	l.segOps++
	if req.Op == workload.OpPut {
		l.acked[req.Key/64] |= 1 << (req.Key % 64)
	}
	switch {
	case req.Class != workload.ClassLarge:
		l.small.Record(int64(lat))
	case l.measuring:
		l.largeOpen.Record(int64(lat))
	}
}

// next is the request to send now: a pending fill, else the stream.
func (l *load) next() workload.Request {
	if n := len(l.fills); n > 0 {
		key := l.fills[n-1]
		l.fills = l.fills[:n-1]
		return l.request(key, workload.OpPut)
	}
	return l.gen.Next()
}

// request is the catalogue's request for one key, outside the stream.
func (l *load) request(key uint64, op workload.Op) workload.Request {
	return workload.Request{Key: key, Op: op, Size: int32(l.cat.Size(key)), Class: l.cat.ClassOf(key)}
}

// await polls d until at most n requests are outstanding. It returns:
// a request the system never answers ends in the client's timeout.
func await(d driver, n int) {
	for d.outstanding() > n {
		if d.poll() == 0 {
			runtime.Gosched()
		}
	}
}

// segment is what one segment of a phase measured.
type segment struct {
	dur      time.Duration
	ops      int64 // correct completions
	cpu, sys time.Duration
	mallocs  uint64
	smallP50 int64
	smallP99 int64
	lateP99  int64 // open phase: how late the generator ran
}

// phase is a finished phase: its measured segments (the discarded one
// is already gone).
type phase struct {
	segs []segment
}

func (p phase) median(f func(segment) float64) float64 {
	vs := make([]float64, len(p.segs))
	for i, s := range p.segs {
		vs[i] = f(s)
	}
	return median(vs)
}

func (p phase) throughput() float64 {
	return p.median(func(s segment) float64 { return float64(s.ops) / s.dur.Seconds() })
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// runPhase drives d for discardSegments segments and then n measured ones.
// rate == 0 is the closed phase: limit requests are kept outstanding
// and a new one leaves when an old one finishes. rate > 0 is the open
// phase: Poisson arrivals on an absolute schedule, paced by spinning
// (time.Sleep rounds to about a millisecond), each request timed from
// the instant it was due, with at most limit outstanding. A request that
// came due while limit were outstanding waits, and that wait is in its
// latency; lateness, the generator's own, counts from when there was room.
func (l *load) runPhase(d driver, n int, seg time.Duration, rate float64, limit int, seed int64, boundary func()) phase {
	var arr *workload.Arrivals
	var due int64    // next arrival, ns after start
	var roomAt int64 // when the connection last had no room, ns after start
	if rate > 0 {
		arr = workload.NewArrivals(rate, seed)
		due = arr.Next()
	}
	start := time.Now()
	segStart := start
	segEnd := start.Add(seg)
	end := start.Add(time.Duration(discardSegments+n) * seg)
	measureFrom := start.Add(discardSegments * seg)
	mark := takeMark()
	l.resetSegment()
	l.largeOpen.Reset()
	l.measuring = false
	segs := make([]segment, 0, n)
	for {
		now := time.Now()
		if !now.Before(segEnd) {
			prev := mark
			mark = takeMark()
			if l.measuring {
				segs = append(segs, l.closeSegment(now.Sub(segStart), prev, mark))
			}
			if !now.Before(end) {
				break
			}
			if boundary != nil {
				boundary()
			}
			l.resetSegment()
			l.measuring = !now.Before(measureFrom)
			segStart, segEnd = now, segEnd.Add(seg)
		}
		did := d.poll()
		now = time.Now()
		if d.outstanding() >= limit {
			roomAt = int64(now.Sub(start))
		}
		for d.outstanding() < limit {
			sched := now
			if arr != nil && len(l.fills) == 0 {
				elapsed := int64(now.Sub(start))
				if due > elapsed {
					break
				}
				sched = start.Add(time.Duration(due))
				l.late.Record(elapsed - max(due, roomAt))
				due = arr.Next()
			}
			req := l.next()
			l.sent(req)
			d.submit(req, sched)
			did++
			now = time.Now()
		}
		d.flush()
		if did == 0 {
			runtime.Gosched()
		}
	}
	l.measuring = false
	// What is still in flight finishes before the next phase counts.
	await(d, 0)
	return phase{segs: segs}
}

func (l *load) resetSegment() {
	l.segOps = 0
	l.small.Reset()
	l.late.Reset()
}

func (l *load) closeSegment(dur time.Duration, from, to mark) segment {
	return segment{
		dur:      dur,
		ops:      l.segOps,
		cpu:      to.cpu - from.cpu,
		sys:      to.sys - from.sys,
		mallocs:  to.mallocs - from.mallocs,
		smallP50: l.small.Quantile(0.50),
		smallP99: l.small.Quantile(0.99),
		lateP99:  l.late.Quantile(0.99),
	}
}

// mark is the process-wide accounting read at a segment boundary.
type mark struct {
	cpu, sys time.Duration // user+sys and sys alone
	mallocs  uint64
}

func takeMark() mark {
	user, sys := cpuTimes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{cpu: user + sys, sys: sys, mallocs: ms.Mallocs}
}
