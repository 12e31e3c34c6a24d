package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/wal"
	"github.com/minoskv/minos/internal/wire"
	"github.com/minoskv/minos/internal/workload"
)

// The layer walk is the traced run's account of where an unloaded
// request's time goes. One goroutine carries each request of the
// workload's seeded stream by hand through the layers' public
// functions, in the order the live datapath calls them, and records a
// span around every call. Nothing runs concurrently, so a span is the
// call's own cost: no queueing, no scheduling. What the live round trip
// costs beyond the walk's total is what waiting and scheduling add —
// server.unaccounted_share — and needs in-program tracing to break down.

type spanKind uint8

const (
	spRequest spanKind = iota // root: one per request, parent of the rest
	spGen
	spEncode
	spSend
	spRecv
	spDecodeHeader
	spReassemble
	spRingHop
	spFind
	spPut
	spWALAppend
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"request", "workload.next", "wire.encode", "nic.send", "nic.recv",
	"wire.decode_header", "wire.reassemble", "ring.hop", "kv.find", "kv.put", "wal.append",
}

// span is one recorded call: times are ns since the walk began, parent
// is the index of the request's root span (-1 on a root).
type span struct {
	kind       spanKind
	req        int32
	parent     int32
	start, end int64
}

const (
	walkSmall = 0 // tiny and small requests
	walkLarge = 1
)

// walker records spans and folds them, per request, into histograms of
// each kind's self time split by size class.
type walker struct {
	t0      time.Time
	spans   []span
	dropped int   // spans that no longer fit the preallocated buffer
	clock   int64 // cost of one pair of clock reads, subtracted from every leaf

	req    int32
	root   int32
	sums   [numSpanKinds]int64 // current request: self time per kind
	seen   [numSpanKinds]bool
	byKind [numSpanKinds][2]*stats.Histogram
	total  [2]*stats.Histogram // per request: sum over its leaves
}

func newWalker(requests int) *walker {
	w := &walker{t0: time.Now(), spans: make([]span, 0, requests*16)}
	for k := range w.byKind {
		for c := range w.byKind[k] {
			w.byKind[k][c] = stats.NewHistogram(int64(time.Second), 7)
		}
	}
	w.total[walkSmall] = stats.NewHistogram(int64(time.Second), 7)
	w.total[walkLarge] = stats.NewHistogram(int64(time.Second), 7)
	// What an empty span measures: the clock, not a layer.
	pairs := make([]int64, 1001)
	for i := range pairs {
		a := w.now()
		pairs[i] = w.now() - a
	}
	w.clock = stats.Percentiles(pairs, 0.5)[0]
	return w
}

func (w *walker) now() int64 { return int64(time.Since(w.t0)) }

func (w *walker) record(s span) int32 {
	if len(w.spans) == cap(w.spans) {
		w.dropped++
		return -1
	}
	w.spans = append(w.spans, s)
	return int32(len(w.spans) - 1)
}

func (w *walker) begin() {
	w.sums = [numSpanKinds]int64{}
	w.seen = [numSpanKinds]bool{}
	w.root = w.record(span{kind: spRequest, req: w.req, parent: -1, start: w.now()})
}

// leaf closes a span of kind k that began at start.
func (w *walker) leaf(k spanKind, start int64) {
	end := w.now()
	w.record(span{kind: k, req: w.req, parent: w.root, start: start, end: end})
	w.sums[k] += max(end-start-w.clock, 0)
	w.seen[k] = true
}

func (w *walker) end(class int) {
	if w.root >= 0 {
		w.spans[w.root].end = w.now()
	}
	var total int64
	for k, sum := range w.sums {
		if w.seen[k] {
			w.byKind[k][class].Record(sum)
			total += sum
		}
	}
	w.total[class].Record(total)
	w.req++
}

// p50 is the median per-request self time of kind k in a size class; 0
// when the workload's walk never made that call.
func (w *walker) p50(k spanKind, class int) float64 {
	return float64(w.byKind[k][class].Quantile(0.5))
}

// writeTrace writes the spans as JSON: see README.md, "Reading a trace".
func (w *walker) writeTrace(path, workloadName string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, "{\"workload\":%q,\"seed\":%d,\"clock_ns\":%d,\"dropped_spans\":%d,\n\"kinds\":[", workloadName, seed, w.clock, w.dropped)
	for i, name := range spanKindNames {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", name)
	}
	bw.WriteString("],\n\"columns\":[\"kind\",\"request\",\"parent\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	var line []byte
	for i, s := range w.spans {
		line = line[:0]
		if i > 0 {
			line = append(line, ',', '\n')
		}
		line = append(line, '[')
		line = strconv.AppendInt(line, int64(s.kind), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.req), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, ']')
		bw.Write(line)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireWalk walks requests over a real transport pair (in-process fabric
// or loopback UDP sockets, one RX queue) against store. wlog, when set,
// gets the append the durable server makes for every PUT.
type wireWalk struct {
	w      *walker
	l      *load
	store  *kv.Store
	reader *kv.Reader
	wlog   *wal.Log
	cli    nic.ClientTransport
	srv    nic.ServerTransport

	tx, stx  []*mem.Buf
	frames   []nic.Frame
	bufs     [][]byte
	srvReasm *wire.Reassembler
	cliReasm *wire.Reassembler
	srvMsg   wire.Message
	cliMsg   wire.Message
	hop      *ring.MPMC[*wire.Message]
	key      []byte

	wireBytes, userBytes int64
}

func newWireWalk(w *walker, l *load, store *kv.Store, wlog *wal.Log, cli nic.ClientTransport, srv nic.ServerTransport) *wireWalk {
	ww := &wireWalk{
		w: w, l: l, store: store, reader: store.AcquireReader(), wlog: wlog, cli: cli, srv: srv,
		frames:   make([]nic.Frame, 32), // the server's drain batch
		bufs:     make([][]byte, 64),    // the client's receive batch
		srvReasm: wire.NewReassembler(0),
		cliReasm: wire.NewReassembler(0),
		hop:      ring.NewMPMC[*wire.Message](64),
	}
	for i := range ww.bufs {
		ww.bufs[i] = make([]byte, wire.MTU)
	}
	return ww
}

func (ww *wireWalk) close() { ww.reader.Close() }

// step carries one request through the layers; it reports whether the
// reply was right.
func (ww *wireWalk) step() bool {
	w := ww.w
	id := uint64(w.req) + 1
	w.begin()
	t := w.now()
	req := ww.l.gen.Next()
	w.leaf(spGen, t)

	class := walkSmall
	if req.Class == workload.ClassLarge {
		class = walkLarge
	}
	ww.key = kv.AppendKeyForID(ww.key[:0], req.Key)
	msg := wire.Message{Op: wire.OpGetRequest, ReqID: id, Key: ww.key}
	if req.Op == workload.OpPut {
		msg.Op = wire.OpPutRequest
		msg.Value = ww.l.filler[:req.Size]
	}
	ww.userBytes += workload.KeySize + int64(req.Size)
	ww.wireBytes += wire.WireBytesFor(workload.KeySize + len(msg.Value))

	// Client: encode, transmit.
	t = w.now()
	ww.tx = msg.LeaseFrames(ww.tx[:0])
	w.leaf(spEncode, t)
	want := len(ww.tx)
	t = w.now()
	ww.cli.SendBatch(0, ww.tx)
	w.leaf(spSend, t)

	// Server: drain the RX queue, decode, reassemble.
	var src nic.Endpoint
	complete := false
	for got, idle := 0, 0; got < want && idle < 1000; {
		t = w.now()
		n := ww.srv.Recv(0, ww.frames)
		w.leaf(spRecv, t)
		if n == 0 {
			idle++
			continue
		}
		if got == 0 {
			t = w.now()
			_, _, err := wire.DecodeHeader(ww.frames[0].Data)
			w.leaf(spDecodeHeader, t)
			if err != nil {
				return ww.fail(class, "walk: request header: %v", err)
			}
			src = ww.frames[0].Src
		}
		t = w.now()
		for i := 0; i < n; i++ {
			done, err := ww.srvReasm.AddInto(src.ID, ww.frames[i].Data, &ww.srvMsg)
			complete = complete || (done && err == nil)
		}
		w.leaf(spReassemble, t)
		got += n
		if got < want {
			// A multi-fragment body is copied into the reassembler's
			// own buffer; only a single frame is aliased, and that one
			// is released after the request is served.
			releaseFrames(ww.frames[:n])
		}
	}
	if !complete {
		return ww.fail(class, "walk: request %d never reassembled at the server", id)
	}

	// Large requests cross from the small core to the large core's ring.
	if class == walkLarge {
		t = w.now()
		ww.hop.Enqueue(&ww.srvMsg)
		ww.hop.Dequeue()
		w.leaf(spRingHop, t)
	}

	// Store, then the reply. The reader pin covers the reply encode,
	// which reads the item's value in place.
	reply := wire.Message{Op: wire.OpGetReply, Status: wire.StatusOK, ReqID: id}
	ww.reader.Pin()
	if req.Op == workload.OpGet {
		t = w.now()
		item, _ := ww.store.Find(ww.srvMsg.Key)
		w.leaf(spFind, t)
		if item == nil {
			reply.Status = wire.StatusNotFound
		} else {
			reply.Value = item.Value
		}
	} else {
		reply.Op = wire.OpPutReply
		t = w.now()
		ww.store.PutTTL(ww.srvMsg.Key, ww.srvMsg.Value, 0)
		w.leaf(spPut, t)
		if ww.wlog != nil {
			t = w.now()
			ww.wlog.AppendPut(ww.srvMsg.Key, ww.srvMsg.Value, 0)
			w.leaf(spWALAppend, t)
		}
	}
	ww.wireBytes += wire.WireBytesFor(len(reply.Value))
	t = w.now()
	ww.stx = reply.LeaseFrames(ww.stx[:0])
	w.leaf(spEncode, t)
	ww.reader.Unpin()
	want = len(ww.stx)
	t = w.now()
	if want == 1 {
		ww.srv.Send(0, src, ww.stx[0])
	} else {
		ww.srv.SendBatch(0, src, ww.stx)
	}
	w.leaf(spSend, t)
	ww.srvMsg.Reset()
	releaseFrames(ww.frames)

	// Client: receive, reassemble, check.
	complete = false
	for got, idle := 0, 0; got < want && idle < 1000; {
		t = w.now()
		n := ww.cli.RecvBatch(ww.bufs, time.Millisecond)
		w.leaf(spRecv, t)
		if n == 0 {
			idle++
			continue
		}
		t = w.now()
		for i := 0; i < n; i++ {
			done, err := ww.cliReasm.AddInto(0, ww.bufs[i], &ww.cliMsg)
			complete = complete || (done && err == nil)
		}
		w.leaf(spReassemble, t)
		got += n
	}
	ok := complete && ww.cliMsg.Status == wire.StatusOK && ww.cliMsg.ReqID == id
	if ok && req.Op == workload.OpGet {
		ok = ww.l.valueOK(req.Key, ww.cliMsg.Value)
	}
	ww.cliMsg.Reset()
	if !ok {
		return ww.fail(class, "walk: request %d (%v key %d): wrong or missing reply", id, req.Op, req.Key)
	}
	w.end(class)
	return true
}

func (ww *wireWalk) fail(class int, format string, args ...any) bool {
	ww.l.complain(format, args...)
	ww.srvMsg.Reset()
	ww.cliMsg.Reset()
	releaseFrames(ww.frames)
	ww.w.end(class)
	return false
}

func releaseFrames(frames []nic.Frame) {
	for i := range frames {
		frames[i].Release()
	}
}

// storeWalker is the walk of the RESP workload: the front door's parser
// and socket handling are not callable from outside the server, so the
// request visits the generator and the store only, and the rest of the
// round trip is unaccounted.
type storeWalker struct {
	w     *walker
	l     *load
	store *kv.Store
	key   []byte
	value []byte
}

func (sw *storeWalker) step() bool {
	w := sw.w
	w.begin()
	t := w.now()
	req := sw.l.gen.Next()
	w.leaf(spGen, t)
	sw.key = kv.AppendKeyForID(sw.key[:0], req.Key)
	ok := true
	if req.Op == workload.OpGet {
		t = w.now()
		v, hit := sw.store.Get(sw.key, sw.value[:0])
		w.leaf(spFind, t)
		sw.value = v
		ok = !hit || sw.l.valueOK(req.Key, v)
	} else {
		t = w.now()
		sw.store.PutTTL(sw.key, sw.l.filler[:req.Size], 0)
		w.leaf(spPut, t)
	}
	w.end(walkSmall)
	return ok
}
