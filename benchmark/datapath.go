package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
	"github.com/minoskv/minos/internal/wal"
	"github.com/minoskv/minos/internal/workload"
)

const serverCores = 2

// requestTimeout is when an unanswered request counts as failed. It is
// long against any latency worth reporting, so that a stall (a WAL
// compaction holding a core of a two-core box) shows as latency; only a
// lost frame runs into it.
const requestTimeout = 3 * time.Second

// datapath is a booted native-protocol server (fabric or UDP) with one
// connected pipelined client.
type datapath struct {
	w   workloadSpec
	sc  scale
	cat *workload.Catalog

	fab  *nic.Fabric
	st   nic.ServerTransport
	ct   nic.ClientTransport
	srv  *server.Server
	pipe *client.Pipeline

	udpPort int
	walDir  string

	plans       atomic.Int64 // plans that differ from the one before
	lastPlan    core.Plan    // touched only by the control goroutine
	lagBytesMax int64
	headBytes   int64 // key+value bytes repeatHead logged
}

// bootDatapath constructs the server, preloads the catalogue, starts
// serving and connects the client: everything setup_s covers.
func bootDatapath(w workloadSpec, sc scale, cat *workload.Catalog, seed int64, walDir string) (*datapath, error) {
	e := &datapath{w: w, sc: sc, cat: cat, walDir: walDir}
	if err := e.listen(); err != nil {
		return nil, err
	}
	if err := e.serve(true); err != nil {
		e.st.Close()
		return nil, err
	}
	if err := e.connect(seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *datapath) listen() error {
	if e.w.transport == "fabric" {
		e.fab = nic.NewFabric(serverCores)
		e.st = e.fab.Server()
		return nil
	}
	// Loopback UDP: the server wants consecutive ports, so walk up from
	// a process-specific base until a pair binds.
	var err error
	for try := 0; try < 64; try++ {
		port := 20000 + (os.Getpid()*4+try*serverCores)%30000
		var st *nic.UDPServer
		if st, err = nic.NewUDPServer("127.0.0.1", port, serverCores); err == nil {
			e.st, e.udpPort = st, port
			return nil
		}
	}
	return err
}

// serve builds the server over the listening transport and starts it.
// With preload false it comes up from the WAL directory alone.
func (e *datapath) serve(preload bool) error {
	cfg := server.Config{Design: server.Minos, Cores: serverCores, Epoch: e.sc.epoch}
	if e.w.durable {
		cfg.WAL = &server.WALConfig{
			Options:       wal.Options{Dir: e.walDir}, // FsyncInterval, 100 ms: the defaults
			SnapshotEvery: e.sc.snapshot,
		}
	}
	srv, err := server.New(cfg, e.st)
	if err != nil {
		return err
	}
	if preload {
		server.Preload(srv.Store(), e.cat)
		if e.w.durable {
			e.repeatHead(srv.Store())
		}
	}
	e.lastPlan = srv.Plan()
	srv.OnPlan(func(p core.Plan) {
		if p.Threshold != e.lastPlan.Threshold || p.NumSmall != e.lastPlan.NumSmall || p.NumLarge != e.lastPlan.NumLarge {
			e.plans.Add(1)
		}
		e.lastPlan = p
	})
	srv.Start()
	e.srv = srv
	return nil
}

func (e *datapath) connect(seed int64) error {
	if e.fab != nil {
		e.ct = e.fab.NewClient()
	} else {
		ct, err := nic.NewUDPClient("127.0.0.1", e.udpPort)
		if err != nil {
			return err
		}
		e.ct = ct
	}
	// The window is per RX queue: wide enough that only the driver's own
	// limits (the workload's depth and openLimit) ever bind.
	e.pipe = client.NewPipeline(e.ct, serverCores, client.PipelineConfig{Window: e.w.openLimit, Timeout: requestTimeout, Seed: seed + 3})
	return nil
}

func (e *datapath) disconnect() {
	e.pipe.Close()
	e.ct.Close()
}

func (e *datapath) close() {
	if e.pipe != nil {
		e.disconnect()
	}
	if e.srv != nil {
		e.srv.Stop()
	}
	e.st.Close()
}

// walBatch is how many written records the WAL writer's batch array
// keeps reachable until it is refilled.
const walBatch = 256

// repeatHead writes the first keys of the catalogue once more, behind
// the preload. The preload ends with the dataset's largest values, and
// the log's writer keeps its last batch of records reachable: without
// this, anything from none to all of the large values stays on the heap
// and mem_overhead_ratio moves by 15 % from one set-up to the next. With
// it the records left behind are small ones, whichever they are.
func (e *datapath) repeatHead(store *kv.Store) {
	e.headBytes = 0
	filler := newFiller(workload.SmallMaxSize)
	var key []byte
	for id := uint64(0); id < 8*walBatch && id < uint64(e.cat.NumRegularKeys()); id++ {
		key = kv.AppendKeyForID(key[:0], id)
		store.Put(key, filler[:e.cat.Size(id)])
		e.headBytes += workload.KeySize + int64(e.cat.Size(id))
	}
}

// settle waits for the write-behind log to file what the preload
// appended, so that the heap measured next is the store's and not the
// log's backlog.
func (e *datapath) settle() {
	for e.w.durable && e.srv.Stats().WAL.LagBytes > 0 {
		time.Sleep(time.Millisecond)
	}
}

// sampleLag tracks the WAL's write-behind backlog at segment boundaries.
func (e *datapath) sampleLag() {
	if e.w.durable {
		e.lagBytesMax = max(e.lagBytesMax, e.srv.Stats().WAL.LagBytes)
	}
}

// pipeDriver drives the pipelined client from one goroutine: submitted
// calls sit in slots and are reaped, in whatever order they finish, by
// polling their Done channels.
type pipeDriver struct {
	l      *load
	pipe   *client.Pipeline
	slots  []pipeSlot
	keyBuf []byte
}

type pipeSlot struct {
	call  *client.Call
	sched time.Time
	req   workload.Request
}

func newPipeDriver(l *load, pipe *client.Pipeline, slots int) *pipeDriver {
	return &pipeDriver{l: l, pipe: pipe, slots: make([]pipeSlot, 0, slots), keyBuf: make([]byte, 0, workload.KeySize)}
}

func (d *pipeDriver) submit(req workload.Request, sched time.Time) {
	d.keyBuf = kv.AppendKeyForID(d.keyBuf[:0], req.Key)
	var call *client.Call
	if req.Op == workload.OpGet {
		call = d.pipe.GetAsync(d.keyBuf)
	} else {
		call = d.pipe.PutAsync(d.keyBuf, d.l.filler[:req.Size])
	}
	d.slots = append(d.slots, pipeSlot{call: call, sched: sched, req: req})
}

func (d *pipeDriver) flush() {}

func (d *pipeDriver) outstanding() int { return len(d.slots) }

func (d *pipeDriver) poll() int {
	found := 0
	for i := 0; i < len(d.slots); {
		s := &d.slots[i]
		select {
		case <-s.call.Done():
		default:
			i++
			continue
		}
		value, err := s.call.Value()
		ok := err == nil
		switch {
		case !ok:
			d.l.complain("%v key %d: %v", s.req.Op, s.req.Key, err)
		case s.req.Op == workload.OpGet:
			d.l.hits++
			if ok = d.l.valueOK(s.req.Key, value); !ok {
				d.l.complain("GET key %d: %d bytes, catalogue says %d, or wrong filler", s.req.Key, len(value), s.req.Size)
			}
		}
		// The call's own completion stamp, not the instant this loop
		// noticed: polling order must not leak into the latency.
		d.l.done(s.req, s.call.DoneAt().Sub(s.sched), ok)
		last := len(d.slots) - 1
		d.slots[i] = d.slots[last]
		d.slots[last] = pipeSlot{}
		d.slots = d.slots[:last]
		found++
	}
	return found
}

// restart stops the durable server cleanly, brings a new one up from
// the same WAL directory, and times the span from the start of
// construction to the first verified reply. Then every key whose PUT
// was acknowledged must read back whole; misses count as failures.
func (e *datapath) restart(l *load, seed int64) (took time.Duration, replayed uint64, walBytes int64, err error) {
	e.disconnect()
	e.srv.Stop()
	walBytes = dirBytes(e.walDir)
	runtime.GC()

	begin := time.Now()
	if err = e.serve(false); err != nil {
		return 0, 0, 0, fmt.Errorf("restart from %s: %w", e.walDir, err)
	}
	if err = e.connect(seed + 100); err != nil {
		return 0, 0, 0, err
	}
	d := newPipeDriver(l, e.pipe, e.w.depth)
	probe := l.request(0, workload.OpGet)
	l.sent(probe)
	d.submit(probe, begin)
	await(d, 0)
	took = time.Since(begin)
	replayed = e.srv.Stats().WAL.Replayed

	for id := 0; id < e.cat.NumKeys(); id++ {
		if l.acked[id/64]&(1<<(id%64)) == 0 {
			continue
		}
		await(d, e.w.depth-1)
		req := l.request(uint64(id), workload.OpGet)
		l.sent(req)
		d.submit(req, time.Now())
	}
	await(d, 0)
	return took, replayed, walBytes, nil
}

// dirBytes sums the sizes of the files directly under dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
