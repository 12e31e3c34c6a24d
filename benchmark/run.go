package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/wal"
	"github.com/minoskv/minos/internal/workload"
)

// system is the booted server of either flavour plus its scratch space.
type system struct {
	w       workloadSpec
	dp      *datapath // fabric and udp workloads
	fr      *front    // resp workload
	scratch string    // WAL directories live under here; removed on close
}

func boot(o options, w workloadSpec, sc scale, cat *workload.Catalog) (*system, error) {
	s := &system{w: w}
	if w.transport == "resp" {
		fr, err := bootFront(w, sc, cat)
		s.fr = fr
		return s, err
	}
	walDir := ""
	if w.durable {
		// The WAL goes where the run may write: under the output
		// directory, on whatever filesystem holds the checkout.
		var err error
		if s.scratch, err = os.MkdirTemp(o.outDir, "wal-"); err != nil {
			return nil, err
		}
		walDir = filepath.Join(s.scratch, "wal")
	}
	dp, err := bootDatapath(w, sc, cat, o.seed, walDir)
	if err != nil {
		s.close()
		return nil, err
	}
	s.dp = dp
	return s, nil
}

func (s *system) close() {
	if s.dp != nil {
		s.dp.close()
	}
	if s.fr != nil {
		s.fr.close()
	}
	if s.scratch != "" {
		os.RemoveAll(s.scratch)
	}
}

// residentBytes is the key+value bytes the store holds after preload.
func (s *system) residentBytes() int64 {
	if s.fr != nil {
		snap := s.fr.srv.Snapshot()
		return snap.ValueBytes + int64(snap.Items)*workload.KeySize
	}
	st := s.dp.srv.Store()
	return st.ValueBytes() + int64(st.Len())*workload.KeySize
}

// runWorkload is one run: set-up, closed phase, open phase, the
// durability check where it applies, and in a traced run the counters,
// probes and layer walk.
func runWorkload(o options, w workloadSpec, log io.Writer) (*result, error) {
	sc := newScale(o)
	res := newResult()
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	cat := workload.NewCatalog(w.profile(sc.keys, o.seed))

	// Set-up, timed: construct, preload, listen, connect. Several times
	// over, because one cold set-up is mostly page faults; the medians
	// are reported and the last system is the one the load runs on.
	var sys *system
	setups := make([]float64, 0, sc.setups)
	heaps := make([]float64, 0, sc.setups)
	var loaded int64 // live heap once the last system was set up
	for i := 0; i < sc.setups; i++ {
		if sys != nil {
			sys.close()
		}
		before := heapInUse()
		start := time.Now()
		var err error
		if sys, err = boot(o, w, sc, cat); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if sys.dp != nil {
			sys.dp.settle()
		}
		loaded = heapInUse()
		heaps = append(heaps, float64(loaded-before))
	}
	defer func() { sys.close() }()
	res.set("setup_s", median(setups), "s")
	resident := sys.residentBytes()
	res.set("mem_overhead_ratio", median(heaps)/float64(resident), "ratio")

	l := newLoad(cat, o.seed, log)
	var d driver
	var boundary func()
	if sys.fr != nil {
		d = newRESPDriver(l, sys.fr.conn, w.depth)
	} else {
		d = newPipeDriver(l, sys.dp.pipe, max(w.depth, w.openLimit))
		boundary = sys.dp.sampleLag
	}

	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	leaseBefore := mem.LeaseStats()
	rcvbufBefore := udpRcvbufErrors()

	closed := l.runPhase(d, closedSegments, sc.seg, 0, w.depth, 0, boundary)
	closedSmallP50 := closed.median(func(s segment) float64 { return float64(s.smallP50) })
	open := l.runPhase(d, openSegments, sc.seg, w.openRate, w.openLimit, o.seed+2, boundary)
	// The median over segments, like the latencies: a background
	// compaction that starves the driver for a segment or two does not
	// void the rest.
	lateP99 := int64(open.median(func(s segment) float64 { return float64(s.lateP99) }))
	res.notes = append(res.notes,
		"closed segments, kops: "+perSegment(closed, func(s segment) float64 { return float64(s.ops) / s.dur.Seconds() / 1e3 }),
		"open segments, small p99 us: "+perSegment(open, func(s segment) float64 { return float64(s.smallP99) / 1e3 }))
	if lateP99 > int64(time.Millisecond) {
		res.notes = append(res.notes, fmt.Sprintf("INVALID open phase: the generator ran %.0f us late at p99 (limit 1000)", float64(lateP99)/1e3))
		fmt.Fprintf(log, "benchmark: %s: open phase invalid: generator lateness p99 %.0f us\n", w.name, float64(lateP99)/1e3)
	}
	if achieved := open.throughput(); achieved < 0.95*w.openRate {
		res.notes = append(res.notes, fmt.Sprintf("open phase completed %.0f ops/s of %.0f offered", achieved, w.openRate))
	}

	res.set("throughput_kops", closed.throughput()/1e3, "kops")
	res.set("cpu_us_per_op", closed.median(func(s segment) float64 { return float64(s.cpu.Microseconds()) / float64(s.ops) }), "us")
	res.set("small_p99_us", open.median(func(s segment) float64 { return float64(s.smallP99) / 1e3 }), "us")

	var rtt float64 // the unloaded round trip, ns: what the walk's total is held against
	if o.trace == 1 {
		var gcAfter runtime.MemStats
		runtime.ReadMemStats(&gcAfter)
		lease := mem.LeaseStats()

		res.set("workload.large_share", float64(l.larges)/float64(l.attempted), "ratio")
		res.set("workload.put_share", float64(l.puts)/float64(l.attempted), "ratio")
		res.set("workload.user_bytes_per_op", float64(l.userBytes)/float64(l.attempted), "B")
		res.set("workload.late_p99_us", float64(lateP99)/1e3, "us")
		res.set("client.closed_small_p50_us", closedSmallP50/1e3, "us")
		res.set("client.open_small_p50_us", open.median(func(s segment) float64 { return float64(s.smallP50) / 1e3 }), "us")
		// A p99 needs its ten samples beyond it: below 1000 large
		// requests in the measured open segments there is none to report.
		largeP99 := 0.0
		if l.largeOpen.Count() >= 1000 {
			largeP99 = float64(l.largeOpen.Quantile(0.99)) / 1e3
		}
		res.set("client.open_large_p99_us", largeP99, "us")
		res.set("kv.hit_ratio", float64(l.hits)/float64(max(l.gets, 1)), "ratio")
		res.set("mem.allocs_per_op", closed.median(func(s segment) float64 { return float64(s.mallocs) / float64(s.ops) }), "count")
		res.set("mem.lease_miss_share", float64(lease.Misses-leaseBefore.Misses)/float64(max(lease.Leases-leaseBefore.Leases, 1)), "ratio")
		// What the load left behind that a collection cannot free: 0 on
		// a store that replaces values in place or frees what it replaces.
		res.set("mem.heap_growth_mb", float64(heapInUse()-loaded)/(1<<20), "MB")
		res.set("mem.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC), "count")
		res.set("mem.gc_pause_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6, "ms")
		res.set("nic.sys_us_per_op", closed.median(func(s segment) float64 { return float64(s.sys.Microseconds()) / float64(s.ops) }), "us")
		res.set("nic.udp_rcvbuf_errors", float64(udpRcvbufErrors()-rcvbufBefore), "count")

		// The unloaded round trip: one request outstanding.
		var submit float64
		rtt, submit = l.unloadedRTT(d, sc.rttOps)
		if sys.fr != nil {
			res.set("resp.rtt_p50_us", rtt/1e3, "us")
			res.set("client.unloaded_rtt_p50_us", 0, "us")
			res.set("client.submit_ns", 0, "ns")
		} else {
			res.set("resp.rtt_p50_us", 0, "us")
			res.set("client.unloaded_rtt_p50_us", rtt/1e3, "us")
			res.set("client.submit_ns", submit, "ns")
		}
		if err := sys.counters(res, l, d, resident); err != nil {
			return nil, err
		}
		sys.liveProbes(res, sc)
		res.set("mem.lease_ns", probeLease(sc.probeOps), "ns")
		res.set("stats.record_ns", probeHistogramRecord(sc.probeOps), "ns")
		res.set("core.epoch_ns", probeEpoch(cat, o.seed, sc.walkReqs, 101), "ns")
	}

	if err := sys.restart(res, l, o); err != nil {
		return nil, err
	}

	if o.trace == 1 {
		walked, err := sys.walk(res, o, sc, cat, rtt, log)
		if err != nil {
			return nil, err
		}
		l.attempted += walked.attempted
		l.failed += walked.failed
	}
	res.attempted, res.failed = l.attempted, l.failed
	return res, nil
}

// perSegment renders one value per measured segment, for the notes.
func perSegment(p phase, f func(segment) float64) string {
	vs := make([]string, len(p.segs))
	for i, s := range p.segs {
		vs[i] = fmt.Sprintf("%.4g", f(s))
	}
	return strings.Join(vs, " ")
}

// unloadedRTT runs n requests one at a time and returns the median
// round trip and the median cost of the submit call alone, in ns.
func (l *load) unloadedRTT(d driver, n int) (rtt, submit float64) {
	l.resetSegment()
	submitted := stats.NewHistogram(int64(time.Second), 7)
	for i := 0; i < n; i++ {
		req := l.next()
		l.sent(req)
		start := time.Now()
		d.submit(req, start)
		submitted.Record(int64(time.Since(start)))
		d.flush()
		await(d, 0)
	}
	return float64(l.small.Quantile(0.5)), float64(submitted.Quantile(0.5))
}

// counters reads what the layers counted over the load phases.
func (s *system) counters(res *result, l *load, d driver, resident int64) error {
	if s.fr != nil {
		rd := d.(*respDriver)
		commands, err := rd.info("resp_commands")
		if err != nil {
			return fmt.Errorf("%s: INFO: %w", s.w.name, err)
		}
		snap := s.fr.srv.Snapshot()
		res.set("resp.commands", float64(commands), "count")
		res.set("resp.errors", float64(rd.errorReplies), "count")
		res.set("resp.bytes_per_op", float64(rd.bytesOut+rd.bytesIn)/float64(l.attempted), "B")
		res.set("kv.evicted", float64(snap.Evicted), "count")
		res.set("kv.expired", float64(snap.Expired), "count")
		res.set("kv.mem_bytes_per_user_byte", float64(snap.MemBytes)/float64(snap.ValueBytes+int64(snap.Items)*workload.KeySize), "ratio")
		res.set("core.threshold_bytes", float64(snap.Plan.Threshold), "B")
		res.set("core.num_small", float64(snap.Plan.NumSmall), "count")
		res.set("core.num_large", float64(snap.Plan.NumLarge), "count")
		res.set("core.small_cost_share", snap.Plan.SmallCostShare, "ratio")
		res.set("core.plan_changes", 0, "count")
		// The front door goes straight to the store: the native
		// datapath's layers see no traffic.
		for _, name := range []string{"client.sent", "client.completed", "client.timed_out", "client.retried", "client.stale", "client.bad_frames",
			"server.ops", "server.packets", "server.sw_drops", "server.bad_frames", "nic.fabric_drops",
			"wal.fsyncs", "wal.stalls", "wal.snapshots"} {
			res.set(name, 0, "count")
		}
		res.set("server.core_ops_imbalance", 0, "ratio")
		res.set("server.large_routed_share", 0, "ratio")
		res.set("wire.frames_per_op", 0, "count")
		res.set("wal.lag_bytes_max", 0, "B")
		return nil
	}
	e := s.dp
	cs := e.pipe.Stats()
	res.set("client.sent", float64(cs.Sent), "count")
	res.set("client.completed", float64(cs.Completed), "count")
	res.set("client.timed_out", float64(cs.TimedOut), "count")
	res.set("client.retried", float64(cs.Retried), "count")
	res.set("client.stale", float64(cs.Stale), "count")
	res.set("client.bad_frames", float64(cs.BadFrames), "count")

	e.sampleLag()
	st := e.srv.Stats()
	var packets, maxOps, largeOps uint64
	for id, c := range st.PerCore {
		packets += c.Packets
		maxOps = max(maxOps, c.Ops)
		if !st.Plan.Standby && !st.Plan.IsSmallCore(id) {
			largeOps += c.Ops
		}
	}
	ops := float64(max(st.Ops, 1))
	res.set("server.ops", float64(st.Ops), "count")
	res.set("server.packets", float64(packets), "count")
	res.set("server.sw_drops", float64(st.SwDrops), "count")
	res.set("server.bad_frames", float64(st.BadFrames), "count")
	res.set("server.core_ops_imbalance", float64(maxOps)*float64(len(st.PerCore))/ops, "ratio")
	res.set("server.large_routed_share", float64(largeOps)/ops, "ratio")
	res.set("wire.frames_per_op", float64(packets)/ops, "count")
	fabricDrops := uint64(0)
	if e.fab != nil {
		fabricDrops = e.fab.Drops()
	}
	res.set("nic.fabric_drops", float64(fabricDrops), "count")
	res.set("core.threshold_bytes", float64(st.Plan.Threshold), "B")
	res.set("core.num_small", float64(st.Plan.NumSmall), "count")
	res.set("core.num_large", float64(st.Plan.NumLarge), "count")
	res.set("core.small_cost_share", st.Plan.SmallCostShare, "ratio")
	res.set("core.plan_changes", float64(e.plans.Load()), "count")
	res.set("kv.evicted", float64(st.Evicted), "count")
	res.set("kv.expired", float64(st.Expired), "count")
	res.set("kv.mem_bytes_per_user_byte", float64(st.MemBytes)/float64(resident), "ratio")
	res.set("wal.fsyncs", float64(st.WAL.Fsyncs), "count")
	res.set("wal.stalls", float64(st.WAL.Stalls), "count")
	res.set("wal.snapshots", float64(st.WAL.Snapshots), "count")
	res.set("wal.lag_bytes_max", float64(e.lagBytesMax), "B")
	res.set("resp.commands", 0, "count")
	res.set("resp.errors", 0, "count")
	res.set("resp.bytes_per_op", 0, "B")
	return nil
}

// liveProbes are the probes that need the server still serving.
func (s *system) liveProbes(res *result, sc scale) {
	batch, loss := 0.0, 0.0
	if s.dp != nil && s.dp.udpPort != 0 {
		loss = probeUDPFragLoss(s.dp, sc.fragLoss)
		batch = probeUDPSendBatch(s.dp.udpPort, sc.probeOps)
	}
	res.set("nic.udp_send_batch32_ns", batch, "ns")
	res.set("nic.udp_frag_loss_share", loss, "ratio")
}

// restart is the durability check of the durable workload, made in
// both modes because its misses are failures; the traced run also
// reports what the restart cost.
func (s *system) restart(res *result, l *load, o options) error {
	var took time.Duration
	var replayed uint64
	var walBytes int64
	if s.w.durable {
		var err error
		if took, replayed, walBytes, err = s.dp.restart(l, o.seed); err != nil {
			return err
		}
	}
	if o.trace == 1 {
		perRecord := 0.0
		if replayed > 0 {
			perRecord = float64(took) / float64(replayed)
		}
		// Bytes the log holds against the bytes users wrote: the
		// preload went through the log too.
		logged := int64(l.cat.NumKeys())*workload.KeySize + l.cat.TotalValueBytes() + l.putBytes
		if s.dp != nil {
			logged += s.dp.headBytes
		}
		res.set("wal.restart_s", took.Seconds(), "s")
		res.set("wal.replay_records", float64(replayed), "count")
		res.set("wal.replay_ns_per_record", perRecord, "ns")
		res.set("wal.bytes_per_user_byte", float64(walBytes)/float64(logged), "ratio")
	}
	return nil
}

// walk stops the server and carries the head of the workload's stream
// through the layers by hand (walk.go), then writes the trace file.
func (s *system) walk(res *result, o options, sc scale, cat *workload.Catalog, rtt float64, log io.Writer) (*load, error) {
	w := newWalker(sc.walkReqs)
	l := newLoad(cat, o.seed, log) // the same stream the load phases began with
	var store *kv.Store
	var step func() bool
	var fabricWalk, udpWalk bool
	wireRatio := func() float64 { return 0 }

	if s.fr != nil {
		// The public server keeps its store to itself: walk a store of
		// the same shape.
		var err error
		store, err = kv.NewStore(kv.Config{MemoryLimit: s.fr.srv.Snapshot().MemoryLimit, Recycle: true})
		if err != nil {
			return nil, err
		}
		server.Preload(store, cat)
		step = (&storeWalker{w: w, l: l, store: store}).step
	} else {
		e := s.dp
		e.disconnect()
		e.pipe = nil
		e.srv.Stop()
		store = e.srv.Store()
		store.SetLogger(nil) // the stopped server's log is closed; the walk appends by hand
		e.srv = nil

		var wlog *wal.Log
		if e.w.durable {
			var err error
			if wlog, err = wal.Open(wal.Options{Dir: filepath.Join(s.scratch, "walk-wal")}); err != nil {
				return nil, err
			}
			if err = wlog.Start(); err != nil {
				return nil, err
			}
			defer wlog.Close()
		}
		var cli nic.ClientTransport
		var srv nic.ServerTransport
		if e.fab != nil {
			fab := nic.NewFabric(1)
			cli, srv = fab.NewClient(), fab.Server()
			fabricWalk = true
		} else {
			// One RX queue on the port the stopped server's queue 0 had.
			e.st.Close()
			udp, err := nic.NewUDPServer("127.0.0.1", e.udpPort, 1)
			if err != nil {
				return nil, err
			}
			e.st, srv = udp, udp
			if cli, err = nic.NewUDPClient("127.0.0.1", e.udpPort); err != nil {
				return nil, err
			}
			udpWalk = true
		}
		defer cli.Close()
		ww := newWireWalk(w, l, store, wlog, cli, srv)
		defer ww.close()
		step = ww.step
		wireRatio = func() float64 { return float64(ww.wireBytes) / float64(ww.userBytes) }
	}
	for i := 0; i < sc.walkReqs; i++ {
		l.attempted++
		if !step() {
			l.failed++
		}
	}
	res.set("wire.bytes_per_user_byte", wireRatio(), "ratio")

	transportNs := func(on bool, k spanKind) float64 {
		if !on {
			return 0
		}
		return w.p50(k, walkSmall)
	}
	res.set("workload.gen_ns", w.p50(spGen, walkSmall), "ns")
	res.set("wire.encode_small_ns", w.p50(spEncode, walkSmall), "ns")
	res.set("wire.encode_large_ns", w.p50(spEncode, walkLarge), "ns")
	res.set("wire.decode_header_ns", w.p50(spDecodeHeader, walkSmall), "ns")
	res.set("wire.reassemble_small_ns", w.p50(spReassemble, walkSmall), "ns")
	res.set("wire.reassemble_large_ns", w.p50(spReassemble, walkLarge), "ns")
	res.set("nic.fabric_send_ns", transportNs(fabricWalk, spSend), "ns")
	res.set("nic.fabric_recv_ns", transportNs(fabricWalk, spRecv), "ns")
	res.set("nic.udp_send_ns", transportNs(udpWalk, spSend), "ns")
	res.set("nic.udp_recv_ns", transportNs(udpWalk, spRecv), "ns")
	res.set("ring.mpmc_hop_ns", probeRingHop(sc.probeOps), "ns")
	res.set("kv.find_ns", w.p50(spFind, walkSmall), "ns")
	res.set("kv.put_small_ns", w.p50(spPut, walkSmall), "ns")
	res.set("kv.put_large_ns", w.p50(spPut, walkLarge), "ns")
	res.set("kv.delete_ns", probeDelete(store, l, sc.probeOps), "ns")
	res.set("wal.append_ns", w.p50(spWALAppend, walkSmall), "ns")
	res.set("stats.clock_ns", float64(w.clock), "ns")
	walkSmallNs := float64(w.total[walkSmall].Quantile(0.5))
	res.set("server.walk_small_ns", walkSmallNs, "ns")
	res.set("server.walk_large_ns", float64(w.total[walkLarge].Quantile(0.5)), "ns")
	unaccounted := 0.0
	if rtt > 0 {
		unaccounted = 1 - walkSmallNs/rtt
	}
	res.set("server.unaccounted_share", unaccounted, "ratio")
	if w.dropped > 0 {
		res.notes = append(res.notes, fmt.Sprintf("trace buffer full: %d spans not recorded", w.dropped))
	}
	return l, w.writeTrace(filepath.Join(o.outDir, "trace-"+s.w.name+".json"), s.w.name, o.seed)
}
