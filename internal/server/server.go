package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/wal"
	"github.com/minoskv/minos/internal/wire"
)

// Design selects the server architecture (§5.2). It mirrors the
// simulator's enumeration; the live server implements the same four
// designs over real concurrency.
type Design int

// The four designs.
const (
	Minos Design = iota
	HKH
	SHO
	HKHWS
)

// String returns the paper's abbreviation.
func (d Design) String() string {
	switch d {
	case Minos:
		return "Minos"
	case HKH:
		return "HKH"
	case SHO:
		return "SHO"
	case HKHWS:
		return "HKH+WS"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// Config parameterizes a Server. Zero fields take the paper's defaults.
type Config struct {
	Design Design

	// Cores is the number of server cores (polling goroutines). The
	// default is GOMAXPROCS, capped at 8 (the paper's core count).
	Cores int

	// Batch is the RX drain batch size B (paper: 32).
	Batch int

	// Epoch is the controller period (paper: 1 s).
	Epoch time.Duration

	// HandoffCores is SHO's dispatcher count.
	HandoffCores int

	// Store configures the KV data structures.
	Store kv.Config

	// Controller tuning; zero values take the paper's defaults.
	Quantile        float64
	Alpha           float64
	Cost            core.CostFunc
	StaticThreshold int64

	// WAL, when non-nil, gives the server restart durability: New
	// replays the log into the store before serving, every committed
	// mutation is appended write-behind, and a snapshot loop compacts
	// the log. Nil (the default) keeps the memory-only server.
	WAL *WALConfig
}

// WALConfig wires a write-behind log through the server.
type WALConfig struct {
	// Options opens the log (Dir is required).
	Options wal.Options
	// SnapshotEvery is the compaction period: each tick seals the
	// active segment, dumps the live store, and drops older segments.
	// 0 defaults to one minute; negative disables periodic snapshots
	// (the log then only compacts on the boot-time heal after a
	// corrupted replay).
	SnapshotEvery time.Duration
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.Epoch == 0 {
		c.Epoch = time.Second
	}
	if c.HandoffCores == 0 {
		c.HandoffCores = 1
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("server: Cores = %d, need >= 1", c.Cores)
	}
	if c.Design == SHO && c.HandoffCores >= c.Cores {
		return fmt.Errorf("server: SHO needs at least one worker core")
	}
	return nil
}

// work is one unit queued on a software ring: either a complete message or
// a raw fragment to be reassembled by the receiving (large) core. A queued
// message is always owned (wire.Message.Own) and released by the consumer;
// fragBuf carries the RX frame's lease when frag still aliases it, released
// by the consumer after reassembly ingests the payload.
type work struct {
	src     nic.Endpoint
	msg     *wire.Message
	frag    []byte
	fragBuf *mem.Buf
}

// coreState is the per-core slice of the server.
type coreState struct {
	id    int
	swq   *ring.MPMC[work]
	reasm *wire.Reassembler

	// bell is what the core parks on once it has polled for ring.SpinBound
	// and found nothing. Everything that can hand this core work rings it:
	// the RX queues steered to it (steerRx), enqueues on a software ring it
	// consumes, a plan that changes its role, and Stop through the stop
	// channel the park also selects on.
	bell *ring.Doorbell

	// reader is this core's reclamation guard: pinned for the span of
	// each polling-loop iteration, so items the core found via Find stay
	// valid through reply encoding (kv recycling, see kv/reclaim.go).
	reader *kv.Reader

	// scratch is the core's reusable decode target for requests served
	// run-to-completion; txFrames is the reusable reply-frame slice. Both
	// exist so the steady-state request path allocates nothing.
	scratch  wire.Message
	txFrames []*mem.Buf

	// sizeHist is the per-core request-size histogram the controller
	// aggregates (§3); guarded by histMu because the control goroutine
	// drains it concurrently with the core recording into it.
	histMu   sync.Mutex
	sizeHist *stats.Histogram

	ops    atomic.Uint64
	pkts   atomic.Uint64
	hits   atomic.Uint64 // GETs answered with a value
	misses atomic.Uint64 // GETs answered with a miss (absent, expired or evicted)
}

// Server runs one of the four designs over a transport.
type Server struct {
	cfg   Config
	tr    nic.ServerTransport
	store *kv.Store
	ctrl  *core.Controller
	plan  atomic.Pointer[core.Plan]
	cores []coreState

	swDrops  atomic.Uint64
	badFrame atomic.Uint64

	// planHook, when set, observes every plan the controller publishes
	// (the embedder-facing window into the epoch loop). Stored behind an
	// atomic pointer so OnPlan may be called before or after Start.
	planHook atomic.Pointer[func(core.Plan)]

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// start is stamped once at construction; Stats derives uptime from it
	// so no clock is read on the data path.
	start time.Time

	// Durability state (Config.WAL): the log, whether boot-time replay
	// hit corruption (the snapshot loop heals immediately), and how
	// many replayed records were skipped because their TTL had already
	// passed while the node was down.
	wal            *wal.Log
	walCorrupt     bool
	walSkippedTTLs uint64
}

// swqCap bounds each software queue; overflow drops the request, counted
// in Stats.
const swqCap = 65536

// New builds a server over tr. The transport must have at least
// cfg.Cores RX queues.
func New(cfg Config, tr nic.ServerTransport) (*Server, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Queues() < cfg.Cores {
		return nil, fmt.Errorf("server: transport has %d queues, need %d", tr.Queues(), cfg.Cores)
	}
	// The server always runs the store with item recycling: its cores pin
	// a reader per polling iteration, which is exactly the discipline
	// Recycle requires, and steady-state PUTs then allocate nothing.
	cfg.Store.Recycle = true
	store, err := kv.NewStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(core.Config{
		Cores:           cfg.Cores,
		Quantile:        cfg.Quantile,
		Alpha:           cfg.Alpha,
		Cost:            cfg.Cost,
		StaticThreshold: cfg.StaticThreshold,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		tr:    tr,
		store: store,
		ctrl:  ctrl,
		cores: make([]coreState, cfg.Cores),
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	plan := ctrl.Plan()
	s.plan.Store(&plan)
	for i := range s.cores {
		c := &s.cores[i]
		c.id = i
		c.swq = ring.NewMPMC[work](swqCap)
		c.bell = ring.NewDoorbell()
		c.reasm = wire.NewReassembler(0)
		c.sizeHist = ctrl.NewSizeHistogram()
		c.reader = store.AcquireReader()
	}
	if cfg.WAL != nil {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openWAL opens the log, replays it into the (still-private) store,
// then installs the mutation hook and starts the write-behind writer.
// Order matters: replay runs before the hook exists, so restored items
// are not re-logged.
func (s *Server) openWAL() error {
	w, err := wal.Open(s.cfg.WAL.Options)
	if err != nil {
		return err
	}
	now := s.store.Clock()
	res, err := w.Replay(func(op byte, key, value []byte, expire int64) {
		switch op {
		case wal.OpPut:
			if expire != 0 && expire <= now {
				// The TTL ran out while the node was down; restoring
				// the item would only make the next read bury it.
				s.walSkippedTTLs++
				return
			}
			s.store.PutExpire(key, value, expire)
		case wal.OpDelete:
			s.store.Delete(key)
		}
	})
	if err != nil {
		return err
	}
	s.walCorrupt = res.Corrupt
	if err := w.Start(); err != nil {
		return err
	}
	s.store.SetLogger(w)
	s.wal = w
	return nil
}

// Store exposes the underlying KV store, e.g. for preloading datasets.
func (s *Server) Store() *kv.Store { return s.store }

// Plan returns the controller's current plan.
func (s *Server) Plan() core.Plan { return *s.plan.Load() }

// OnPlan registers fn to be called from the control goroutine each time
// the controller publishes a new plan (once per epoch on the Minos
// design; never on the size-unaware baselines). fn must be fast — it
// runs on the epoch path — and must not call back into the server.
// Passing nil removes the hook.
func (s *Server) OnPlan(fn func(core.Plan)) {
	if fn == nil {
		s.planHook.Store(nil)
		return
	}
	s.planHook.Store(&fn)
}

// Start launches the core and controller goroutines (plus the WAL
// snapshot loop on durable servers).
func (s *Server) Start() {
	s.steerRx(s.plan.Load())
	for i := range s.cores {
		s.wg.Add(1)
		go s.coreLoop(&s.cores[i])
	}
	s.wg.Add(1)
	go s.controlLoop()
	if s.wal != nil {
		s.wg.Add(1)
		go s.walLoop()
	}
}

// Stop terminates all goroutines and waits for them. On a durable
// server it then drains and fsyncs the log: a clean Stop loses nothing.
func (s *Server) Stop() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	if s.wal != nil {
		s.wal.Close()
	}
}

// Kill is Stop with crash semantics: the WAL is abandoned first — its
// ring is dropped on the floor, nothing is flushed or fsynced — so the
// on-disk state is exactly what a kill -9 would have left. Used to
// test and demo crash recovery; a killed server restarts warm from the
// same WAL directory via Config.WAL.
func (s *Server) Kill() {
	if s.wal != nil {
		s.wal.Abandon()
	}
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// walLoop runs snapshot compaction: immediately after a corrupted
// replay (re-anchoring recovery past the damage), then periodically.
func (s *Server) walLoop() {
	defer s.wg.Done()
	if s.walCorrupt {
		s.walSnapshot()
	}
	every := s.cfg.WAL.SnapshotEvery
	if every == 0 {
		every = time.Minute
	}
	if every < 0 {
		<-s.stop
		return
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.walSnapshot()
		}
	}
}

// walSnapshot dumps the live store into a compaction snapshot. Dead
// items are filtered here rather than replayed-and-refiltered later, so
// snapshots shrink with the keyset. Errors are left to the next tick —
// the segments a failed snapshot would have replaced are all retained,
// so nothing is lost.
func (s *Server) walSnapshot() {
	now := s.store.Clock()
	s.wal.Snapshot(func(emit func(key, value []byte, expire int64) bool) {
		s.store.Range(func(it *kv.Item) bool {
			if it.Expire != 0 && it.Expire <= now {
				return true
			}
			return emit(it.Key, it.Value, it.Expire)
		})
	})
}

// steerRx points every RX queue's doorbell at the core that drains it
// under plan. Size-unaware designs drain their own queue. On Minos a small
// core's queue is its own, and a large core's queue, which every small core
// polls while awake, wakes one of them, spread by queue number.
func (s *Server) steerRx(plan *core.Plan) {
	for q := range s.cores {
		owner := q
		if s.cfg.Design == Minos && !plan.IsSmallCore(q) {
			owner = q % plan.NumSmall
		}
		s.tr.SetRxBell(q, s.cores[owner].bell)
	}
}

func (s *Server) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// CoreStat is one core's accounting.
type CoreStat struct {
	Ops     uint64
	Packets uint64
}

// Stats is a snapshot of server counters.
type Stats struct {
	PerCore   []CoreStat
	Ops       uint64
	SwDrops   uint64
	BadFrames uint64
	Plan      core.Plan

	// Cache-semantics counters: GET hits and misses across all cores,
	// plus the store's expiry/eviction totals and byte footprint. All
	// cumulative and monotone.
	Hits    uint64
	Misses  uint64
	Expired uint64
	Evicted uint64
	// MemBytes is the store's current accounted footprint (keys, values,
	// per-item overhead); MemoryLimit echoes the configured cap (0 =
	// unbounded).
	MemBytes    int64
	MemoryLimit int64

	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64

	// Durable reports Config.WAL was set; WAL then carries the log's
	// counters and WALSkippedTTLs how many replayed records were
	// dropped because their TTL passed while the node was down.
	Durable        bool
	WAL            wal.Stats
	WALCorrupt     bool
	WALSkippedTTLs uint64
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{Plan: *s.plan.Load(), UptimeSeconds: time.Since(s.start).Seconds()}
	for i := range s.cores {
		c := &s.cores[i]
		cs := CoreStat{Ops: c.ops.Load(), Packets: c.pkts.Load()}
		st.PerCore = append(st.PerCore, cs)
		st.Ops += cs.Ops
		st.Hits += c.hits.Load()
		st.Misses += c.misses.Load()
	}
	st.SwDrops = s.swDrops.Load()
	st.BadFrames = s.badFrame.Load()
	cs := s.store.CacheStats()
	st.Expired = cs.Expired
	st.Evicted = cs.Evicted
	st.MemBytes = cs.MemBytes
	st.MemoryLimit = cs.MemoryLimit
	if s.wal != nil {
		st.Durable = true
		st.WAL = s.wal.Stats()
		st.WALCorrupt = s.walCorrupt
		st.WALSkippedTTLs = s.walSkippedTTLs
	}
	return st
}

// controlLoop is the paper's core-0 epoch work, confined to its own
// goroutine. Every design runs the epoch ticker for the cache sweep
// (expired items are reclaimed in epoch-aligned batches, complementing
// lazy expiration on read); only Minos additionally aggregates per-core
// histograms, folds, and re-plans (§3).
func (s *Server) controlLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.Epoch)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			// SweepExpired is a no-op until the first TTL'd item lands,
			// so immortal-item workloads pay nothing here. The reclaim
			// pass recycles items retired since the last epoch even on
			// partitions too cold to trip the opportunistic threshold.
			s.store.SweepExpired(s.store.Clock())
			s.store.ReclaimRetired()
			if s.cfg.Design != Minos {
				continue
			}
			agg := s.ctrl.NewSizeHistogram()
			for i := range s.cores {
				c := &s.cores[i]
				c.histMu.Lock()
				if c.sizeHist.Count() > 0 {
					agg.Merge(c.sizeHist)
					c.sizeHist.Reset()
				}
				c.histMu.Unlock()
			}
			plan := s.ctrl.Epoch(agg)
			old := s.plan.Swap(&plan)
			if plan.NumSmall != old.NumSmall {
				// A core changed role, so some RX queue changed hands:
				// re-steer the doorbells, then wake everyone, so that
				// frames which rang the old owner are found by the new.
				s.steerRx(&plan)
				for i := range s.cores {
					s.cores[i].bell.Ring()
				}
			}
			if fn := s.planHook.Load(); fn != nil {
				(*fn)(plan)
			}
		}
	}
}
