package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/minoskv/minos/internal/workload"
)

// workloadSpec is one traffic mix. Everything here is frozen: a later
// change is measured against these rates and shapes, so none of them
// may depend on how fast the code under test happens to be.
type workloadSpec struct {
	name      string
	transport string  // "fabric", "udp" or "resp"
	getRatio  float64 // share of GETs in the generated stream
	pctLarge  float64 // pL, in percent; 0 builds a dataset with no large keys
	durable   bool    // WAL on, restart measured
	memShare  float64 // store memory limit as a share of the dataset's key+value bytes; 0 = unbounded
	depth     int     // closed phase: requests outstanding (resp: pipeline depth per write)
	openRate  float64 // open phase: Poisson arrivals per second
	openLimit int     // open phase: most requests outstanding before the generator has to wait
}

// The open-phase rates sit at roughly a third of the closed-phase
// ceiling measured at the commit that introduced the benchmark (README
// has those numbers): latency rises long before throughput stops
// rising, and a tail measured at the ceiling is a queue, not a system.
//
// openLimit is what the connection can hold without losing a request.
// The fabric's RX rings take 4096 frames, and a large PUT is 350 of them:
// 2048 requests leave room for the few that can be large. Loopback UDP has the kernel's
// default socket buffers (208 KB, about 90 full frames) and nothing in
// the repo sizes them, so 64 is the most that can be in flight with no
// datagram dropped. A RESP connection carries one pipelined write.
var workloads = map[string]workloadSpec{
	"fabric-mixed": {
		name: "fabric-mixed", transport: "fabric",
		getRatio: 0.95, pctLarge: 0.75, depth: 32, openRate: 20_000, openLimit: 2048,
	},
	"udp-small": {
		name: "udp-small", transport: "udp",
		getRatio: 0.95, pctLarge: 0, depth: 32, openRate: 10_000, openLimit: 64,
	},
	"fabric-write-durable": {
		name: "fabric-write-durable", transport: "fabric",
		getRatio: 0.50, pctLarge: 0.125, durable: true, depth: 32, openRate: 30_000, openLimit: 2048,
	},
	"resp-cache": {
		name: "resp-cache", transport: "resp",
		getRatio: 0.90, pctLarge: 0, memShare: 0.5, depth: 16, openRate: 100_000, openLimit: 16,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (w workloadSpec) describe() string {
	s := fmt.Sprintf("%s: %s, GET share %.2f, pL %.3f%%, closed phase %d outstanding, open phase %.0f ops/s", w.name, w.transport, w.getRatio, w.pctLarge, w.depth, w.openRate)
	if w.durable {
		s += ", WAL on (fsync every 100 ms)"
	}
	if w.memShare > 0 {
		s += fmt.Sprintf(", memory limit %.0f%% of the dataset", 100*w.memShare)
	}
	return s
}

// profile is the dataset and stream shape: the paper's trimodal ETC
// sizes, zipf 0.99, the paper's 10 K : 16 M large-key ratio, and the
// heaviest large-item size of its sweep (500 KB).
func (w workloadSpec) profile(keys int, seed int64) workload.Profile {
	p := workload.DefaultProfile()
	p.Name = w.name
	p.NumKeys = keys
	p.GetRatio = w.getRatio
	p.PercentLarge = w.pctLarge
	p.NumLargeKeys = 0
	if w.pctLarge > 0 {
		p.NumLargeKeys = max(keys*10_000/16_000_000, 16)
	}
	p.Seed = seed
	return p
}

// scale is how much work one run does. The measured time (--seconds)
// is split into sixteen equal segments — six closed, ten open — and each
// phase begins with two more that are discarded. Segments are short and
// many so that the median over them is the steady state: a collection
// or a compaction lands in two or three of them, not in most.
type scale struct {
	keys     int
	seg      time.Duration
	setups   int           // timed set-ups per run; the median is setup_s
	epoch    time.Duration // controller period of the server under test
	snapshot time.Duration // WAL compaction period
	rttOps   int           // depth-1 round trips for the unloaded RTT
	walkReqs int           // requests carried through the layer walk
	probeOps int           // samples per micro-probe
	fragLoss time.Duration // length of the UDP large-value loss probe
}

const (
	closedSegments  = 6
	openSegments    = 10
	discardSegments = 2
)

func newScale(o options) scale {
	sc := scale{
		keys:     200_000,
		seg:      time.Duration(o.seconds / (closedSegments + openSegments) * float64(time.Second)),
		setups:   5,
		epoch:    time.Second,
		rttOps:   20_000,
		walkReqs: 50_000,
		probeOps: 2_000,
		fragLoss: 2 * time.Second,
	}
	if o.quick {
		sc.keys = 20_000
		sc.setups = 1
		sc.epoch = 100 * time.Millisecond
		sc.rttOps = 1_000
		sc.walkReqs = 2_000
		sc.probeOps = 200
		sc.fragLoss = 200 * time.Millisecond
	}
	// Two compactions land inside the twenty load segments.
	sc.snapshot = 8 * sc.seg
	return sc
}
