package server_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
	"github.com/minoskv/minos/internal/wire"
)

// silence is long against ring.SpinBound: after it every core, the
// transport's watchers and the client's receiver are parked.
const silence = 60 * time.Millisecond

// prompt is what "well inside the deadline" means below: generous for a
// loaded CI machine under -race, a fifth of the clients' 5 s timeout.
const prompt = time.Second

type parkedSystem struct {
	name   string
	design server.Design
	large  int // a value the plan hands to a large core through its software ring
	boot   func(t *testing.T, design server.Design) (*server.Server, nic.ClientTransport)
}

func bootFabric(t *testing.T, design server.Design) (*server.Server, nic.ClientTransport) {
	fabric := nic.NewFabric(testCores)
	srv, err := server.New(server.Config{Design: design, Cores: testCores, Epoch: time.Hour}, fabric.Server())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)
	return srv, fabric.NewClient()
}

func bootUDP(t *testing.T, design server.Design) (*server.Server, nic.ClientTransport) {
	const port = 39500
	tr, err := nic.NewUDPServer("127.0.0.1", port, testCores)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	srv, err := server.New(server.Config{Design: design, Cores: testCores, Epoch: time.Hour}, tr)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ct, err := nic.NewUDPClient("127.0.0.1", port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Stop(); tr.Close(); ct.Close() })
	return srv, ct
}

func parkedSystems() []parkedSystem {
	systems := []parkedSystem{{"Minos-UDP", server.Minos, 40_000, bootUDP}} // loopback UDP loses fragments of larger values (ROADMAP item 3)
	for _, d := range []server.Design{server.Minos, server.HKH, server.HKHWS, server.SHO} {
		systems = append(systems, parkedSystem{d.String() + "-fabric", d, 500_000, bootFabric})
	}
	return systems
}

// TestLivenessFromParked: with every waiter of the datapath parked, each
// kind of request still wakes exactly whom it needs. A small GET wakes the
// core its RX queue is steered to; a large GET additionally crosses a
// software ring to a parked large core (Minos) or worker (SHO); a
// fragmented PUT does the same with raw fragments.
func TestLivenessFromParked(t *testing.T) {
	ctx := context.Background()
	for _, sys := range parkedSystems() {
		t.Run(sys.name, func(t *testing.T) {
			srv, ct := sys.boot(t, sys.design)
			small, large := []byte("small-01"), []byte("large-01")
			srv.Store().Put(small, []byte("tiny"))
			srv.Store().Put(large, bytes.Repeat([]byte("L"), sys.large))
			queues := testCores
			if sys.design == server.SHO {
				queues = 1 // clients target the hand-off core only (§5.2)
			}
			p := newPipe(t, ct, queues, 7)

			timed := func(what string, op func() error) {
				t.Helper()
				time.Sleep(silence)
				start := time.Now()
				if err := op(); err != nil {
					t.Fatalf("%s after %v of silence: %v", what, silence, err)
				}
				if took := time.Since(start); took > prompt {
					t.Fatalf("%s after %v of silence took %v", what, silence, took)
				}
			}
			// Several rounds, so that GETs (steered at random) find every
			// RX queue parked at least once.
			for round := 0; round < 2*testCores; round++ {
				timed("small GET", func() error {
					_, err := p.Get(ctx, small)
					return err
				})
			}
			timed("large GET", func() error {
				v, err := p.Get(ctx, large)
				if err == nil && len(v) != sys.large {
					t.Fatalf("large GET returned %d bytes, want %d", len(v), sys.large)
				}
				return err
			})
			timed("fragmented PUT", func() error {
				return p.Put(ctx, []byte("frag-put"), bytes.Repeat([]byte("P"), 3*wire.MaxFragPayload))
			})
		})
	}
}

// TestPlanChangeWakesParkedLargeCore: a large core parks with its RX queue
// steered to a small core. When the controller makes it a small core, the
// queue must be steered back and the core woken, or frames on that queue
// wake a core that no longer drains it.
func TestPlanChangeWakesParkedLargeCore(t *testing.T) {
	fabric := nic.NewFabric(2)
	srv, err := server.New(server.Config{Design: server.Minos, Cores: 2, Epoch: 20 * time.Millisecond}, fabric.Server())
	if err != nil {
		t.Fatal(err)
	}
	if plan := srv.Plan(); plan.NumLarge != 1 {
		t.Fatalf("initial plan %v, want one large core", &plan)
	}
	allSmall := make(chan struct{})
	var once atomic.Bool
	srv.OnPlan(func(p core.Plan) {
		if p.NumSmall == 2 && once.CompareAndSwap(false, true) {
			close(allSmall)
		}
	})
	srv.Start()
	t.Cleanup(srv.Stop)
	key := []byte("small-01")
	srv.Store().Put(key, []byte("tiny"))

	// Small requests only, all on queue 0: core 1 stays parked throughout,
	// and the controller folds it into the small cores.
	ct := fabric.NewClient()
	roundTrip := func(queue int, id uint64) bool {
		t.Helper()
		req := wire.Message{Op: wire.OpGetRequest, RxQueue: uint16(queue), ReqID: id, Key: key}
		if err := ct.SendBatch(queue, req.LeaseFrames(nil)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, wire.MTU)
		_, ok := ct.Recv(buf, prompt)
		return ok
	}
	for id := uint64(1); ; id++ {
		if !roundTrip(0, id) {
			t.Fatal("no reply on queue 0")
		}
		select {
		case <-allSmall:
		default:
			if id > 100_000 {
				t.Fatal("the controller never made both cores small")
			}
			continue
		}
		break
	}
	time.Sleep(silence)
	if !roundTrip(1, 1<<40) {
		t.Fatal("a request on the re-roled core's queue was never served")
	}
}

// TestStopAndKillFromParked: Stop and Kill must not wait for traffic to
// wake the cores they are stopping.
func TestStopAndKillFromParked(t *testing.T) {
	for _, sys := range parkedSystems() {
		for _, how := range []string{"Stop", "Kill"} {
			t.Run(sys.name+"/"+how, func(t *testing.T) {
				srv, _ := sys.boot(t, sys.design)
				time.Sleep(silence)
				done := make(chan struct{})
				go func() {
					if how == "Stop" {
						srv.Stop()
					} else {
						srv.Kill()
					}
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(prompt):
					t.Fatalf("%s did not return within %v of a parked server", how, prompt)
				}
			})
		}
	}
}
