package server_test

import (
	"context"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/server"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleServerParks is the other side of the bounded spin: once traffic
// stops, the cores, the transport's watchers and the client's receiver all
// really block. Spinning forever would pass every latency test and fail
// this one.
func TestIdleServerParks(t *testing.T) {
	ctx := context.Background()
	for _, sys := range parkedSystems() {
		if sys.design != server.Minos {
			continue
		}
		t.Run(sys.name, func(t *testing.T) {
			srv, ct := sys.boot(t, sys.design)
			key := []byte("small-01")
			srv.Store().Put(key, []byte("tiny"))
			p := newPipe(t, ct, testCores, 5)
			for i := 0; i < 200; i++ {
				if _, err := p.Get(ctx, key); err != nil {
					t.Fatal(err)
				}
			}
			const settle, window = 300 * time.Millisecond, 300 * time.Millisecond
			time.Sleep(settle)
			before := processCPU(t)
			time.Sleep(window)
			if used := processCPU(t) - before; used > window/4 {
				t.Fatalf("an idle server and client used %v of CPU in %v: something is still polling", used, window)
			}
		})
	}
}

// TestWakeLatencyBesideASpinningDriver is the regression the bounded spin
// exists for. One goroutine holds a P by yield-spinning, as the benchmark's
// driver does, submitting a small GET every 100 µs and polling for the
// replies; the other P is the server's and the receiver's. The gaps are
// well inside ring.SpinBound, so no waiter may have blocked on anything
// that takes a thread wake-up, let alone a timer, to get out of. With the
// old back-off (32 yields, then time.Sleep(20µs)) the second P went idle
// between requests and p90 here was about 3 ms.
func TestWakeLatencyBesideASpinningDriver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fabric := nic.NewFabric(2)
	srv, err := server.New(server.Config{Design: server.Minos, Cores: 2}, fabric.Server())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()
	key := []byte("small-01")
	srv.Store().Put(key, []byte("tiny"))
	p := client.NewPipeline(fabric.NewClient(), 2, client.PipelineConfig{Seed: 3, Timeout: 5 * time.Second})
	defer p.Close()

	// The latency is the system's only while it has the machine: two CPUs,
	// one for the driver and one for everything else. Beside a CPU-bound
	// neighbour (go test runs packages in parallel; the sandbox has bad
	// spells) threads are descheduled for kernel ticks at a time and the
	// numbers say nothing. An attempt is void if the driver itself ran
	// late or if anything else used more than a tenth of a CPU meanwhile,
	// and a test with no valid attempt is skipped, not failed. The old
	// back-off failed every attempt, alone on the machine.
	for attempt := 1; attempt <= 3; attempt++ {
		wall, busy, own := time.Now(), machineCPU(t), processCPU(t)
		p50, p90, late := pacedGets(t, p, key)
		others := (machineCPU(t) - busy) - (processCPU(t) - own)
		t.Logf("attempt %d: paced GETs p50 %v, p90 %v; the driver ran %v late at p90, others used %v of CPU", attempt, p50, p90, late, others)
		switch {
		case late >= 250*time.Microsecond || others > time.Since(wall)/10:
		case p90 < time.Millisecond:
			return
		default:
			t.Fatalf("p90 = %v (p50 %v) on a quiet machine: a waiter is blocking inside the spin bound", p90, p50)
		}
	}
	t.Skip("no attempt had the machine to itself: too busy to time a wake-up")
}

// machineCPU is the CPU time every process on the machine has used, steal
// included, from the first line of /proc/stat (in USER_HZ, 10 ms, ticks).
func machineCPU(t *testing.T) time.Duration {
	t.Helper()
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		t.Skipf("cannot tell how busy the machine is: %v", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		t.Skipf("unexpected /proc/stat: %q", line)
	}
	var ticks int64
	for _, i := range []int{1, 2, 3, 6, 7, 8} {
		n, _ := strconv.ParseInt(f[i], 10, 64)
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// pacedGets submits 2000 GETs 100 µs apart from the calling goroutine,
// which yield-spins between submissions and while polling for replies. It
// returns the latency percentiles, measured from each request's due
// instant, and how late at p90 the submissions themselves were.
func pacedGets(t *testing.T, p *client.Pipeline, key []byte) (p50, p90, late time.Duration) {
	const requests, gap = 2000, 100 * time.Microsecond
	type inFlight struct {
		call *client.Call
		due  time.Time
	}
	var flying []inFlight
	lat := make([]time.Duration, 0, requests)
	lateness := make([]time.Duration, 0, requests)
	for sent, due := 0, time.Now(); len(lat) < requests; runtime.Gosched() {
		if now := time.Now(); sent < requests && !now.Before(due) {
			lateness = append(lateness, now.Sub(due))
			flying = append(flying, inFlight{p.GetAsync(key), due})
			sent++
			due = due.Add(gap)
		}
		for i := 0; i < len(flying); i++ {
			select {
			case <-flying[i].call.Done():
			default:
				continue
			}
			if err := flying[i].call.Err(); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, flying[i].call.DoneAt().Sub(flying[i].due))
			flying[i] = flying[len(flying)-1]
			flying = flying[:len(flying)-1]
			i--
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(lateness, func(i, j int) bool { return lateness[i] < lateness[j] })
	return lat[requests/2], lat[requests*9/10], lateness[requests*9/10]
}
