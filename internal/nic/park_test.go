package nic

import (
	"sync"
	"testing"
	"time"

	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/ring"
)

// silence is long against ring.SpinBound: a receiver left alone for this
// long is parked. prompt is how soon it must be back.
const (
	silence = 60 * time.Millisecond
	prompt  = time.Second
)

// recvAfterSilence starts a Recv with a timeout far beyond prompt, lets it
// park, runs wake, and returns what Recv returned and how long after wake.
func recvAfterSilence(t *testing.T, cli ClientTransport, wake func()) (string, bool, time.Duration) {
	t.Helper()
	type result struct {
		data string
		ok   bool
		at   time.Time
	}
	got := make(chan result, 1)
	go func() {
		buf := make([]byte, 64)
		n, ok := cli.Recv(buf, 10*prompt)
		got <- result{string(buf[:n]), ok, time.Now()}
	}()
	time.Sleep(silence)
	woke := time.Now()
	wake()
	select {
	case r := <-got:
		return r.data, r.ok, r.at.Sub(woke)
	case <-time.After(2 * prompt):
		t.Fatal("the parked receiver was never woken")
		panic("unreachable")
	}
}

func TestFabricReplyWakesParkedReceiver(t *testing.T) {
	f := NewFabric(1)
	cli := f.NewClient()
	data, ok, took := recvAfterSilence(t, cli, func() {
		if err := f.Server().Send(0, cli.Endpoint(), mem.Static([]byte("pong"))); err != nil {
			t.Error(err)
		}
	})
	if !ok || data != "pong" || took > prompt {
		t.Fatalf("parked Recv = %q ok=%v, %v after the reply was sent", data, ok, took)
	}
}

func TestFabricCloseWakesParkedReceiver(t *testing.T) {
	f := NewFabric(1)
	_, ok, took := recvAfterSilence(t, f.NewClient(), func() { f.Server().Close() })
	if ok || took > prompt {
		t.Fatalf("parked Recv returned ok=%v %v after the fabric closed", ok, took)
	}
}

// A frame on an RX queue rings the doorbell the queue is steered to, and
// only that one; re-steering takes effect on the next frame.
func TestFabricRxBellFollowsSteering(t *testing.T) {
	f := NewFabric(2)
	cli := f.NewClient()
	a, b := ring.NewDoorbell(), ring.NewDoorbell()
	f.Server().SetRxBell(0, a)
	f.Server().SetRxBell(1, b)
	rung := func(d *ring.Doorbell) bool {
		select {
		case <-d.C():
			return true
		default:
			return false
		}
	}
	a.Arm()
	b.Arm()
	cli.Send(1, mem.Static([]byte("x")))
	if rung(a) || !rung(b) {
		t.Fatal("a frame on queue 1 must ring queue 1's bell and no other")
	}
	f.Server().SetRxBell(1, a)
	cli.Send(1, mem.Static([]byte("y")))
	if !rung(a) {
		t.Fatal("queue 1 was steered to bell a, which a frame on it did not ring")
	}
	cli.Send(1, mem.Static([]byte("z")))
	if rung(a) || rung(b) {
		t.Fatal("an unarmed bell was rung")
	}
}

// The reply path reads the mailbox table without a lock while NewClient
// republishes it; under -race this is the check that the publication is
// sound.
func TestFabricNewClientWhileServerSends(t *testing.T) {
	f := NewFabric(1)
	first := f.NewClient()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ { // each one allocates a 64 Ki-slot mailbox
			f.NewClient()
		}
	}()
	buf := make([]byte, 8)
	for i := 0; i < 500; i++ {
		if err := f.Server().Send(0, first.Endpoint(), mem.Static([]byte("r"))); err != nil {
			t.Fatal(err)
		}
		if _, ok := first.Recv(buf, prompt); !ok {
			t.Fatalf("reply %d to the first client was lost", i)
		}
	}
	wg.Wait()
	late := f.NewClient()
	f.Server().Send(0, late.Endpoint(), mem.Static([]byte("r")))
	if _, ok := late.Recv(buf, prompt); !ok {
		t.Fatal("a client attached during the sends has no mailbox")
	}
}

// The UDP server's half of the doorbell protocol: the empty poll of an
// armed core hands the queue to its watcher, which rings on arrival; and an
// empty poll of another queue looks at the parked one's socket itself.
func TestUDPArrivalRingsParkedCore(t *testing.T) {
	const port = 39120
	s, err := NewUDPServer("127.0.0.1", port, 2)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer s.Close()
	c, err := NewUDPClient("127.0.0.1", port)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bell := ring.NewDoorbell()
	s.SetRxBell(1, bell)
	out := make([]Frame, 4)

	waitRing := func(what string) {
		t.Helper()
		select {
		case <-bell.C():
		case <-time.After(prompt):
			t.Fatalf("%s: the armed bell was not rung within %v of the datagram", what, prompt)
		}
		bell.Disarm()
		if n := s.Recv(1, out); n != 1 {
			t.Fatalf("%s: the datagram that rang is not there to read (n=%d)", what, n)
		}
		out[0].Release()
	}

	// Through the watcher: arm, poll empty, park.
	bell.Arm()
	if n := s.Recv(1, out); n != 0 {
		t.Fatalf("poll of an idle queue returned %d frames", n)
	}
	time.Sleep(silence)
	c.Send(1, mem.Static([]byte("wake")))
	waitRing("watcher")

	// Through a neighbour's empty poll, with no watcher involved: the
	// bell is armed but queue 1 itself is never polled.
	if raw := s.raws[1]; raw != nil {
		bell.Arm()
		c.Send(1, mem.Static([]byte("wake")))
		for deadline := time.Now().Add(prompt); !raw.readable(); {
			if time.Now().After(deadline) {
				t.Fatal("the datagram never became readable")
			}
		}
		s.Recv(0, out)
		waitRing("neighbour's empty poll")
	}
}

func TestUDPCloseWithParkedWatcher(t *testing.T) {
	s, err := NewUDPServer("127.0.0.1", 39124, 2)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	bell := ring.NewDoorbell()
	s.SetRxBell(0, bell)
	bell.Arm()
	s.Recv(0, make([]Frame, 1)) // hands queue 0 to its watcher
	time.Sleep(silence)         // which is now parked in the netpoller
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(prompt):
		t.Fatal("Close did not return with one watcher parked on its doorbell and one in the netpoller")
	}
}

func TestUDPClientRecvParksUntilReplyOrDeadline(t *testing.T) {
	const port = 39128
	s, err := NewUDPServer("127.0.0.1", port, 1)
	if err != nil {
		t.Skipf("cannot bind UDP: %v", err)
	}
	defer s.Close()
	c, err := NewUDPClient("127.0.0.1", port)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Learn the client's endpoint from a request.
	c.Send(0, mem.Static([]byte("hello")))
	out := make([]Frame, 1)
	for deadline := time.Now().Add(prompt); s.Recv(0, out) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request never arrived")
		}
	}
	src := out[0].Src
	out[0].Release()

	data, ok, took := recvAfterSilence(t, c, func() { s.Send(0, src, mem.Static([]byte("reply"))) })
	if !ok || data != "reply" || took > prompt {
		t.Fatalf("parked Recv = %q ok=%v, %v after the reply was sent", data, ok, took)
	}
	start := time.Now()
	if _, ok := c.Recv(make([]byte, 64), 30*time.Millisecond); ok {
		t.Fatal("Recv invented a datagram")
	}
	if waited := time.Since(start); waited < 30*time.Millisecond || waited > prompt {
		t.Fatalf("an empty Recv with a 30 ms timeout returned after %v", waited)
	}
}

// Without a raw descriptor path (off Linux) the watcher cannot wait in the
// netpoller: it tells the parked core to look once a millisecond, and close
// must reach it between two looks even if the core never disarms.
func TestRxWakerWithoutRawPath(t *testing.T) {
	k := newRxWaker([]*rawUDP{nil})
	bell := ring.NewDoorbell()
	k.steer(0, bell)
	bell.Arm()
	k.emptyPoll(0)
	select {
	case <-bell.C():
	case <-time.After(prompt):
		t.Fatal("the armed bell was never rung")
	}
	bell.Arm() // parked again, for good
	k.emptyPoll(0)
	done := make(chan struct{})
	go func() { k.close(); close(done) }()
	select {
	case <-done:
	case <-time.After(prompt):
		t.Fatal("close did not return with the bell armed")
	}
}
