package main

import (
	"runtime"
	"time"

	"github.com/minoskv/minos/internal/client"
	"github.com/minoskv/minos/internal/core"
	"github.com/minoskv/minos/internal/kv"
	"github.com/minoskv/minos/internal/mem"
	"github.com/minoskv/minos/internal/nic"
	"github.com/minoskv/minos/internal/ring"
	"github.com/minoskv/minos/internal/stats"
	"github.com/minoskv/minos/internal/wire"
	"github.com/minoskv/minos/internal/workload"
)

// The probes time single calls that are too short for a span of their
// own (a clock read costs as much as they do): each sample times a
// batch of calls and divides.

// probeNs returns the median cost in ns of one fn call over samples
// batches of batch calls each.
func probeNs(samples, batch int, fn func()) float64 {
	per := make([]float64, samples)
	for i := range per {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		per[i] = float64(time.Since(start)) / float64(batch)
	}
	return median(per)
}

func probeLease(samples int) float64 {
	return probeNs(samples, 64, func() { mem.Lease(wire.MTU).Release() })
}

func probeHistogramRecord(samples int) float64 {
	h := stats.NewLatencyHistogram()
	v := int64(1000)
	return probeNs(samples, 64, func() {
		h.Record(v)
		v += 997
	})
}

func probeRingHop(samples int) float64 {
	q := ring.NewMPMC[*wire.Message](64)
	m := new(wire.Message)
	return probeNs(samples, 64, func() {
		q.Enqueue(m)
		q.Dequeue()
	})
}

// probeDelete times kv.Store.Delete on resident keys, putting each one
// back (untimed) so the store leaves as it came.
func probeDelete(store *kv.Store, l *load, samples int) float64 {
	per := make([]float64, 0, samples)
	var key []byte
	for id := uint64(0); len(per) < samples && id < uint64(l.cat.NumKeys()); id++ {
		key = kv.AppendKeyForID(key[:0], id)
		start := time.Now()
		deleted := store.Delete(key)
		took := time.Since(start)
		if deleted {
			per = append(per, float64(took))
			store.Put(key, l.filler[:l.cat.Size(id)])
		}
	}
	return median(per)
}

// probeEpoch times one controller epoch over a size histogram shaped
// like n requests of the workload's stream.
func probeEpoch(cat *workload.Catalog, seed int64, n, samples int) float64 {
	ctrl, err := core.NewController(core.Config{Cores: serverCores})
	if err != nil {
		return 0
	}
	gen := workload.NewGenerator(cat, seed+1)
	sizes := ctrl.NewSizeHistogram()
	for i := 0; i < n; i++ {
		sizes.Record(int64(gen.Next().Size))
	}
	return probeNs(samples, 1, func() { ctrl.Epoch(sizes) })
}

// probeUDPSendBatch times a 32-datagram SendBatch of smallest frames on
// a loopback UDP socket, per datagram: the call sendmmsg would replace.
func probeUDPSendBatch(port, samples int) float64 {
	cli, err := nic.NewUDPClient("127.0.0.1", port)
	if err != nil {
		return 0
	}
	defer cli.Close()
	// An op the server counts as a bad frame and drops: the probe must
	// not touch the store or draw replies.
	msg := wire.Message{Op: wire.OpErrorReply, Key: make([]byte, workload.KeySize)}
	var tx []*mem.Buf
	return probeNs(samples, 1, func() {
		tx = tx[:0]
		for i := 0; i < 32; i++ {
			tx = msg.LeaseFrames(tx)
		}
		cli.SendBatch(0, tx)
	}) / 32
}

// Large values over loopback UDP: nothing sizes the socket buffers, so
// a 64 KB reply's burst of fragments overruns them and the request
// never completes. The probe stores a few such values, asks for them 8
// at a time with a 50 ms deadline, and reports the share that never
// came back. It is why udp-small has no large items.
const fragProbeValue = 64 << 10

func probeUDPFragLoss(e *datapath, dur time.Duration) float64 {
	const keys, depth = 16, 8
	value := make([]byte, fragProbeValue)
	base := uint64(e.cat.NumKeys())
	for i := uint64(0); i < keys; i++ {
		e.srv.Store().Put(kv.KeyForID(base+i), value)
	}
	cli, err := nic.NewUDPClient("127.0.0.1", e.udpPort)
	if err != nil {
		return 0
	}
	defer cli.Close()
	pipe := client.NewPipeline(cli, serverCores, client.PipelineConfig{Window: depth, Timeout: 50 * time.Millisecond})
	defer pipe.Close()

	var calls [depth]*client.Call
	var asked, lost int
	for end, next := time.Now().Add(dur), uint64(0); ; {
		busy := 0
		for i, c := range calls {
			if c != nil {
				select {
				case <-c.Done():
					if v, err := c.Value(); err != nil || len(v) != fragProbeValue {
						lost++
					}
					calls[i] = nil
				default:
					busy++
					continue
				}
			}
			if time.Now().Before(end) {
				calls[i] = pipe.GetAsync(kv.KeyForID(base + next%keys))
				next++
				asked++
				busy++
			}
		}
		if busy == 0 {
			break
		}
		runtime.Gosched()
	}
	if asked == 0 {
		return 0
	}
	return float64(lost) / float64(asked)
}
