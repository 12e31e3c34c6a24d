package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// replayState collects a Replay pass into maps for assertions.
type replayState struct {
	vals    map[string]string
	expires map[string]int64
	n       uint64
}

func collect(t *testing.T, l *Log) (replayState, ReplayResult) {
	t.Helper()
	st := replayState{vals: map[string]string{}, expires: map[string]int64{}}
	res, err := l.Replay(func(op byte, key, value []byte, expire int64) {
		st.n++
		switch op {
		case OpPut:
			st.vals[string(key)] = string(value)
			st.expires[string(key)] = expire
		case OpDelete:
			delete(st.vals, string(key))
			delete(st.expires, string(key))
		default:
			t.Fatalf("replay: unknown op %d", op)
		}
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return st, res
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func startLog(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l := mustOpen(t, dir, opts)
	if _, err := l.Replay(func(byte, []byte, []byte, int64) {}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := l.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return l
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{})
	l.AppendPut([]byte("alpha"), []byte("1"), 0)
	l.AppendPut([]byte("beta"), []byte("2"), 0)
	l.AppendPut([]byte("alpha"), []byte("1b"), 0) // replace
	l.AppendDelete([]byte("beta"))
	l.AppendPut([]byte("gamma"), []byte("3"), 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, dir, Options{})
	st, res := collect(t, l2)
	if res.Corrupt {
		t.Fatalf("clean shutdown replayed as corrupt: %+v", res)
	}
	if st.n != 5 {
		t.Fatalf("replayed %d records, want 5", st.n)
	}
	want := map[string]string{"alpha": "1b", "gamma": "3"}
	if len(st.vals) != len(want) {
		t.Fatalf("state = %v, want %v", st.vals, want)
	}
	for k, v := range want {
		if st.vals[k] != v {
			t.Fatalf("key %q = %q, want %q", k, st.vals[k], v)
		}
	}
}

func TestWALExpireRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{})
	deadline := time.Now().Add(time.Hour).UnixNano()
	l.AppendPut([]byte("ttl"), []byte("v"), deadline)
	l.AppendPut([]byte("immortal"), []byte("v"), 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, _ := collect(t, mustOpen(t, dir, Options{}))
	if st.expires["ttl"] != deadline {
		t.Fatalf("expire = %d, want %d (absolute instants must survive restart verbatim)", st.expires["ttl"], deadline)
	}
	if st.expires["immortal"] != 0 {
		t.Fatalf("immortal item gained an expiry: %d", st.expires["immortal"])
	}
}

func TestWALSyncIsDurabilityBarrier(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{Fsync: FsyncOS})
	for i := 0; i < 100; i++ {
		l.AppendPut([]byte(fmt.Sprintf("k%03d", i)), []byte("v"), 0)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Everything before the barrier survives even an abrupt kill.
	for i := 0; i < 50; i++ {
		l.AppendPut([]byte(fmt.Sprintf("late%03d", i)), []byte("v"), 0)
	}
	l.Abandon()

	st, res := collect(t, mustOpen(t, dir, Options{}))
	for i := 0; i < 100; i++ {
		if _, ok := st.vals[fmt.Sprintf("k%03d", i)]; !ok {
			t.Fatalf("synced key k%03d lost after Abandon", i)
		}
	}
	// The late appends may or may not have been drained — but whatever
	// was replayed must be a clean prefix, never garbage.
	if res.Corrupt {
		t.Fatalf("Abandon after Sync produced corrupt replay: %+v", res)
	}
}

func TestWALSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so compaction has files to delete.
	l := startLog(t, dir, Options{SegmentBytes: 1 << 10})
	state := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key%04d", i), fmt.Sprintf("val%04d", i)
		l.AppendPut([]byte(k), []byte(v), 0)
		state[k] = v
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	before := countFiles(t, dir, "wal.")
	if before < 3 {
		t.Fatalf("expected several segments before compaction, got %d", before)
	}
	err := l.Snapshot(func(emit func(key, value []byte, expire int64) bool) {
		for k, v := range state {
			if !emit([]byte(k), []byte(v), 0) {
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := countFiles(t, dir, "wal."); got != 1 {
		t.Fatalf("%d segments after compaction, want exactly the active one", got)
	}
	if got := countFiles(t, dir, "snapshot."); got != 1 {
		t.Fatalf("%d snapshots after compaction, want 1", got)
	}
	// Mutations after the snapshot land in the retained segment.
	l.AppendPut([]byte("post"), []byte("snap"), 0)
	l.AppendDelete([]byte("key0000"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, res := collect(t, mustOpen(t, dir, Options{}))
	if res.SnapshotSeq == 0 {
		t.Fatalf("replay ignored the snapshot: %+v", res)
	}
	if st.vals["post"] != "snap" {
		t.Fatalf("post-snapshot put lost")
	}
	if _, ok := st.vals["key0000"]; ok {
		t.Fatalf("post-snapshot delete lost")
	}
	for k, v := range state {
		if k == "key0000" {
			continue
		}
		if st.vals[k] != v {
			t.Fatalf("key %q = %q, want %q", k, st.vals[k], v)
		}
	}
}

func TestWALSnapshotWhileAppending(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{SegmentBytes: 64 << 10, Fsync: FsyncOS})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.AppendPut([]byte(fmt.Sprintf("live%05d", i%500)), []byte("x"), 0)
			if i%128 == 0 {
				time.Sleep(50 * time.Microsecond) // sustained, not saturating
			}
		}
	}()
	for i := 0; i < 5; i++ {
		err := l.Snapshot(func(emit func(key, value []byte, expire int64) bool) {
			emit([]byte("snapkey"), []byte("snapval"), 0)
		})
		if err != nil {
			t.Fatalf("Snapshot %d under load: %v", i, err)
		}
	}
	close(stop)
	<-done
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, res := collect(t, mustOpen(t, dir, Options{})); res.Corrupt {
		t.Fatalf("snapshot under load produced corrupt log: %+v", res)
	}
}

func TestWALLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{})
	if _, err := l.Replay(func(byte, []byte, []byte, int64) {}); err == nil {
		t.Fatalf("Replay after Start should fail")
	}
	if err := l.Start(); err == nil {
		t.Fatalf("double Start should fail")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Appends after Close are dropped, not wedged.
	l.AppendPut([]byte("late"), []byte("x"), 0)
	if err := l.Sync(); err == nil {
		t.Fatalf("Sync after Close should fail")
	}
}

func TestWALStats(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 10; i++ {
		l.AppendPut([]byte("k"), []byte("v"), 0)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st := l.Stats()
	if st.Appended != 10 || st.Written != 10 {
		t.Fatalf("appended/written = %d/%d, want 10/10", st.Appended, st.Written)
	}
	if st.LagBytes != 0 {
		t.Fatalf("lag %d after Sync, want 0", st.LagBytes)
	}
	if st.Fsyncs == 0 {
		t.Fatalf("FsyncAlways recorded no fsyncs")
	}
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want 1", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, dir, Options{})
	if _, res := collect(t, l2); res.Records != 10 {
		t.Fatalf("replayed %d, want 10", res.Records)
	}
	if got := l2.Stats().Replayed; got != 10 {
		t.Fatalf("Stats.Replayed = %d, want 10", got)
	}
}

func countFiles(t *testing.T, dir, prefix string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	n := 0
	for _, e := range ents {
		if len(e.Name()) >= len(prefix) && e.Name()[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

func TestWALAbandonedTailIsHealedByNextBoot(t *testing.T) {
	// An abandoned log leaves a segment without a clean close; the next
	// boot must replay it and append to a FRESH segment, never the old
	// file (appending past a torn tail would bury valid records behind
	// garbage).
	dir := t.TempDir()
	l := startLog(t, dir, Options{})
	l.AppendPut([]byte("survivor"), []byte("v"), 0)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Abandon()

	l2 := startLog(t, dir, Options{})
	l2.AppendPut([]byte("second-boot"), []byte("v"), 0)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.log"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("want 2 segments (crashed + fresh), got %v (%v)", segs, err)
	}

	st, res := collect(t, mustOpen(t, dir, Options{}))
	if res.Corrupt {
		t.Fatalf("replay corrupt: %+v", res)
	}
	if st.vals["survivor"] != "v" || st.vals["second-boot"] != "v" {
		t.Fatalf("state across two boots = %v", st.vals)
	}
}

// TestWriterDoesNotPinWrittenRecords: the writer's batch array outlives
// each batch, and used to keep its last 256 records reachable. One oversize
// record (heap-backed, not pooled) makes that visible: once it is on disk
// the collector must be able to take it back.
func TestWriterDoesNotPinWrittenRecords(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const size = 8 << 20
	value := make([]byte, size)
	before := heap()
	l.AppendPut([]byte("big"), value, 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if grew := int64(heap()) - int64(before); grew > size/2 {
		t.Fatalf("the heap holds %d bytes more after a %d byte record was written and synced: the writer still references it", grew, size)
	}
	runtime.KeepAlive(value)
}
