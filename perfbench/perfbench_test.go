package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// plainTransport implements only transport.Transport.
type plainTransport struct {
	transport.Transport
	sent int
}

func (t *plainTransport) Send(types.ProcessID, []byte) error { t.sent++; return nil }

// richTransport also carries trace contexts and exposes queue depths, like
// tcpnet.
type richTransport struct {
	plainTransport
	traced []tracing.Context
}

func (t *richTransport) SendTraced(_ types.ProcessID, _ []byte, tc tracing.Context) error {
	t.traced = append(t.traced, tc)
	return nil
}

func (t *richTransport) QueueDepth(to types.ProcessID) int { return 40 + int(to) }

// TestWrappersForwardOptionalInterfaces checks that the traced run's
// wrappers keep every optional interface the protocols type-assert: a lost
// TraceSender silently stops trace propagation, a lost QueueDepther stops
// proposal pacing, a lost Snapshotter stops checkpoints and a lost Querier
// stops leased reads. A wrapper must not add QueueDepth either, or pacing
// would switch on over simnet.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	in := newInstruments()
	tc := tracing.Context{Trace: tracing.TraceID{1}, Span: tracing.SpanID{2}, Sampled: true}

	rich := &richTransport{}
	w := in.wrapTransport(rich)
	if _, ok := w.(transport.TraceSender); !ok {
		t.Fatal("wrapped transport lost TraceSender")
	}
	qd, ok := w.(transport.QueueDepther)
	if !ok {
		t.Fatal("wrapped transport lost QueueDepther")
	}
	if got := qd.QueueDepth(2); got != 42 {
		t.Fatalf("QueueDepth(2) = %d, want the inner transport's 42", got)
	}
	if err := transport.SendTraced(w, 1, []byte("abc"), tc); err != nil {
		t.Fatal(err)
	}
	if len(rich.traced) != 1 || rich.traced[0] != tc || rich.sent != 0 {
		t.Fatalf("trace context not forwarded: traced=%v plain sends=%d", rich.traced, rich.sent)
	}

	plain := &plainTransport{}
	w = in.wrapTransport(plain)
	if _, ok := w.(transport.QueueDepther); ok {
		t.Fatal("wrapper added QueueDepther to a transport without one")
	}
	if err := transport.SendTraced(w, 1, []byte("abcd"), tc); err != nil {
		t.Fatal(err)
	}
	if plain.sent != 1 {
		t.Fatalf("traced send over a transport without TraceSender: %d plain sends, want 1", plain.sent)
	}
	if in.msgs.Load() != 2 || in.bytes.Load() != 7 {
		t.Fatalf("counted %d msgs, %d bytes; want 2, 7", in.msgs.Load(), in.bytes.Load())
	}

	st := kvstore.New()
	sm := in.wrapSM(st)
	snap, ok := sm.(smr.Snapshotter)
	if !ok {
		t.Fatal("wrapped state machine lost Snapshotter")
	}
	q, ok := sm.(smr.Querier)
	if !ok {
		t.Fatal("wrapped state machine lost Querier")
	}
	sm.Apply(kvstore.EncodePut("k", []byte("v")))
	if got := string(q.Query(kvstore.EncodeGet("k"))); got != "\x00v" {
		t.Fatalf("Query = %q", got)
	}
	saved := snap.Snapshot()
	sm.Apply(kvstore.EncodePut("k", []byte("w")))
	if err := snap.Restore(saved); err != nil {
		t.Fatal(err)
	}
	if got := string(st.Query(kvstore.EncodeGet("k"))); got != "\x00v" {
		t.Fatalf("Restore did not reach the store: %q", got)
	}
}

// TestTrackerChecks drives the answer checks with stale, invented and lost
// values.
func TestTrackerChecks(t *testing.T) {
	tr := newTracker()
	now := time.Now()
	tr.start = now
	get := func(k int, ver uint64) []byte { return append([]byte{0}, valueFor(k, ver)...) }

	tr.keys[5] = keyState{issued: 3, acked: 2}
	tr.readDone(5, 2, now, get(5, 3), nil) // the write in flight: fine
	tr.readDone(5, 2, now, get(5, 2), nil) // the acknowledged one: fine
	if err := tr.err(); err != nil {
		t.Fatalf("valid reads flagged: %v", err)
	}
	tr.readDone(5, 2, now, get(5, 1), nil)
	if err := tr.err(); err == nil || !strings.Contains(err.Error(), "stale read") {
		t.Fatalf("stale read not flagged: %v", err)
	}

	tr = newTracker()
	tr.keys[5] = keyState{issued: 3, acked: 2}
	tr.readDone(5, 0, now, get(5, 4), nil)
	if err := tr.err(); err == nil || !strings.Contains(err.Error(), "never written") {
		t.Fatalf("invented value not flagged: %v", err)
	}
	tr.readDone(5, 0, now, get(6, 1), nil)
	if err := tr.err(); err == nil || !strings.Contains(err.Error(), "key 6") {
		t.Fatalf("another key's value not flagged: %v", err)
	}

	tr.keys[7] = keyState{issued: 4, acked: 2, unknown: []uint64{3, 4}}
	if err := tr.checkFinal(7, valueFor(7, 4)); err != nil {
		t.Fatalf("write with unknown outcome rejected: %v", err)
	}
	if err := tr.checkFinal(7, valueFor(7, 1)); err == nil {
		t.Fatal("lost acknowledged write not flagged")
	}
}

func TestEnvGuard(t *testing.T) {
	if err := envGuard([]string{"HOME=/x", "GOMAXPROCS=2"}); err != nil {
		t.Fatal(err)
	}
	err := envGuard([]string{"UNIDIR_BATCH=1", "UNIDIR_CKPT=off"})
	if err == nil || !strings.Contains(err.Error(), "UNIDIR_BATCH, UNIDIR_CKPT") {
		t.Fatalf("knobs not refused: %v", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metric catalogue the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q unknown to the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestMeanCountsFailures checks that a failed request can only raise the
// gated mean.
func TestMeanCountsFailures(t *testing.T) {
	ok := []rec{{lat: 2 * time.Millisecond}, {lat: 4 * time.Millisecond}}
	if got := meanLatency(ok); got != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", got)
	}
	withFailure := append(ok, rec{lat: inf})
	if got, want := meanLatency(withFailure), (6*time.Millisecond+failPenalty)/3; got != want {
		t.Fatalf("mean with a failure = %v, want %v", got, want)
	}
}

// TestCheckApplies drives the dedup check: exactly n applies per write
// without a crash, between live and n per write with one.
func TestCheckApplies(t *testing.T) {
	for _, c := range []struct {
		applies              uint64
		n, live, acked, sent int
		ok                   bool
	}{
		{300, 3, 3, 100, 100, true},
		{301, 3, 3, 100, 100, false}, // a write applied twice
		{299, 3, 3, 100, 100, false}, // a replica missed one
		{240, 3, 2, 100, 100, true},  // crashed 40% in
		{200, 3, 2, 100, 100, true},  // crashed before the window
		{199, 3, 2, 100, 100, false},
		{302, 3, 3, 100, 101, true}, // a failed write applied on two replicas
	} {
		if err := checkApplies(c.applies, c.n, c.live, c.acked, c.sent); (err == nil) != c.ok {
			t.Errorf("checkApplies(%d, n=%d, live=%d, acked=%d, sent=%d) = %v, want ok=%v",
				c.applies, c.n, c.live, c.acked, c.sent, err, c.ok)
		}
	}
}
