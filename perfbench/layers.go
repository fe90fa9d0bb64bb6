package main

// The traced run's instruments and the per-layer metrics computed from
// them. The end-to-end run uses none of this: no registry, no tracer, no
// wrapper.

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/smr"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// spanBufCap holds every span of a traced arm: at the library's default
// 1-in-64 sampling an arm traces a few hundred requests, each a handful of
// spans per node.
const spanBufCap = 1 << 15

// instruments is everything a traced deployment reports through.
type instruments struct {
	reg  *obs.Registry
	bufs []*tracing.SpanBuffer

	msgs  atomic.Uint64 // every Send on every endpoint
	bytes atomic.Uint64
	sms   []*countingSM
}

func newInstruments() *instruments { return &instruments{reg: obs.NewRegistry()} }

func (in *instruments) newTracer(node string, rate int) *tracing.Tracer {
	buf := tracing.NewSpanBuffer(spanBufCap)
	in.bufs = append(in.bufs, buf)
	return tracing.NewTracer(node, rate, buf)
}

// replicaTracers records whatever a propagated context marks sampled.
func (in *instruments) replicaTracers(n int) []*tracing.Tracer {
	ts := make([]*tracing.Tracer, n)
	for i := range ts {
		ts[i] = in.newTracer(fmt.Sprintf("r%d", i), 1)
	}
	return ts
}

// clientTracer head-samples at the library's default rate.
func (in *instruments) clientTracer() *tracing.Tracer {
	return in.newTracer("client", tracing.DefaultSampleRate())
}

// countingTransport counts every message and payload byte an endpoint
// sends. It forwards transport.TraceSender always (through
// transport.SendTraced, which is what the protocols call) so trace contexts
// still propagate.
type countingTransport struct {
	transport.Transport
	in *instruments
}

func (t *countingTransport) Send(to types.ProcessID, payload []byte) error {
	t.in.msgs.Add(1)
	t.in.bytes.Add(uint64(len(payload)))
	return t.Transport.Send(to, payload)
}

func (t *countingTransport) SendTraced(to types.ProcessID, payload []byte, tc tracing.Context) error {
	t.in.msgs.Add(1)
	t.in.bytes.Add(uint64(len(payload)))
	return transport.SendTraced(t.Transport, to, payload, tc)
}

// queueCountingTransport is countingTransport over a transport that exposes
// queue depths, as tcpnet does. A separate type, because a wrapper that always
// answered QueueDepth would switch proposal pacing on over simnet, whose
// absence of queue depths the protocols rely on.
type queueCountingTransport struct {
	*countingTransport
	qd transport.QueueDepther
}

func (t *queueCountingTransport) QueueDepth(to types.ProcessID) int { return t.qd.QueueDepth(to) }

func (in *instruments) wrapTransport(tr transport.Transport) transport.Transport {
	ct := &countingTransport{Transport: tr, in: in}
	if qd, ok := tr.(transport.QueueDepther); ok {
		return &queueCountingTransport{countingTransport: ct, qd: qd}
	}
	return ct
}

// countingSM times the kvstore's Apply and Query and forwards the
// checkpoint (smr.Snapshotter) and leased-read (smr.Querier) hooks, without
// which the replicas would silently stop checkpointing and serving leased
// reads.
type countingSM struct {
	st               *kvstore.Store
	applies, applyNs atomic.Uint64
	queries, queryNs atomic.Uint64
}

var (
	_ smr.Snapshotter = (*countingSM)(nil)
	_ smr.Querier     = (*countingSM)(nil)
)

func (s *countingSM) Apply(cmd []byte) []byte {
	t0 := time.Now()
	r := s.st.Apply(cmd)
	s.applyNs.Add(uint64(time.Since(t0)))
	s.applies.Add(1)
	return r
}

func (s *countingSM) Query(cmd []byte) []byte {
	t0 := time.Now()
	r := s.st.Query(cmd)
	s.queryNs.Add(uint64(time.Since(t0)))
	s.queries.Add(1)
	return r
}

func (s *countingSM) Snapshot() []byte          { return s.st.Snapshot() }
func (s *countingSM) Restore(snap []byte) error { return s.st.Restore(snap) }

func (in *instruments) wrapSM(st *kvstore.Store) smr.StateMachine {
	sm := &countingSM{st: st}
	in.sms = append(in.sms, sm)
	return sm
}

// probe is a point-in-time reading of every counter an arm reports from.
type probe struct {
	cpu     time.Duration
	mem     runtime.MemStats
	reg     obs.Snapshot
	status  []obs.Status
	msgs    uint64
	bytes   uint64
	applies uint64
	applyNs uint64
	queries uint64
	queryNs uint64
}

func takeProbe(d *deployment) probe {
	p := probe{cpu: processCPU()}
	runtime.ReadMemStats(&p.mem)
	if in := d.inst; in != nil {
		p.reg = in.reg.Snapshot()
		for i := range d.group.Replicas {
			p.status = append(p.status, d.status(i))
		}
		p.msgs, p.bytes = in.msgs.Load(), in.bytes.Load()
		for _, sm := range in.sms {
			p.applies += sm.applies.Load()
			p.applyNs += sm.applyNs.Load()
			p.queries += sm.queries.Load()
			p.queryNs += sm.queryNs.Load()
		}
	}
	return p
}

// ratio is a/b, or 0 when b is 0 (the layer saw no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta is the growth of every series of base between two probes.
func counterDelta(a, b probe, base string) float64 {
	return float64(b.reg.CounterSum(base) - a.reg.CounterSum(base))
}

// histQuantile is the q-quantile of the observations of base made between
// two probes.
func histQuantile(a, b probe, base string, q float64) float64 {
	d := obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{}}
	for name, hb := range b.reg.Histograms {
		hs := obs.HistogramSnapshot{Bounds: hb.Bounds, Counts: append([]uint64(nil), hb.Counts...)}
		if ha, ok := a.reg.Histograms[name]; ok {
			for i := range hs.Counts {
				hs.Counts[i] -= ha.Counts[i]
			}
		}
		d.Histograms[name] = hs
	}
	v, _ := d.HistogramQuantile(base, q)
	return v
}

// phaseStats reduces the traced requests submitted inside the window to
// mean self time per phase, the median commit-quorum time, and the number
// of requests with a negative phase. tracing.Breakdown defines "other" as
// the latency the named phases leave over, so the phases sum to the
// client's latency by construction; a negative phase is how a span that
// overlaps or outlasts its request shows.
type phaseStats struct {
	requests  int
	mean      map[string]time.Duration
	commitP50 time.Duration
	negative  int
}

func tracePhases(in *instruments, from, to time.Time) phaseStats {
	spans := tracing.AlignClocks(tracing.Merge(in.bufs...))
	rootStart := make(map[tracing.TraceID]time.Time)
	for _, s := range spans {
		if s.Name == "client-submit" {
			rootStart[s.Trace] = s.Start
		}
	}
	ps := phaseStats{mean: map[string]time.Duration{}}
	var commits []time.Duration
	for _, bd := range tracing.Breakdown(spans) {
		if at := rootStart[bd.Trace]; at.Before(from) || !at.Before(to) {
			continue
		}
		ps.requests++
		neg := false
		for _, ph := range bd.Phases {
			neg = neg || ph.Dur < 0
			self := ph.Dur
			if ph.Name == "propose" {
				self -= bd.Attest
			}
			ps.mean[ph.Name] += self
			if ph.Name == "commit-quorum" {
				commits = append(commits, ph.Dur)
			}
		}
		if neg {
			ps.negative++
		}
		ps.mean["ui-attest"] += bd.Attest
	}
	if ps.requests > 0 {
		for k := range ps.mean {
			ps.mean[k] /= time.Duration(ps.requests)
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i] < commits[j] })
	if len(commits) > 0 {
		ps.commitP50 = commits[(len(commits)-1)/2]
	}
	return ps
}
