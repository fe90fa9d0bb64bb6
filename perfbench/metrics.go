package main

// Metric catalogue and the reduction of arm results to named metrics. The
// names, units and directions here are the ones BENCHMARK.json declares
// (perfbench_test.go keeps the two in step).

import (
	"fmt"
	"strings"
	"time"

	"unidir/internal/cluster"
)

type metricDef struct {
	name, unit, better string
}

// perProto expands a template over both protocols.
func perProto(defs ...metricDef) []metricDef {
	var out []metricDef
	for _, p := range protocols {
		for _, d := range defs {
			out = append(out, metricDef{p.String() + "." + d.name, d.unit, d.better})
		}
	}
	return out
}

// endToEnd are the metrics a user of the system sees, reported with
// --trace 0 on every workload. p50_us and mean_us cover every request the
// workload sends (writes, plus leased reads on read-mostly), timed from
// its due time. The mean stands in for p99 as the gated tail figure: it
// absorbs the same stalls, but over ten runs of one commit its spread was
// 2-8% where p99's was 6-32% (see README.md).
var endToEnd = append([]metricDef{{"setup_s", "s", "lower"}}, perProto(
	metricDef{"p50_us", "us", "lower"},
	metricDef{"mean_us", "us", "lower"},
	metricDef{"cpu_us_per_op", "us", "lower"},
)...)

// perLayer are reported with --trace 1 on every workload; a layer the
// workload does not exercise reports 0.
var perLayer = append(perProto(
	metricDef{"p99_us", "us", "lower"},
	metricDef{"gen.lag_us_p99", "us", "lower"},
	metricDef{"write_p50_us", "us", "lower"},
	metricDef{"write_p99_us", "us", "lower"},
	metricDef{"read_p50_us", "us", "lower"},
	metricDef{"read_p99_us", "us", "lower"},
	metricDef{"smr.submit_wait_us_p99", "us", "lower"},
	metricDef{"smr.sheds_per_kop", "1/kop", "lower"},
	metricDef{"smr.lease_read_ratio", "ratio", "higher"},
	metricDef{"smr.read_escalations", "count", "lower"},
	metricDef{"order.reqs_per_batch", "count", "higher"},
	metricDef{"order.batch_wait_us_p50", "us", "lower"},
	metricDef{"order.commit_us_p50", "us", "lower"},
	metricDef{"order.checkpoints_stable", "count", "lower"},
	metricDef{"order.view_changes", "count", "lower"},
	metricDef{"phase.batch_wait_us", "us", "lower"},
	metricDef{"phase.propose_us", "us", "lower"},
	metricDef{"phase.commit_quorum_us", "us", "lower"},
	metricDef{"phase.execute_us", "us", "lower"},
	metricDef{"phase.reply_us", "us", "lower"},
	metricDef{"phase.other_us", "us", "lower"},
	metricDef{"trace.requests", "count", "higher"},
	metricDef{"trace.overhead_pct", "%", "lower"},
	metricDef{"net.msgs_per_op", "count", "lower"},
	metricDef{"net.bytes_per_op", "B", "lower"},
	metricDef{"kv.apply_us_mean", "us", "lower"},
	metricDef{"kv.query_us_mean", "us", "lower"},
	metricDef{"kv.applies_per_op", "count", "lower"},
	metricDef{"cluster.build_s", "s", "lower"},
	metricDef{"warmup_s", "s", "lower"},
	metricDef{"proc.alloc_b_per_op", "B", "lower"},
	metricDef{"proc.gc_per_kop", "1/kop", "lower"},
	metricDef{"tcpnet.p50_us", "us", "lower"},
	metricDef{"tcpnet.cpu_us_per_op", "us", "lower"},
	metricDef{"tcpnet.msgs_per_op", "count", "lower"},
	metricDef{"tcpnet.bytes_per_op", "B", "lower"},
	metricDef{"tcpnet.frames_per_flush", "count", "higher"},
), []metricDef{
	{"minbft.phase.ui_attest_us", "us", "lower"},
	{"minbft.trusted.attests_per_op", "count", "lower"},
	{"minbft.sig.verifies_per_op", "count", "lower"},
	{"minbft.sig.cache_hit_ratio", "ratio", "higher"},
	{"minbft.failover.unavail_ms", "ms", "lower"},
	{"minbft.failover.detect_ms", "ms", "lower"},
	{"minbft.failover.vc_ms", "ms", "lower"},
	{"net.hop_us_p50", "us", "lower"},
}...)

// endToEndMetrics reduces a workload's arms to the end-to-end metrics.
func endToEndMetrics(arms []armResult) map[string]float64 {
	m := map[string]float64{}
	for _, a := range arms {
		m["setup_s"] += a.setup.Seconds()
		m[a.proto+".p50_us"] = us(a.p50)
		m[a.proto+".mean_us"] = us(a.mean)
		m[a.proto+".cpu_us_per_op"] = us(a.cpuPerOp)
	}
	return m
}

// armLayers computes one traced arm's per-layer metrics from the probes
// taken around its window. It fails when the window traced no request,
// when a traced request has a negative phase, or when the replicas applied
// the window's writes other than once each.
func armLayers(p cluster.Protocol, d *deployment, in *instruments, a *armResult,
	before, after probe, from, to time.Time, fo *failoverWatch) (map[string]float64, error) {
	P := p.String()
	ops := float64(a.completed)
	writes := float64(len(a.latencies(writeRec)))
	m := map[string]float64{}
	put := func(name string, v float64) { m[P+"."+name] = v }

	put("gen.lag_us_p99", us(quantile(a.lag, 0.99)))
	put("smr.submit_wait_us_p99", us(quantile(a.submit, 0.99)))
	put("smr.sheds_per_kop", ratio(1000*float64(a.sheds), float64(a.attempted)))
	put("smr.lease_read_ratio", ratio(counterDelta(before, after, "smr_leased_reads_total"),
		counterDelta(before, after, "smr_reads_completed_total")))
	put("smr.read_escalations", counterDelta(before, after, "smr_read_escalations_total"))

	put("order.reqs_per_batch", ratio(counterDelta(before, after, P+"_requests_executed_total"),
		counterDelta(before, after, P+"_batches_executed_total")))
	put("order.batch_wait_us_p50", 1e6*histQuantile(before, after, P+"_batch_wait_seconds", 0.5))
	live := float64(len(d.live()))
	put("order.checkpoints_stable", ratio(counterDelta(before, after, P+"_checkpoints_stable_total"), live))
	var views uint64
	for _, i := range d.live() {
		if v := after.status[i].View - before.status[i].View; v > views {
			views = v
		}
	}
	put("order.view_changes", float64(views))

	ph := tracePhases(in, from, to)
	if ph.requests == 0 {
		return nil, fmt.Errorf("no request traced in the window")
	}
	if ph.negative > 0 {
		return nil, fmt.Errorf("%d of %d traced requests have a negative phase", ph.negative, ph.requests)
	}
	put("trace.requests", float64(ph.requests))
	put("order.commit_us_p50", us(ph.commitP50))
	for _, name := range []string{"batch-wait", "propose", "commit-quorum", "execute", "reply", "other"} {
		put("phase."+strings.ReplaceAll(name, "-", "_")+"_us", us(ph.mean[name]))
	}

	put("net.msgs_per_op", ratio(float64(after.msgs-before.msgs), ops))
	put("net.bytes_per_op", ratio(float64(after.bytes-before.bytes), ops))

	put("kv.apply_us_mean", ratio(float64(after.applyNs-before.applyNs)/1e3, float64(after.applies-before.applies)))
	put("kv.query_us_mean", ratio(float64(after.queryNs-before.queryNs)/1e3, float64(after.queries-before.queries)))
	put("kv.applies_per_op", ratio(float64(after.applies-before.applies), writes))
	// A read escalated to the ordering path is applied like a write.
	acked := len(a.latencies(func(r rec) bool { return !r.read && r.lat != inf }))
	ordered := int(writes) + int(m[P+".smr.read_escalations"])
	if err := checkApplies(after.applies-before.applies, len(d.group.Replicas), len(d.live()),
		acked, ordered); err != nil {
		return nil, err
	}

	put("cluster.build_s", a.build.Seconds())
	put("warmup_s", a.warm.Seconds())
	put("proc.alloc_b_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops))
	put("proc.gc_per_kop", ratio(1000*float64(after.mem.NumGC-before.mem.NumGC), ops))

	if d.tcp != nil {
		put("tcpnet.p50_us", us(a.p50))
		put("tcpnet.cpu_us_per_op", us(a.cpuPerOp))
		put("tcpnet.msgs_per_op", m[P+".net.msgs_per_op"])
		put("tcpnet.bytes_per_op", m[P+".net.bytes_per_op"])
		put("tcpnet.frames_per_flush", ratio(counterDelta(before, after, "tcpnet_tx_frames_total"),
			float64(after.reg.HistogramCount("tcpnet_batch_frames")-before.reg.HistogramCount("tcpnet_batch_frames"))))
	}

	if p == cluster.MinBFT {
		put("phase.ui_attest_us", us(ph.mean["ui-attest"]))
		var attests uint64
		for i := range after.status {
			attests += after.status[i].TrustedCounters["usig"] - before.status[i].TrustedCounters["usig"]
		}
		put("trusted.attests_per_op", ratio(float64(attests), ops))
		put("sig.verifies_per_op", ratio(counterDelta(before, after, "sig_verifications_total"), ops))
		put("sig.cache_hit_ratio", ratio(counterDelta(before, after, "sig_cache_hits_total"),
			counterDelta(before, after, "sig_lookups_total")))
		if fo != nil {
			<-fo.done
			put("failover.detect_ms", float64(fo.detect)/float64(time.Millisecond))
			put("failover.vc_ms", float64(fo.vc)/float64(time.Millisecond))
		}
	}
	return m, nil
}

// checkApplies is the dedup check: every acknowledged write of the window
// must have been applied once on each live replica, and no ordered command
// more than once on any replica. applies counts Apply calls on all n
// replicas, live of them never crashed; sent commands were submitted for
// ordering, acked of them acknowledged writes. Without a crash, a failure
// or an escalated read the count is exactly n × sent.
func checkApplies(applies uint64, n, live, acked, sent int) error {
	lo, hi := uint64(live*acked), uint64(n*sent)
	if applies < lo || applies > hi {
		return fmt.Errorf("dedup: the replicas applied %d commands for %d ordered (%d writes acknowledged), want %d to %d",
			applies, sent, acked, lo, hi)
	}
	return nil
}
