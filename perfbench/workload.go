package main

// Workloads and the arm runner. An arm is one protocol's share of a
// workload: set up its group, drive the open-loop schedule through it,
// check the outcome, and reduce the measurements to metrics.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/types"
)

// workload is one traffic mix. Every workload runs both protocols, one
// after the other, each on its own freshly built group.
type workload struct {
	name      string
	rate      float64 // offered operations per second
	readShare float64 // share of operations that are leased reads
	// crash, when set, crashes one replica at crashAt of the window: the
	// view-0 primary for MinBFT (forcing a view change) and a backup for
	// PBFT, whose view is fixed at 0 so a primary crash would halt it.
	crash bool
	// tcpArm, when set, adds an instrumented arm per protocol over tcpnet
	// on loopback to the traced run, so the real transport is measured.
	tcpArm bool
}

const crashAt = 0.4

var workloads = map[string]workload{
	"write-paced": {name: "write-paced", rate: 3000, tcpArm: true},
	"read-mostly": {name: "read-mostly", rate: 6000, readShare: 0.9},
	"failover":    {name: "failover", rate: 1000, crash: true},
}

var protocols = []cluster.Protocol{cluster.MinBFT, cluster.PBFT}

// f is the fault bound throughout: MinBFT n=3, PBFT n=4.
const f = 1

// setupReps is how many times an end-to-end arm builds and warms its group;
// setup_s reports the median, and the last build is the one measured.
const setupReps = 3

// armResult is one arm's measurements.
type armResult struct {
	proto       string
	attempted   int
	failed      int
	completed   int
	sheds       int
	recs        []rec
	lag, submit []time.Duration
	p50, p99    time.Duration // over every request of the window
	mean        time.Duration // failed requests count as failPenalty each
	cpuPerOp    time.Duration // process CPU over the window per completed request
	setup       time.Duration // median over reps of build + warm-up
	build, warm time.Duration // medians
	unavail     time.Duration // crash → first acknowledged write sent after it
	layers      map[string]float64
}

// latencies returns the latencies of the selected requests.
func (a armResult) latencies(keep func(rec) bool) []time.Duration {
	var ds []time.Duration
	for _, r := range a.recs {
		if keep(r) {
			ds = append(ds, r.lat)
		}
	}
	return ds
}

func anyRec(rec) bool     { return true }
func readRec(r rec) bool  { return r.read }
func writeRec(r rec) bool { return !r.read }

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// armSeed gives each arm of a run its own schedule, fixed by the run seed.
func armSeed(seed int64, p cluster.Protocol) int64 { return seed*1000003 + int64(p) }

// armTimeout bounds one arm's set-up, drain and checks, so a wedged group
// fails the run well inside its time limit.
const armTimeout = 60 * time.Second

// failPenalty is what a failed or shed request adds to the mean latency.
// It stands in for "infinitely late" (which p50 and p99 use as is), so a
// failure can only make the mean worse.
const failPenalty = armTimeout

// meanLatency is the mean of every request's latency, a failed request
// counted as failPenalty.
func meanLatency(recs []rec) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range recs {
		l := r.lat
		if l == inf {
			l = failPenalty
		}
		sum += float64(l)
	}
	return time.Duration(sum / float64(len(recs)))
}

// runArm measures protocol p on workload w over window, on simnet or, with
// overTCP, on tcpnet. reps builds are timed; inst, when non-nil,
// instruments the measured deployment.
func runArm(w workload, p cluster.Protocol, overTCP bool, seed int64, window time.Duration, reps int, inst *instruments) (armResult, error) {
	res := armResult{proto: p.String()}
	ctx, cancel := context.WithTimeout(context.Background(), armTimeout)
	defer cancel()

	var d *deployment
	var setups, builds, warms []time.Duration
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		d, err = buildDeployment(p, overTCP, inst)
		if err != nil {
			return res, fmt.Errorf("%s: build: %w", p, err)
		}
		t1 := time.Now()
		if err := d.warm(ctx); err != nil {
			d.close()
			return res, fmt.Errorf("%s: %w", p, err)
		}
		t2 := time.Now()
		setups, builds, warms = append(setups, t2.Sub(t0)), append(builds, t1.Sub(t0)), append(warms, t2.Sub(t1))
		if r < reps-1 {
			d.close()
		}
	}
	defer d.close()
	res.setup, res.build, res.warm = median(setups), median(builds), median(warms)

	sched := makeSchedule(rand.New(rand.NewSource(armSeed(seed, p))), w.rate, w.readShare, window)
	t := newTracker()
	crashID := -1
	if w.crash {
		crashID = len(d.group.Replicas) - 1 // a PBFT backup
		if p == cluster.MinBFT {
			crashID = int(d.group.M.Leader(0))
		}
	}

	if inst != nil {
		// Per-replica counters must start from one execution watermark.
		if err := d.sameExec(ctx); err != nil {
			return res, fmt.Errorf("%s: after warm-up: %w", p, err)
		}
	}
	runtime.GC()
	before := takeProbe(d)
	var fo *failoverWatch
	crashed := make(chan struct{})
	if crashID < 0 {
		close(crashed)
	} else {
		if inst != nil && p == cluster.MinBFT {
			fo = &failoverWatch{done: make(chan struct{})}
		}
		timer := time.AfterFunc(time.Duration(crashAt*float64(window)), func() {
			defer close(crashed)
			now := time.Now()
			t.mu.Lock()
			t.crashAt = now
			t.mu.Unlock()
			if fo != nil {
				go fo.watch(d, crashID, now)
			}
			d.crash(crashID)
		})
		defer timer.Stop()
	}
	start := time.Now()
	wait := drive(ctx, d.kv, sched, t, start)
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		_ = d.pipe.Close() // fails the stragglers
		<-done
		return res, fmt.Errorf("%s: requests still outstanding at the deadline", p)
	}
	<-crashed
	if inst != nil {
		// Per-replica counters must cover the same requests.
		if err := d.sameExec(ctx); err != nil {
			return res, fmt.Errorf("%s: after the window: %w", p, err)
		}
	}
	after := takeProbe(d)

	if err := t.err(); err != nil {
		return res, fmt.Errorf("%s: %w", p, err)
	}
	if err := d.verify(ctx, t, w.crash && p == cluster.MinBFT); err != nil {
		return res, fmt.Errorf("%s: %w", p, err)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	res.attempted = len(sched.at)
	res.failed = t.failed
	res.sheds = t.sheds
	res.recs = t.recs
	res.lag, res.submit = t.lag, t.submit
	res.completed = res.attempted - res.failed
	all := res.latencies(anyRec)
	res.p50, res.p99 = quantile(all, 0.5), quantile(all, 0.99)
	res.mean = meanLatency(t.recs)
	if res.completed > 0 {
		res.cpuPerOp = (after.cpu - before.cpu) / time.Duration(res.completed)
	}
	if !t.crashAt.IsZero() && !t.firstAfter.IsZero() {
		res.unavail = t.firstAfter.Sub(t.crashAt)
	}
	if inst != nil {
		var err error
		if res.layers, err = armLayers(p, d, inst, &res, before, after, start, start.Add(window), fo); err != nil {
			return res, fmt.Errorf("%s: %w", p, err)
		}
	}
	return res, nil
}

// failoverWatch polls the surviving replicas after a crash: detect is when
// the first of them starts a view change, vc when all of them are ready in
// a later view.
type failoverWatch struct {
	done       chan struct{}
	detect, vc time.Duration
}

func (fw *failoverWatch) watch(d *deployment, crashed int, crash time.Time) {
	type viewer interface {
		ReadyReason() (bool, string)
		View() types.View
	}
	defer close(fw.done)
	for time.Since(crash) < 10*time.Second {
		allMoved := true
		for i, r := range d.group.Replicas {
			if i == crashed {
				continue
			}
			ready, _ := r.(viewer).ReadyReason()
			moved := r.(viewer).View() > 0
			if fw.detect == 0 && (!ready || moved) {
				fw.detect = time.Since(crash)
			}
			allMoved = allMoved && ready && moved
		}
		if allMoved {
			fw.vc = time.Since(crash)
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}
