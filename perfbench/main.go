// Command perfbench is the repository benchmark. It runs one named
// workload against in-process MinBFT and PBFT groups (f=1) built through
// the library's public constructors, checks every answer the groups gave,
// and prints one JSON result line:
//
//	perfbench --workload write-paced --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// every registry, tracer and wrapper off. With --trace 1 it holds the
// per-layer metrics of an instrumented run. See README.md for the
// workloads and what each metric is expected to move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/simnet"
	"unidir/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() error {
	name := flag.String("workload", "", "workload: write-paced, read-mostly or failover")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds, shared by the workload's arms")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	if err := envGuard(os.Environ()); err != nil {
		return err
	}
	// One P, whatever the host. On a 2-vCPU host the figures with two Ps
	// were bimodal from one arm to the next (p99 12 or 21 ms, CPU per op
	// 145 or 110 µs, with the generator running late in the slow mode), as
	// if the second vCPU came and went; with one P the bimodality is gone.
	// See README.md.
	runtime.GOMAXPROCS(1)
	fp, err := json.Marshal(fingerprint(w.name, *seed, *seconds, *trace))
	if err != nil {
		return err
	}
	fmt.Printf("{\"fingerprint\": %s}\n", fp)

	total := time.Duration(*seconds) * time.Second
	var res result
	var metrics map[string]float64
	var defs []metricDef
	if *trace == 0 {
		metrics, res.Attempted, res.Failed, err = runEndToEnd(w, *seed, total)
		defs = endToEnd
	} else {
		metrics, res.Attempted, res.Failed, err = runTraced(w, *seed, total)
		defs = perLayer
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res.Correct = true
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-34s %14.3f %s\n", d.name, metrics[d.name], d.unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// envGuard refuses to measure under UNIDIR_* knobs: the library reads them
// at run time and they would silently change what is measured.
func envGuard(env []string) error {
	var set []string
	for _, kv := range env {
		if strings.HasPrefix(kv, "UNIDIR_") {
			set = append(set, strings.SplitN(kv, "=", 2)[0])
		}
	}
	if len(set) > 0 {
		return fmt.Errorf("refusing to run with %s set: unset every UNIDIR_* variable", strings.Join(set, ", "))
	}
	return nil
}

// fingerprint identifies the host, toolchain, code and input of a result.
func fingerprint(workload string, seed int64, seconds, trace int) map[string]any {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
	}
}

// sourceDigest hashes every Go source and module file under root, so a
// result taken outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runEndToEnd measures each protocol for an equal share of the run.
func runEndToEnd(w workload, seed int64, total time.Duration) (map[string]float64, int, int, error) {
	window := total / time.Duration(len(protocols))
	var arms []armResult
	attempted, failed := 0, 0
	for _, p := range protocols {
		a, err := runArm(w, p, false, seed, window, setupReps, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		arms = append(arms, a)
		attempted += a.attempted
		failed += a.failed
	}
	return endToEndMetrics(arms), attempted, failed, nil
}

// runTraced runs every arm twice on the same schedule, plain and then
// instrumented, so trace.overhead_pct compares like with like; the
// request latencies come from the plain half. On a workload with tcpArm,
// a third, instrumented arm per protocol runs over tcpnet and reports the
// P.tcpnet.* metrics.
func runTraced(w workload, seed int64, total time.Duration) (map[string]float64, int, int, error) {
	arms := 2
	if w.tcpArm {
		arms = 3
	}
	window := total / time.Duration(arms*len(protocols))
	m := map[string]float64{}
	attempted, failed := 0, 0
	hop, err := calibrateHop()
	if err != nil {
		return nil, 0, 0, err
	}
	m["net.hop_us_p50"] = us(hop)
	for _, p := range protocols {
		plain, err := runArm(w, p, false, seed, window, 1, nil)
		if err != nil {
			return nil, 0, 0, err
		}
		traced, err := runArm(w, p, false, seed, window, 1, newInstruments())
		if err != nil {
			return nil, 0, 0, err
		}
		for k, v := range traced.layers {
			m[k] = v
		}
		P := p.String()
		m[P+".trace.overhead_pct"] = 100 * ratio(us(traced.p50-plain.p50), us(plain.p50))
		m[P+".p99_us"] = us(plain.p99)
		writes, reads := plain.latencies(writeRec), plain.latencies(readRec)
		m[P+".write_p50_us"] = us(quantile(writes, 0.5))
		m[P+".write_p99_us"] = us(quantile(writes, 0.99))
		m[P+".read_p50_us"] = us(quantile(reads, 0.5))
		m[P+".read_p99_us"] = us(quantile(reads, 0.99))
		if p == cluster.MinBFT {
			m["minbft.failover.unavail_ms"] = float64(plain.unavail) / float64(time.Millisecond)
		}
		attempted += plain.attempted + traced.attempted
		failed += plain.failed + traced.failed
		if !w.tcpArm {
			continue
		}
		tcp, err := runArm(w, p, true, seed, window, 1, newInstruments())
		if err != nil {
			return nil, 0, 0, fmt.Errorf("over tcpnet: %w", err)
		}
		for k, v := range tcp.layers {
			if strings.HasPrefix(k, P+".tcpnet.") {
				m[k] = v
			}
		}
		attempted += tcp.attempted
		failed += tcp.failed
	}
	return m, attempted, failed, nil
}

// calibrateHop measures simnet's one-way delivery time for the injected
// linkDelay: timer granularity stretches every hop past its nominal delay.
func calibrateHop() (time.Duration, error) {
	m, err := types.NewMembership(2, 0)
	if err != nil {
		return 0, err
	}
	net, err := simnet.New(m)
	if err != nil {
		return 0, err
	}
	defer net.Close()
	net.SetLinkDelay(0, 1, linkDelay)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hops := make([]time.Duration, 200)
	for i := range hops {
		t0 := time.Now()
		if err := net.Endpoint(0).Send(1, []byte{byte(i)}); err != nil {
			return 0, err
		}
		if _, err := net.Endpoint(1).Recv(ctx); err != nil {
			return 0, fmt.Errorf("calibration: %w", err)
		}
		hops[i] = time.Since(t0)
	}
	return quantile(hops, 0.5), nil
}
