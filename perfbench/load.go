package main

// The open-loop load: a seeded schedule of due times, keys and operation
// kinds, one generator goroutine that submits each operation when it falls
// due, and a tracker that times every request from its due time and checks
// what the cluster answered.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"unidir/internal/kvstore"
	"unidir/internal/smr"
)

const (
	numKeys  = 4096
	valueLen = 64
)

// keyName is key k as a 16-byte string.
func keyName(k int) string { return fmt.Sprintf("key-%012d", k) }

// valueFor encodes (key, version) into a 64-byte value, so a read can tell
// exactly which write produced what it returned.
func valueFor(k int, ver uint64) []byte {
	v := fmt.Sprintf("%08x:%016x:", k, ver)
	b := make([]byte, valueLen)
	copy(b, v)
	for i := len(v); i < valueLen; i++ {
		b[i] = 'a' + byte((k+int(ver)+i)%26)
	}
	return b
}

// parseValue inverts valueFor.
func parseValue(b []byte) (k int, ver uint64, err error) {
	if len(b) != valueLen || b[8] != ':' || b[25] != ':' {
		return 0, 0, fmt.Errorf("malformed value %q", b)
	}
	k64, err := strconv.ParseUint(string(b[:8]), 16, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed value %q", b)
	}
	ver, err = strconv.ParseUint(string(b[9:25]), 16, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("malformed value %q", b)
	}
	return int(k64), ver, nil
}

// schedule is one arm's precomputed open-loop input: every operation's due
// time (offset from the window start), kind, key and, for writes, the
// version it installs.
type schedule struct {
	at   []time.Duration
	read []bool
	key  []int
	ver  []uint64
}

// makeSchedule draws Poisson arrivals at rate ops/s for window, a readShare
// of them leased reads on uniformly drawn keys and the rest writes that walk
// a seeded permutation of the keyspace. Walking a permutation keeps each
// key's consecutive writes numKeys writes apart, so at the workloads' rates a
// key never has two writes in flight. Versions continue from the preload's
// version 0.
func makeSchedule(rng *rand.Rand, rate float64, readShare float64, window time.Duration) schedule {
	var s schedule
	perm := rng.Perm(numKeys)
	vers := make([]uint64, numKeys)
	var t time.Duration
	writes := 0
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= window {
			return s
		}
		isRead := rng.Float64() < readShare
		var k int
		var ver uint64
		if isRead {
			k = rng.Intn(numKeys)
		} else {
			k = perm[writes%numKeys]
			writes++
			vers[k]++
			ver = vers[k]
		}
		s.at = append(s.at, t)
		s.read = append(s.read, isRead)
		s.key = append(s.key, k)
		s.ver = append(s.ver, ver)
	}
}

// keyState is the tracker's view of one key.
type keyState struct {
	issued   uint64   // highest version submitted
	acked    uint64   // highest version acknowledged
	inflight bool     // a write to the key is outstanding
	unknown  []uint64 // failed writes: they may or may not have applied
}

// tracker records every request's outcome and checks read freshness as
// replies arrive. All fields are guarded by mu.
type tracker struct {
	mu     sync.Mutex
	start  time.Time // window start; due times are offsets from it
	keys   []keyState
	recs   []rec
	lag    []time.Duration // generator lateness per submit
	submit []time.Duration // time spent inside Submit/SubmitRead
	failed int
	sheds  int
	errs   []error

	crashAt    time.Time // zero until a crash is injected
	firstAfter time.Time // first acknowledged write submitted after crashAt
}

func newTracker() *tracker {
	return &tracker{keys: make([]keyState, numKeys)}
}

// failLocked records a correctness violation; the first few are kept.
func (t *tracker) failLocked(err error) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err)
	}
}

// err reports the correctness violations recorded, if any.
func (t *tracker) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.errs) == 0 {
		return nil
	}
	return errors.Join(t.errs...)
}

// rec is one request's outcome: when it was due (from the window start),
// how long after that it completed, and whether it was a read.
type rec struct {
	due, lat time.Duration
	read     bool
}

var inf = time.Duration(math.MaxInt64)

// failedLocked counts one failed request (shed or otherwise) into the
// sample as infinitely late.
func (t *tracker) failedLocked(read bool, due time.Time, err error) {
	t.failed++
	if errors.Is(err, smr.ErrOverloaded) {
		t.sheds++
	}
	t.recs = append(t.recs, rec{due: due.Sub(t.start), lat: inf, read: read})
}

// drive runs the generator over s, starting at start, and returns a
// function that waits for every submitted request to finish.
func drive(ctx context.Context, kv *kvstore.PipeClient, s schedule, t *tracker, start time.Time) func() {
	var wg sync.WaitGroup
	t.mu.Lock()
	t.start = start
	t.mu.Unlock()
	for i := range s.at {
		due := start.Add(s.at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		k := s.key[i]
		sub := time.Now()
		if s.read[i] {
			t.mu.Lock()
			minVer := t.keys[k].acked
			t.mu.Unlock()
			call, err := kv.GetAsync(ctx, keyName(k))
			t.noteSubmit(sub, due)
			if err != nil {
				t.mu.Lock()
				t.failedLocked(true, due, err)
				t.mu.Unlock()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := call.Result()
				t.readDone(k, minVer, due, res, err)
			}()
			continue
		}
		ver := s.ver[i]
		t.mu.Lock()
		ks := &t.keys[k]
		if ks.inflight {
			t.failLocked(fmt.Errorf("workload invariant: %s written at version %d while version %d is in flight",
				keyName(k), ver, ks.issued))
			t.mu.Unlock()
			continue
		}
		ks.inflight, ks.issued = true, ver
		t.mu.Unlock()
		call, err := kv.PutAsync(ctx, keyName(k), valueFor(k, ver))
		t.noteSubmit(sub, due)
		if err != nil {
			t.writeDone(k, ver, sub, due, err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := call.Result()
			t.writeDone(k, ver, sub, due, err)
		}()
	}
	return wg.Wait
}

func (t *tracker) noteSubmit(sub, due time.Time) {
	now := time.Now()
	t.mu.Lock()
	t.lag = append(t.lag, sub.Sub(due))
	t.submit = append(t.submit, now.Sub(sub))
	t.mu.Unlock()
}

func (t *tracker) writeDone(k int, ver uint64, sub, due time.Time, err error) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := &t.keys[k]
	ks.inflight = false
	if err != nil {
		ks.unknown = append(ks.unknown, ver)
		t.failedLocked(false, due, err)
		return
	}
	ks.acked = ver
	t.recs = append(t.recs, rec{due: due.Sub(t.start), lat: now.Sub(due)})
	if !t.crashAt.IsZero() && !sub.Before(t.crashAt) && (t.firstAfter.IsZero() || now.Before(t.firstAfter)) {
		t.firstAfter = now
	}
}

// readDone checks a leased read's answer: it must be a value of this key no
// older than the last write acknowledged before the read was sent, and no
// newer than the last write submitted by now.
func (t *tracker) readDone(k int, minVer uint64, due time.Time, res []byte, err error) {
	now := time.Now()
	if err == nil {
		res, err = decodeGet(res)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.failedLocked(true, due, err)
		return
	}
	t.recs = append(t.recs, rec{due: due.Sub(t.start), lat: now.Sub(due), read: true})
	gotK, ver, perr := parseValue(res)
	switch {
	case perr != nil:
		t.failLocked(fmt.Errorf("read %s: %w", keyName(k), perr))
	case gotK != k:
		t.failLocked(fmt.Errorf("read %s returned key %d's value", keyName(k), gotK))
	case ver < minVer:
		t.failLocked(fmt.Errorf("stale read %s: version %d, but %d was acknowledged before the read was sent",
			keyName(k), ver, minVer))
	case ver > t.keys[k].issued:
		t.failLocked(fmt.Errorf("read %s returned version %d, never written (highest %d)",
			keyName(k), ver, t.keys[k].issued))
	}
}

// decodeGet strips the kvstore status byte off a GET result.
func decodeGet(res []byte) ([]byte, error) {
	if len(res) == 0 || res[0] != 0 {
		return nil, fmt.Errorf("get failed with result %q", res)
	}
	return res[1:], nil
}

// checkFinal compares an ordered read of key k against the tracker: it must
// return the last acknowledged version, or a later write whose outcome the
// client never learned.
func (t *tracker) checkFinal(k int, got []byte) error {
	_, ver, err := parseValue(got)
	if err != nil {
		return fmt.Errorf("final get %s: %w", keyName(k), err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.keys[k]
	if ver == ks.acked {
		return nil
	}
	for _, u := range ks.unknown {
		if u == ver && ver > ks.acked {
			return nil
		}
	}
	return fmt.Errorf("lost write: final get %s returned version %d, last acknowledged %d", keyName(k), ver, ks.acked)
}

// quantile returns the q-quantile of ds (nearest rank), sorting ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(q*float64(len(ds)))) - 1
	if idx < 0 {
		idx = 0
	}
	return ds[idx]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
