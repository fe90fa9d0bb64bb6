package main

// Deployments: one consensus group plus one pipelined client, built only
// through the library's public constructors, over simnet with an injected
// per-link delay or over tcpnet on loopback.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"unidir/internal/cluster"
	"unidir/internal/kvstore"
	"unidir/internal/obs"
	"unidir/internal/obs/tracing"
	"unidir/internal/sig"
	"unidir/internal/simnet"
	"unidir/internal/smr"
	"unidir/internal/tcpnet"
	"unidir/internal/transport"
	"unidir/internal/types"
)

// linkDelay is the one-way delay injected on every simnet link. With it,
// latency counts protocol hops instead of scheduler noise.
const linkDelay = time.Millisecond

// clientWindow bounds the pipeline's in-flight requests. It is far above
// what the workloads keep in flight (rate × latency, a few dozen; ~500
// during a failover outage), so the generator never blocks on it.
const clientWindow = 1024

// deployment is one running group with its client.
type deployment struct {
	group  *cluster.Group
	stores []*kvstore.Store
	pipe   *smr.Pipeline
	kv     *kvstore.PipeClient
	sim    *simnet.Network // nil over tcpnet
	tcp    []*tcpnet.Net   // nil over simnet
	down   map[int]bool

	inst *instruments // nil on untraced runs
}

// buildDeployment starts a group of n replicas for protocol p (n derived
// from f) and connects one pipelined client as process n, over simnet or,
// with overTCP, over tcpnet on loopback. With inst, every endpoint, state
// machine and component is instrumented.
func buildDeployment(p cluster.Protocol, overTCP bool, inst *instruments) (*deployment, error) {
	spec := cluster.Spec{Protocol: p, F: f, Scheme: sig.HMAC}
	if inst != nil {
		spec.Metrics = inst.reg
	}
	m, err := spec.Membership()
	if err != nil {
		return nil, err
	}
	d := &deployment{down: make(map[int]bool), inst: inst}
	all := m.N + 1 // replicas plus the client
	var endpoints []transport.Transport
	if overTCP {
		endpoints, err = d.startTCP(all)
	} else {
		endpoints, err = d.startSim(all)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	if inst != nil {
		for a := range endpoints {
			endpoints[a] = inst.wrapTransport(endpoints[a])
		}
	}
	var tracers []*tracing.Tracer
	if inst != nil {
		tracers = inst.replicaTracers(m.N)
	}
	d.group, err = cluster.NewGroup(spec, m,
		func(id types.ProcessID) transport.Transport { return endpoints[id] },
		func() smr.StateMachine {
			st := kvstore.New()
			d.stores = append(d.stores, st)
			if inst != nil {
				return inst.wrapSM(st)
			}
			return st
		}, tracers)
	if err != nil {
		d.close()
		return nil, err
	}
	enc := spec.Encoders()
	opts := []smr.PipelineOption{
		smr.WithPipelineRequestEncoder(enc.Request),
		smr.WithPipelineReadEncoder(enc.Read),
		smr.WithPipelineReadBatchEncoder(enc.ReadBatch),
		smr.WithReadQuorum(spec.ReadQuorum(m)),
	}
	if inst != nil {
		opts = append(opts, smr.WithPipelineMetrics(inst.reg), smr.WithPipelineTracer(inst.clientTracer()))
	}
	// retry 0 keeps the pipeline's default retransmission period.
	d.pipe, err = smr.NewPipeline(endpoints[m.N], m.All(), m.FPlusOne(), uint64(m.N), 0, clientWindow, opts...)
	if err != nil {
		d.close()
		return nil, err
	}
	d.kv = kvstore.NewPipeClient(d.pipe)
	return d, nil
}

// startSim builds a simnet of all processes with linkDelay on every link.
func (d *deployment) startSim(all int) ([]transport.Transport, error) {
	netM, err := types.NewMembership(all, f)
	if err != nil {
		return nil, err
	}
	if d.sim, err = simnet.New(netM); err != nil {
		return nil, err
	}
	endpoints := make([]transport.Transport, all)
	for a := 0; a < all; a++ {
		for b := 0; b < all; b++ {
			if a != b {
				d.sim.SetLinkDelay(types.ProcessID(a), types.ProcessID(b), linkDelay)
			}
		}
		endpoints[a] = d.sim.Endpoint(types.ProcessID(a))
	}
	return endpoints, nil
}

// startTCP listens for every process on a loopback port of the kernel's
// choosing. Senders dial lazily, so each endpoint can learn its peers'
// addresses after it starts.
func (d *deployment) startTCP(all int) ([]transport.Transport, error) {
	cfg := make(tcpnet.Config, all)
	for a := 0; a < all; a++ {
		cfg[types.ProcessID(a)] = "127.0.0.1:0"
	}
	var opts []tcpnet.Option
	if d.inst != nil {
		opts = append(opts, tcpnet.WithMetrics(d.inst.reg))
	}
	endpoints := make([]transport.Transport, all)
	for a := 0; a < all; a++ {
		nt, err := tcpnet.New(types.ProcessID(a), cfg, opts...)
		if err != nil {
			return nil, err
		}
		d.tcp = append(d.tcp, nt)
		cfg[types.ProcessID(a)] = nt.Addr()
		endpoints[a] = nt
	}
	return endpoints, nil
}

// close stops the client, the replicas and the network.
func (d *deployment) close() {
	if d.pipe != nil {
		_ = d.pipe.Close()
	}
	if d.group != nil {
		d.group.Close()
	}
	if d.sim != nil {
		d.sim.Close()
	}
	for _, nt := range d.tcp {
		_ = nt.Close()
	}
}

// live returns the indices of replicas that have not been crashed.
func (d *deployment) live() []int {
	var ids []int
	for i := range d.group.Replicas {
		if !d.down[i] {
			ids = append(ids, i)
		}
	}
	return ids
}

func (d *deployment) status(i int) obs.Status {
	return cluster.StatusProvider(d.group.Replicas[i]).Status()
}

// crash takes replica id down the way a machine dies: every link to and
// from it is cut first, so nothing it sends while closing gets out, then it
// is closed.
func (d *deployment) crash(id int) {
	self := []types.ProcessID{types.ProcessID(id)}
	var rest []types.ProcessID
	for a := 0; a <= len(d.group.Replicas); a++ {
		if a != id {
			rest = append(rest, types.ProcessID(a))
		}
	}
	d.sim.BlockSets(self, rest)
	d.sim.BlockSets(rest, self)
	d.down[id] = true
	_ = d.group.Replicas[id].Close()
}

// warm drives the fresh group to steady state: every key holds version 0,
// every live replica has a stable checkpoint, and the primary holds a read
// lease. It writes extra keys outside the measured keyspace until the
// first checkpoint is stable.
func (d *deployment) warm(ctx context.Context) error {
	calls := make([]*smr.Call, numKeys)
	for k := range calls {
		c, err := d.kv.PutAsync(ctx, keyName(k), valueFor(k, 0))
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		calls[k] = c
	}
	for k, c := range calls {
		if _, err := awaitCall(ctx, c); err != nil {
			return fmt.Errorf("preload %s: %w", keyName(k), err)
		}
	}
	for i := 0; ; i++ {
		if d.steady() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("warm-up: no stable checkpoint and lease: %w", err)
		}
		// Two writes in flight keep both pipelined slots busy, so batches
		// (and with them checkpoints) accrue at the network's pace.
		a, errA := d.kv.PutAsync(ctx, fmt.Sprintf("warm-%010d", 2*i), valueFor(0, 0))
		b, errB := d.kv.PutAsync(ctx, fmt.Sprintf("warm-%010d", 2*i+1), valueFor(0, 0))
		if errA != nil || errB != nil {
			return fmt.Errorf("warm-up write: %v %v", errA, errB)
		}
		if _, err := awaitCall(ctx, a); err != nil {
			return fmt.Errorf("warm-up write: %w", err)
		}
		if _, err := awaitCall(ctx, b); err != nil {
			return fmt.Errorf("warm-up write: %w", err)
		}
	}
}

// awaitCall waits for c's outcome, or for ctx to end.
func awaitCall(ctx context.Context, c *smr.Call) ([]byte, error) {
	select {
	case <-c.Done():
		return c.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// steady reports whether every replica has a stable checkpoint and one of
// them holds the lease.
func (d *deployment) steady() bool {
	lease := false
	for _, i := range d.live() {
		st := d.status(i)
		if st.Checkpoint == nil {
			return false
		}
		lease = lease || st.Lease != nil
	}
	return lease
}

// verify runs the end-of-arm correctness checks: every key's ordered read
// returns its last acknowledged write, the live replicas' stores are
// byte-identical once they report one execution watermark, and the view
// moved exactly when the arm crashed the primary.
func (d *deployment) verify(ctx context.Context, t *tracker, wantViewChange bool) error {
	calls := make([]*smr.Call, numKeys)
	for k := range calls {
		c, err := d.kv.GetOrderedAsync(ctx, keyName(k))
		if err != nil {
			return fmt.Errorf("final get: %w", err)
		}
		calls[k] = c
	}
	for k, c := range calls {
		res, err := awaitCall(ctx, c)
		if err == nil {
			res, err = decodeGet(res)
		}
		if err != nil {
			return fmt.Errorf("final get %s: %w", keyName(k), err)
		}
		if err := t.checkFinal(k, res); err != nil {
			return err
		}
	}
	// A barrier write behind everything else, then wait for every live
	// replica to execute it.
	if err := d.kv.Put(ctx, "barrier", valueFor(0, 0)); err != nil {
		return fmt.Errorf("barrier write: %w", err)
	}
	if err := d.sameExec(ctx); err != nil {
		return err
	}
	live := d.live()
	ref := d.stores[live[0]].Snapshot()
	for _, i := range live[1:] {
		if snap := d.stores[i].Snapshot(); !bytes.Equal(snap, ref) {
			return fmt.Errorf("replica %d's store differs from replica %d's (%d vs %d bytes)",
				i, live[0], len(snap), len(ref))
		}
	}
	for _, i := range live {
		v := d.status(i).View
		if wantViewChange && v == 0 {
			return fmt.Errorf("replica %d still in view 0 after the primary crashed", i)
		}
		if !wantViewChange && v != 0 {
			return fmt.Errorf("replica %d changed view (view %d) in a workload without a crash", i, v)
		}
	}
	return nil
}

// sameExec waits until every live replica reports one execution
// watermark, that is, has executed everything ordered so far.
func (d *deployment) sameExec(ctx context.Context) error {
	for {
		var exec []uint64
		same := true
		for _, i := range d.live() {
			exec = append(exec, d.status(i).ExecCount)
			same = same && exec[len(exec)-1] == exec[0]
		}
		if same {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("replicas never converged on one execution watermark: %v", exec)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
