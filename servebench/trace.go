package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// This file is the traced run's instrumentation. Spans are recorded from
// the benchmark's own wrappers around the public calls it makes into each
// layer: the predict client, the frontend server's registered service, the
// batcher's dense backend, and every shard's replica pool and replica
// client. A span's parent travels in the request context wherever the
// program passes that context down (frontend → dense → pool → replica).

// layer names a span's boundary.
type layer uint8

const (
	layerClient  layer = iota // RPCPredictClient.Predict, client side
	layerServer               // the frontend's registered predict service
	layerDense                // DenseShard.Predict behind a rebuilt batcher
	layerPool                 // RoutingTable.Clients[t][s], the replica pool
	layerReplica              // one replica client inside the pool
)

// span is one timed call. start/end are nanoseconds since the tracer's
// origin; n is the call's input count (client, server, dense) or row-index
// count (pool, replica); bytes is the call's payload computed from tensor
// sizes (pool spans).
type span struct {
	id, parent int64
	start, end int64
	layer      layer
	model      int
	n          int
	bytes      int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanKey is the context key carrying the enclosing span's id.
type spanKey struct{}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// tracer keeps spans in memory; they are analysed after timing stops. A
// nil or disabled tracer costs one atomic load per wrapped call.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	ids    atomic.Int64
	models map[string]int // variant name → index; read-only once built

	mu    sync.Mutex
	spans []span
}

func newTracer(w *workloadDef) *tracer {
	t := &tracer{origin: time.Now(), models: map[string]int{}}
	for i, v := range w.variants {
		t.models[v.name] = i
	}
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) model(name string) int {
	if i, ok := t.models[name]; ok {
		return i
	}
	return -1
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// frontend is the predict service the benchmark registers on its own
// RPCServer: it forwards to the multi-model deployment and, when tracing,
// records the server-side span.
type frontend struct {
	md *serving.MultiDeployment
	tr *tracer
}

func (f *frontend) Predict(ctx context.Context, req *serving.PredictRequest, reply *serving.PredictReply) error {
	if !f.tr.enabled() {
		return f.md.Predict(ctx, req, reply)
	}
	id := f.tr.ids.Add(1)
	start := f.tr.now()
	err := f.md.Predict(context.WithValue(ctx, spanKey{}, id), req, reply)
	f.tr.record(span{id: id, start: start, end: f.tr.now(), layer: layerServer,
		model: f.tr.model(req.Model), n: req.BatchSize})
	return err
}

// denseTap is the backend of a rebuilt batcher: one span per fused batch.
type denseTap struct {
	dense *serving.DenseShard
	tr    *tracer
	model int
}

func (d *denseTap) Predict(ctx context.Context, req *serving.PredictRequest, reply *serving.PredictReply) error {
	if !d.tr.enabled() {
		return d.dense.Predict(ctx, req, reply)
	}
	id := d.tr.ids.Add(1)
	start := d.tr.now()
	err := d.dense.Predict(context.WithValue(ctx, spanKey{}, id), req, reply)
	d.tr.record(span{id: id, start: start, end: d.tr.now(), layer: layerDense, model: d.model, n: req.BatchSize})
	return err
}

// gatherTap wraps a shard's replica pool (layerPool) or one of its
// replica clients (layerReplica).
type gatherTap struct {
	inner serving.GatherClient
	tr    *tracer
	layer layer
	model int
}

func (g *gatherTap) Gather(ctx context.Context, req *serving.GatherRequest, reply *serving.GatherReply) error {
	if !g.tr.enabled() {
		return g.inner.Gather(ctx, req, reply)
	}
	id := g.tr.ids.Add(1)
	parent := parentOf(ctx)
	start := g.tr.now()
	err := g.inner.Gather(context.WithValue(ctx, spanKey{}, id), req, reply)
	end := g.tr.now()
	g.tr.record(span{id: id, parent: parent, start: start, end: end, layer: g.layer, model: g.model,
		n: len(req.Indices), bytes: int64(8*len(req.Indices) + 4*len(req.Offsets) + 4*len(reply.Pooled))})
	return err
}

// placeholder is a replica that never serves: it holds a pool's single
// live slot while installTaps swaps the real replica for its tap.
type placeholder struct{}

func (placeholder) Gather(context.Context, *serving.GatherRequest, *serving.GatherReply) error {
	return errors.New("servebench: placeholder replica")
}

// tapReplica replaces a single-replica pool's replica R with a tap around
// R, through the pool's public scaling and fault hooks: add a placeholder
// P, mark R dead so P is the sole live replica (which Remove never takes)
// and remove R; add tap(R), mark P dead and remove P. Must run before any
// traffic reaches the pool.
func tapReplica(pool *serving.ReplicaPool, tap func(serving.GatherClient) serving.GatherClient) error {
	if pool.Size() != 1 {
		return fmt.Errorf("pool has %d replicas, want 1", pool.Size())
	}
	pool.Add(placeholder{})
	pool.KillReplica(0)
	r := pool.Remove()
	if r == nil {
		return errors.New("pool kept its replica")
	}
	pool.Add(tap(r))
	pool.KillReplica(0)
	if _, ok := pool.Remove().(placeholder); !ok {
		return errors.New("pool removed the tapped replica")
	}
	return nil
}

// installTaps wraps every layer of every served variant's current epoch:
// the batcher is rebuilt over a dense tap, each RoutingTable.Clients[t][s]
// becomes a pool tap, and each pool's replica a replica tap. Epochs
// published later are not tapped; their layers report through the
// program's own counters.
func installTaps(d *deployment, w *workloadDef, tr *tracer) error {
	for i := range w.variants {
		v := &w.variants[i]
		ld, ok := d.md.Deployment(v.name)
		if !ok {
			continue
		}
		if old := ld.Batcher; old != nil {
			ld.Batcher = serving.NewModelBatcher(ld.Model(), &denseTap{dense: ld.Dense, tr: tr, model: i},
				ld.Dense.Config(), old.Options())
			if err := old.Close(); err != nil {
				return err
			}
		}
		rt := ld.Table()
		for t := range rt.Clients {
			for s := range rt.Clients[t] {
				err := tapReplica(rt.Pools[t][s], func(r serving.GatherClient) serving.GatherClient {
					return &gatherTap{inner: r, tr: tr, layer: layerReplica, model: i}
				})
				if err != nil {
					return fmt.Errorf("%s t%d s%d: %w", v.name, t, s, err)
				}
				rt.Clients[t][s] = &gatherTap{inner: rt.Clients[t][s], tr: tr, layer: layerPool, model: i}
			}
		}
	}
	return nil
}

// stageStats is one model's blocking-path decomposition, in mean
// microseconds per client request.
type stageStats struct {
	requests     int
	client       float64 // client span: the base every stage is a share of
	frontendWire float64 // client − server
	batcherWait  float64 // server − dense (batched variants)
	denseSelf    float64 // dense − union of its gather spans
	queueWait    float64 // critical pool span − its replica span
	replicaCall  float64 // critical replica span (gather wire + shard service)
	unattributed float64 // client − the stages above
	// Aggregates over every gather of the model, not just critical ones.
	gathers       int
	rowsFetched   int   // row indices sent to shards
	gatherBytes   int64 // gather request + reply payload
	denseCalls    int
	denseInputs   int
	queueAbsSum   float64 // Σ over gathers of pool − replica, µs
	replicaAbsSum float64 // Σ over gathers of replica spans, µs
}

// analyze decomposes one model's spans within [from, to) (tracer
// nanoseconds). batched says whether dense spans come from a batcher tap;
// otherwise the server span is the dense call. reqBatch is the model's
// per-request input count.
func analyze(spans []span, model int, from, to int64, batched bool, reqBatch int) stageStats {
	var st stageStats
	var clients, servers, denseLevel []span
	children := map[int64][]span{}
	for _, s := range spans {
		if s.model != model {
			continue
		}
		switch s.layer {
		case layerPool, layerReplica:
			children[s.parent] = append(children[s.parent], s)
			continue
		}
		if s.start < from || s.start >= to {
			continue
		}
		switch s.layer {
		case layerClient:
			clients = append(clients, s)
		case layerServer:
			servers = append(servers, s)
			if !batched {
				denseLevel = append(denseLevel, s)
			}
		case layerDense:
			if batched {
				denseLevel = append(denseLevel, s)
			}
		}
	}
	if len(clients) == 0 || len(servers) == 0 {
		return st
	}
	st.requests = len(clients)
	st.client = meanDur(clients)
	st.frontendWire = st.client - meanDur(servers)

	// Per dense-level span: its weight is the number of client requests
	// it served (a fused batch serves several).
	var wsum, denseDur, self, queue, replica float64
	for _, d := range denseLevel {
		w := float64(d.n) / float64(reqBatch)
		if w < 1 {
			w = 1
		}
		wsum += w
		st.denseCalls++
		st.denseInputs += d.n
		denseDur += w * us(d.dur())
		pools := children[d.id]
		covered := union(pools)
		self += w * us(d.dur()-covered)
		if len(pools) == 0 {
			continue
		}
		crit := pools[0]
		for _, p := range pools[1:] {
			if p.end > crit.end {
				crit = p
			}
		}
		if reps := children[crit.id]; len(reps) > 0 {
			last := reps[len(reps)-1]
			queue += w * us(crit.dur()-last.dur())
			replica += w * us(last.dur())
		} else {
			queue += w * us(crit.dur())
		}
		for _, p := range pools {
			st.gathers++
			st.rowsFetched += p.n
			st.gatherBytes += p.bytes
			rd := int64(0)
			for _, r := range children[p.id] {
				rd += r.dur()
			}
			st.queueAbsSum += us(p.dur() - rd)
			st.replicaAbsSum += us(rd)
		}
	}
	if wsum > 0 {
		st.denseSelf = self / wsum
		st.queueWait = queue / wsum
		st.replicaCall = replica / wsum
		if batched {
			st.batcherWait = meanDur(servers) - denseDur/wsum
		}
	}
	st.unattributed = st.client - st.frontendWire - st.batcherWait - st.denseSelf - st.queueWait - st.replicaCall
	return st
}

// union returns the length of the union of the spans' intervals.
func union(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.start, s.end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

func meanDur(spans []span) float64 {
	var sum int64
	for _, s := range spans {
		sum += s.dur()
	}
	return us(sum) / float64(len(spans))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// printStages writes one model's stage table: self time per layer along
// the blocking path, as mean microseconds per request and as a share of
// the client span.
func printStages(out io.Writer, title string, st stageStats, batched bool, serviceUs float64) {
	fmt.Fprintf(out, "stage table: %s (%d traced open-loop requests; mean µs per request)\n", title, st.requests)
	row := func(name string, v float64) {
		share := 0.0
		if st.client > 0 {
			share = 100 * v / st.client
		}
		fmt.Fprintf(out, "  %-44s %10.1f  %5.1f%%\n", name, v, share)
	}
	row("client↔frontend wire (client − server span)", st.frontendWire)
	if batched {
		row("frontend + batcher wait (server − dense)", st.batcherWait)
		row("dense self (dense − gather union)", st.denseSelf)
	} else {
		row("frontend + dense self (server − gather union)", st.denseSelf)
	}
	row("pool queue wait (critical gather)", st.queueWait)
	row(fmt.Sprintf("replica call (critical; shard service ≈ %.1f)", serviceUs), st.replicaCall)
	row("unattributed (fan-out skew, clock gaps)", st.unattributed)
	row("client span (total)", st.client)
}
