package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/tensor"
)

const (
	// controlTimeout bounds each control-plane operation of the timeline.
	controlTimeout = 30 * time.Second
	// minDriftPeriod is the shortest drift period a timeline uses.
	minDriftPeriod = 2 * time.Second
)

type evKind int

const (
	evDrift       evKind = iota // the hot set advances; a live profiling window opens
	evRepartition               // profile → replan → Repartition
	evDeploy                    // the canary is deployed over the admin client, then probed
	evUndeploy                  // the canary is undeployed over the admin client
)

// event is one control-plane action at an offset into the open loop.
type event struct {
	at    time.Duration
	kind  evKind
	model int
}

// timeline lays the workload's control-plane actions over an open-loop
// window of length win: up to w.drifts drifts spread evenly, each followed a third of a
// drift period later by its repartition, and the canary deployed at 45%
// and undeployed at 60% of the window.
func timeline(w *workloadDef, win time.Duration) []event {
	var evs []event
	// A drift period needs room for a profiling window of traffic, so
	// short runs get fewer drifts.
	drifts := min(w.drifts, int(win/minDriftPeriod))
	for i, v := range w.variants {
		if v.drifting && drifts > 0 {
			period := win / time.Duration(drifts)
			for k := 0; k < drifts; k++ {
				at := period*time.Duration(k) + period/4
				evs = append(evs, event{at, evDrift, i}, event{at + period/3, evRepartition, i})
			}
		}
		if v.canary {
			evs = append(evs, event{win * 45 / 100, evDeploy, i}, event{win * 60 / 100, evUndeploy, i})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	return evs
}

// ctlStats is what the timeline's control-plane actions did.
type ctlStats struct {
	attempted, failed int
	errs              []error
	samples           []sample
	repartition       []time.Duration
	replan            []time.Duration
	deploy, undeploy  []time.Duration
	swaps             []serving.SwapReport
	// firstSwap[i] is the tracer time of variant i's first published swap.
	firstSwap map[int]int64
}

func (c *ctlStats) fail(err error) {
	c.failed++
	c.errs = append(c.errs, err)
}

func newCtlStats() *ctlStats { return &ctlStats{firstSwap: map[int]int64{}} }

// openWithTimeline runs a cycle's open-loop window with its timeline
// actions executing beside it, from the same start time.
func (r *runner) openWithTimeline(name string, c cycle, ctl *ctlStats) *phase {
	t0 := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range c.events {
			if d := time.Until(t0.Add(e.at)); d > 0 {
				time.Sleep(d)
			}
			r.apply(e, ctl)
		}
	}()
	p := openLoop(name, r.d.client, c.open, sampleEvery, r.tr, t0)
	<-done
	return p
}

// apply executes one timeline action.
func (r *runner) apply(e event, ctl *ctlStats) {
	v := &r.w.variants[e.model]
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	defer cancel()
	switch e.kind {
	case evDrift:
		if err := r.d.md.StartProfile(v.name); err != nil {
			ctl.attempted++
			ctl.fail(err)
		}
	case evRepartition:
		ctl.attempted++
		rep, err := r.repartition(ctx, v.name, ctl)
		if err != nil {
			ctl.fail(fmt.Errorf("repartition %q: %w", v.name, err))
			return
		}
		if _, seen := ctl.firstSwap[e.model]; !seen {
			ctl.firstSwap[e.model] = r.tr.now()
		}
		ctl.swaps = append(ctl.swaps, rep)
		if err := r.d.md.StartProfile(v.name); err != nil {
			ctl.fail(err)
		}
	case evDeploy:
		ctl.attempted++
		start := time.Now()
		var reply serving.AdminDeployReply
		err := r.d.admin.Deploy(ctx, &serving.AdminDeployRequest{
			APIVersion: serving.AdminAPIVersion, Name: v.name, Config: v.cfg,
			Seed: modelSeed(r.o.seed, e.model), Counts: r.in.canaryCounts,
			Boundaries: r.in.canaryBounds, Options: v.opts,
		}, &reply)
		if err != nil {
			ctl.fail(fmt.Errorf("deploy %q: %w", v.name, err))
			return
		}
		ctl.deploy = append(ctl.deploy, time.Since(start))
		for _, req := range r.in.probes {
			ctl.attempted++
			probs, err := predict(r.d.client, req)
			if err != nil {
				ctl.fail(fmt.Errorf("probe %q: %w", v.name, err))
				continue
			}
			ctl.samples = append(ctl.samples, sample{model: e.model, req: req, probs: probs})
		}
	case evUndeploy:
		ctl.attempted++
		start := time.Now()
		if _, err := r.d.admin.Undeploy(ctx, v.name); err != nil {
			ctl.fail(fmt.Errorf("undeploy %q: %w", v.name, err))
			return
		}
		ctl.undeploy = append(ctl.undeploy, time.Since(start))
	}
}

// repartition closes the variant's live profiling window, replans from
// it and swaps the plan in.
func (r *runner) repartition(ctx context.Context, name string, ctl *ctlStats) (serving.SwapReport, error) {
	window, err := r.d.md.SnapshotProfile(name)
	if err != nil {
		return serving.SwapReport{}, err
	}
	if window == nil {
		return serving.SwapReport{}, fmt.Errorf("no live profiling window")
	}
	ld, ok := r.d.md.Deployment(name)
	if !ok {
		return serving.SwapReport{}, fmt.Errorf("not served")
	}
	start := time.Now()
	bounds := replan(window)
	ctl.replan = append(ctl.replan, time.Since(start))
	start = time.Now()
	rep, err := ld.RepartitionReport(ctx, window, bounds)
	if err != nil {
		return rep, err
	}
	ctl.repartition = append(ctl.repartition, time.Since(start))
	return rep, nil
}

// eachShard visits every shard of every served variant's current epoch.
func eachShard(d *deployment, fn func(ld *serving.LiveDeployment, rt *serving.RoutingTable, t, s int)) {
	for _, name := range d.md.Models() {
		ld, ok := d.md.Deployment(name)
		if !ok {
			continue
		}
		rt := ld.Table()
		if rt == nil {
			continue
		}
		for t := range rt.Shards {
			for s := range rt.Shards[t] {
				fn(ld, rt, t, s)
			}
		}
	}
}

// resetShards clears the current epochs' shard utility and latency
// trackers at a window start.
func resetShards(d *deployment) {
	eachShard(d, func(_ *serving.LiveDeployment, rt *serving.RoutingTable, t, s int) {
		rt.Shards[t][s].Utility.Reset()
		rt.Shards[t][s].Latency.Reset()
	})
}

// memory returns the paper's Fig. 13 allocation — Σ shard ParamBytes ×
// replica count plus row-cache bytes — and the bytes of distinct rows
// the current epochs' shards served since their trackers were reset.
func memory(d *deployment) (alloc, touched int64) {
	eachShard(d, func(_ *serving.LiveDeployment, rt *serving.RoutingTable, t, s int) {
		sh := rt.Shards[t][s]
		pb := sh.ParamBytes()
		alloc += pb * int64(rt.Pools[t][s].Size())
		if rows := sh.Rows(); rows > 0 {
			touched += sh.Utility.TouchedRows() * pb / rows
		}
	})
	for _, name := range d.md.Models() {
		if ld, ok := d.md.Deployment(name); ok {
			alloc += ld.BuildCounters().RowCacheBytes
		}
	}
	return alloc, touched
}

// counters is a snapshot of the program's own counters.
type counters struct {
	build             serving.BuildCounters // summed over served variants
	allocBytes        uint64
	mallocs           uint64
	gcCPU, totalCPU   float64
	rejected          int64
	serviceNs, served float64 // shard latency: Σ mean×count, Σ count
	serviceEWMA       float64 // mean pool service EWMA, µs
	pools             int
}

func snapshot(d *deployment) counters {
	var c counters
	for _, name := range d.md.Models() {
		ld, ok := d.md.Deployment(name)
		if !ok {
			continue
		}
		b := ld.BuildCounters()
		c.build.ShardsBuilt += b.ShardsBuilt
		c.build.ShardsReused += b.ShardsReused
		c.build.RowCacheHits += b.RowCacheHits
		c.build.RowCacheMisses += b.RowCacheMisses
		c.build.RowCacheEvicted += b.RowCacheEvicted
		c.build.RowCacheBytes += b.RowCacheBytes
	}
	eachShard(d, func(_ *serving.LiveDeployment, rt *serving.RoutingTable, t, s int) {
		q := rt.Pools[t][s].QueueStats()
		c.rejected += q.Rejected
		c.serviceEWMA += float64(q.ServiceEWMA) / 1e3
		c.pools++
		lat := rt.Shards[t][s].Latency
		n := float64(lat.Count())
		c.serviceNs += float64(lat.Mean()) * n
		c.served += n
	})
	if c.pools > 0 {
		c.serviceEWMA /= float64(c.pools)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.mallocs = ms.TotalAlloc, ms.Mallocs
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	return c
}

// serviceUs is the count-weighted mean shard service time, µs.
func (c counters) serviceUs() float64 {
	if c.served == 0 {
		return 0
	}
	return c.serviceNs / c.served / 1e3
}

// depthSampler polls every current pool's depth EWMA until stopped and
// keeps the maximum.
type depthSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	max  float64
}

func startDepthSampler(d *deployment) *depthSampler {
	ds := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ds.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ds.stop:
				return
			case <-tick.C:
				eachShard(d, func(_ *serving.LiveDeployment, rt *serving.RoutingTable, t, s int) {
					q := rt.Pools[t][s].QueueStats()
					ds.mu.Lock()
					if q.DepthEWMA > ds.max {
						ds.max = q.DepthEWMA
					}
					ds.mu.Unlock()
				})
			}
		}
	}()
	return ds
}

func (ds *depthSampler) finish() float64 {
	close(ds.stop)
	<-ds.done
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.max
}

// forwardUs times model.ForwardPooled on the variant's own dense inputs
// (with fixed pooled vectors) and returns µs per input.
func forwardUs(m *model.Model, reqs []*serving.PredictRequest) (float64, error) {
	cfg := m.Config
	pooled := make([]tensor.Vector, cfg.NumTables)
	for t := range pooled {
		pooled[t] = make(tensor.Vector, cfg.EmbeddingDim)
		for j := range pooled[t] {
			pooled[t][j] = float32(j%7) / 7
		}
	}
	const budget = 200 * time.Millisecond
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		req := reqs[n%len(reqs)]
		for i := 0; i < req.BatchSize; i++ {
			if _, err := m.ForwardPooled(req.Dense[i*req.DenseDim:(i+1)*req.DenseDim], pooled); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n), nil
}

// predictBytes is a request's frontend payload computed from tensor
// sizes: indices, offsets and dense features out, probabilities back.
func predictBytes(req *serving.PredictRequest) int64 {
	b := int64(4*len(req.Dense) + 4*req.BatchSize)
	for _, tb := range req.Tables {
		b += int64(8*len(tb.Indices) + 4*len(tb.Offsets))
	}
	return b
}

// traced is the traced run: an untraced open-loop window (the overhead
// baseline and the runtime counters), then a traced open-loop window with
// the workload's timeline and a traced closed loop. It reports the
// per-layer metrics and prints a stage table per served variant.
func (r *runner) traced(closedWin time.Duration) (*result, error) {
	d, tr, w := r.d, r.tr, r.w

	resetShards(d)
	settle()
	c0 := snapshot(d)
	base := openLoop("open-untraced", d.client, r.in.base, sampleEvery, nil, time.Now())
	c1 := snapshot(d)

	resetShards(d)
	settle()
	cb := snapshot(d)
	ds := startDepthSampler(d)
	tr.on.Store(true)
	from := tr.now()
	ctl := newCtlStats()
	c := r.in.cycles[0]
	open := r.openWithTimeline("open-traced", c, ctl)
	openEnd := tr.now()
	closed := closedLoop("closed-traced", d.client, c.closed, warmClosed, closedWin, tr)
	end := tr.now()
	tr.on.Store(false)
	depthMax := ds.finish()
	ce := snapshot(d)

	r.account(base, true)
	r.account(open, true)
	r.account(closed, true)
	r.accountCtl(ctl)
	fmt.Fprintf(r.out, "open loop untraced: p50 %.3f ms; traced: p50 %.3f ms, p99 %.3f ms, generator lag p99 %.3f ms\n",
		msOf(quantile(base.lat, 0.5)), msOf(quantile(open.lat, 0.5)), msOf(quantile(open.lat, 0.99)),
		msOf(quantile(open.lag, 0.99)))

	// Stage tables (traced open loop) and span aggregates (both traced
	// phases), per served variant, each cut at the variant's first swap:
	// later epochs carry no taps.
	spans := tr.take()
	var agg struct {
		req, wire, batcher, dense, unattrib, client float64
		calls, inputs, reqs                         float64
		gathers, rows, queue, lookups               float64
		bytes                                       float64
		replicaTCP, gathersTCP                      float64
	}
	for i := range w.variants {
		v := &w.variants[i]
		if v.canary {
			continue
		}
		cut := func(to int64) int64 {
			if at, ok := ctl.firstSwap[i]; ok && at < to {
				return at
			}
			return to
		}
		batched := v.opts.Batching != nil
		st := analyze(spans, i, from, cut(openEnd), batched, v.cfg.BatchSize)
		printStages(r.out, w.name+" / "+v.name, st, batched, ce.serviceUs())
		n := float64(st.requests)
		agg.req += n
		agg.wire += n * st.frontendWire
		agg.batcher += n * st.batcherWait
		agg.dense += n * st.denseSelf
		agg.unattrib += n * st.unattributed
		agg.client += n * st.client

		all := analyze(spans, i, from, cut(end), batched, v.cfg.BatchSize)
		agg.calls += float64(all.denseCalls)
		agg.inputs += float64(all.denseInputs)
		agg.reqs += float64(all.denseInputs) / float64(v.cfg.BatchSize)
		agg.gathers += float64(all.gathers)
		agg.rows += float64(all.rowsFetched)
		agg.queue += all.queueAbsSum
		agg.lookups += float64(all.denseInputs * v.cfg.NumTables * v.cfg.Pooling)
		agg.bytes += float64(all.denseInputs/v.cfg.BatchSize) * float64(predictBytes(r.in.pools[i][0][0]))
		if v.opts.Transport == serving.TransportTCP {
			agg.bytes += float64(all.gatherBytes)
			agg.replicaTCP += all.replicaAbsSum
			agg.gathersTCP += float64(all.gathers)
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	mismatched, err := r.oracle()
	if err != nil {
		return nil, err
	}

	// Layer probes after timing: the model forward, one profile → replan
	// → Repartition for every variant the timeline did not swap, and the
	// teardown's undeploys.
	var fwd, flops, weight float64
	for i := range w.variants {
		v := &w.variants[i]
		if v.canary {
			continue
		}
		us, err := forwardUs(d.models[i], r.in.pools[i][0])
		if err != nil {
			return nil, err
		}
		fwd += v.weight * us
		flops += v.weight * float64(v.cfg.DenseFLOPsPerInput())
		weight += v.weight
		if _, swapped := ctl.firstSwap[i]; swapped {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
		err = r.d.md.StartProfile(v.name)
		for _, req := range r.in.pools[i][0][:8] {
			if err == nil {
				_, err = predict(d.client, req)
			}
		}
		if err == nil {
			_, err = r.repartition(ctx, v.name, ctl)
		}
		cancel()
		if err != nil {
			return nil, fmt.Errorf("repartition probe %q: %w", v.name, err)
		}
	}
	build := snapshot(d).build
	ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
	undeploy, err := d.undeployAll(ctx)
	cancel()
	if err != nil {
		return nil, err
	}
	started := 0
	for _, v := range w.variants {
		if !v.canary {
			started++
		}
	}
	deploys := append([]time.Duration{d.buildDur / time.Duration(started)}, ctl.deploy...)
	undeploys := append([]time.Duration{undeploy}, ctl.undeploy...)

	hits := float64(ce.build.RowCacheHits - cb.build.RowCacheHits)
	misses := float64(ce.build.RowCacheMisses - cb.build.RowCacheMisses)
	sent := float64(open.sent + closed.sent)
	res := r.result(mismatched)
	res.metrics = []metric{
		{"model.forward_us_per_input", "us", fwd / weight},
		{"model.flops_per_input", "flop", flops / weight},
		{"dense.self_us", "us", div(agg.dense, agg.req)},
		{"batcher.wait_us", "us", div(agg.batcher, agg.req)},
		{"batcher.inputs_per_batch", "count", div(agg.inputs, agg.calls)},
		{"batcher.fuse_ratio", "ratio", div(agg.reqs, agg.calls)},
		{"wire.frontend_us", "us", div(agg.wire, agg.req)},
		{"wire.gather_us", "us", div(agg.replicaTCP, agg.gathersTCP) - ce.serviceUs()*boolf(agg.gathersTCP > 0)},
		{"wire.bytes_per_query", "bytes", div(agg.bytes, agg.reqs)},
		{"dense.rows_fetched_ratio", "ratio", div(agg.rows, agg.lookups)},
		{"rowcache.hit_ratio", "ratio", div(hits, hits+misses)},
		{"embedshard.service_us", "us", ce.serviceUs()},
		{"embedshard.rows_per_query", "count", div(agg.rows, agg.reqs)},
		{"runtime.alloc_bytes_per_query", "bytes", div(float64(c1.allocBytes-c0.allocBytes), float64(base.sent))},
		{"runtime.allocs_per_query", "count", div(float64(c1.mallocs-c0.mallocs), float64(base.sent))},
		{"runtime.gc_cpu_fraction", "ratio", div(c1.gcCPU-c0.gcCPU, c1.totalCPU-c0.totalCPU)},
		{"pool.queue_wait_us", "us", div(agg.queue, agg.gathers)},
		{"pool.depth_ewma_max", "count", depthMax},
		{"pool.service_ewma_us", "us", ce.serviceEWMA},
		{"pool.rejected", "count", float64(ce.rejected)},
		{"controller.repartition_ms", "ms", meanMs(ctl.repartition)},
		{"controller.shards_built", "count", float64(build.ShardsBuilt)},
		{"controller.shards_reused", "count", float64(build.ShardsReused)},
		{"controller.deploy_ms", "ms", meanMs(deploys)},
		{"controller.undeploy_ms", "ms", meanMs(undeploys)},
		{"partition.replan_ms", "ms", meanMs(ctl.replan)},
		{"rowcache.evicted_per_query", "count", div(float64(ce.build.RowCacheEvicted-cb.build.RowCacheEvicted), sent)},
		{"rowcache.bytes", "bytes", float64(ce.build.RowCacheBytes)},
		{"workload.lag_p99_ms", "ms", msOf(quantile(open.lag, 0.99))},
		{"workload.sent", "count", float64(res.attempted)},
		{"workload.failed", "count", float64(res.failed)},
		{"trace.client_us", "us", div(agg.client, agg.req)},
		{"trace.unattributed_us", "us", div(agg.unattrib, agg.req)},
		{"oracle.exact_ratio", "ratio", r.exact},
		{"trace.overhead_ratio", "ratio", div(msOf(quantile(open.lat, 0.5)), msOf(quantile(base.lat, 0.5)))},
	}
	printMetrics(r.out, res.metrics)
	return res, nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return msOf(sum / time.Duration(len(ds)))
}
