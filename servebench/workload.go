package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// frontendName is the service name the benchmark's frontend server
// registers the multi-model predict endpoint under.
const frontendName = "frontend"

// variantDef is one DLRM variant a workload serves.
type variantDef struct {
	name     string
	cfg      model.Config
	shuffled bool // shuffled ID mapping; identity otherwise
	opts     serving.BuildOptions
	weight   float64 // share of the workload's traffic
	drifting bool    // the hot set advances on the workload's drift cadence
	canary   bool    // deployed and undeployed mid-run over the admin client
}

// workloadDef is one traffic mix: the variants served behind one frontend
// and the fixed open-loop arrival rate.
type workloadDef struct {
	name     string
	rate     float64 // open-loop arrivals per second
	variants []variantDef
	// drifts is the number of hot-set advances during the open-loop
	// window; each is followed by profile → replan → Repartition.
	drifts int
}

// tinyMLP gives cfg the small dense side of the gather-bound shape: a
// 16-wide bottom layer and a 16-wide top layer.
func tinyMLP(cfg model.Config) model.Config {
	cfg.BottomMLP = []int{16, cfg.EmbeddingDim}
	cfg.TopMLP = []int{16, 1}
	return cfg
}

// geometry returns an RM1-derived config with the given shape.
func geometry(name string, tables int, rows int64, dim, pooling, batch int, locality float64) model.Config {
	cfg := model.RM1().WithRows(rows).WithName(name)
	cfg.NumTables = tables
	cfg.EmbeddingDim = dim
	cfg.Pooling = pooling
	cfg.BatchSize = batch
	cfg.LocalityP = locality
	return cfg
}

// workloads lists the benchmark's traffic mixes by name.
var workloads = map[string]*workloadDef{
	"rm1-dense": {
		name: "rm1-dense",
		rate: 100,
		variants: []variantDef{{
			name:   "rm1",
			cfg:    geometry("rm1", 4, 50_000, 32, 128, 32, 0.9),
			opts:   serving.BuildOptions{Transport: serving.TransportLocal, Batching: &serving.BatcherOptions{}},
			weight: 1,
		}},
	},
	"drift-swap": {
		name:   "drift-swap",
		rate:   100,
		drifts: 12,
		variants: []variantDef{
			{
				name:     "drifting",
				cfg:      tinyMLP(geometry("drifting", 4, 25_000, 32, 64, 32, 0.7)),
				shuffled: true,
				opts:     serving.BuildOptions{Transport: serving.TransportTCP, RowCacheBytes: 1 << 20},
				weight:   0.5,
				drifting: true,
			},
			{
				name:     "steady",
				cfg:      tinyMLP(geometry("steady", 4, 25_000, 32, 64, 32, 0.9)),
				shuffled: true,
				opts:     serving.BuildOptions{Transport: serving.TransportTCP},
				weight:   0.5,
			},
			{
				name:     "canary",
				cfg:      tinyMLP(geometry("canary", 2, 10_000, 32, 32, 16, 0.9)),
				shuffled: true,
				opts:     serving.BuildOptions{Transport: serving.TransportTCP},
				canary:   true,
			},
		},
	},
}

// workloadNames is the stable listing order.
var workloadNames = []string{"rm1-dense", "drift-swap"}

// profileQueries is the number of queries per table in an offline
// profiling window.
const profileQueries = 64

// modelSeed derives variant i's parameter seed from the run seed.
func modelSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// replan cuts a profiling window's CDF at 70%/95% coverage, the replanner
// internal/scenario uses at this scaled-down geometry: three shards per
// table.
func replan(window []*embedding.AccessStats) []int64 {
	return embedding.NewCDF(window[0]).ProportionalCuts(0.70, 0.95)
}

// generator produces one variant's requests. It is not safe for
// concurrent use.
type generator struct {
	v     *variantDef
	drift *workload.DriftingSampler
	qg    *workload.QueryGenerator
	rng   *workload.RNG
}

func newGenerator(v *variantDef, seed uint64) (*generator, error) {
	base, err := workload.NewPowerLawSampler(v.cfg.RowsPerTable, v.cfg.LocalityP, 0.9)
	if err != nil {
		return nil, err
	}
	drift, err := workload.NewDriftingSampler(base)
	if err != nil {
		return nil, err
	}
	var mapping workload.IDMapping = workload.IdentityMapping(v.cfg.RowsPerTable)
	if v.shuffled {
		// The mapping is a property of the dataset, so every generator of
		// a variant shares it; only the draws follow the stream seed.
		mapping = workload.NewShuffledMapping(v.cfg.RowsPerTable, 7)
	}
	qg, err := workload.NewQueryGenerator(drift, mapping, v.cfg.BatchSize, v.cfg.Pooling, seed)
	if err != nil {
		return nil, err
	}
	return &generator{v: v, drift: drift, qg: qg, rng: workload.NewRNG(seed ^ 0xd1b54a32d192ed03)}, nil
}

// request generates one predict request addressed to the variant.
func (g *generator) request() *serving.PredictRequest {
	cfg := g.v.cfg
	req := &serving.PredictRequest{
		Model:     g.v.name,
		BatchSize: cfg.BatchSize,
		DenseDim:  cfg.DenseInputDim,
		Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
		Tables:    make([]serving.TableBatch, cfg.NumTables),
	}
	for i := range req.Dense {
		req.Dense[i] = float32(g.rng.Float64())
	}
	for t := range req.Tables {
		b := g.qg.Next()
		req.Tables[t] = serving.TableBatch{Indices: b.Indices, Offsets: b.Offsets}
	}
	return req
}

// window collects an offline profiling window of the variant's current
// traffic shape.
func (g *generator) window() ([]*embedding.AccessStats, error) {
	perTable := make([][]*embedding.Batch, g.v.cfg.NumTables)
	for t := range perTable {
		for q := 0; q < profileQueries; q++ {
			perTable[t] = append(perTable[t], g.qg.Next())
		}
	}
	return serving.CollectStats(g.v.cfg, perTable)
}

// deployment is one live serving stack: the multi-model deployment, the
// benchmark's frontend server in front of it and the clients dialed to it.
type deployment struct {
	md     *serving.MultiDeployment
	srv    *serving.RPCServer
	client *serving.RPCPredictClient
	admin  *serving.AdminClient
	// models[i] holds variant i's parameters (nil for the canary, whose
	// weights the frontend builds from its seed on deploy).
	models []*model.Model
	// buildDur is the wall time of BuildMulti (every start variant's
	// Controller.Deploy).
	buildDur time.Duration
}

// setup stands up the workload's serving stack: models, profiling windows,
// plans, deploy, frontend export and dials. The caller times it.
func setup(w *workloadDef, seed uint64, tr *tracer) (*deployment, error) {
	d := &deployment{models: make([]*model.Model, len(w.variants))}
	var specs []serving.ModelSpec
	for i := range w.variants {
		v := &w.variants[i]
		if v.canary {
			continue
		}
		m, err := model.New(v.cfg, modelSeed(seed, i))
		if err != nil {
			return nil, err
		}
		g, err := newGenerator(v, seed^0xa0761d6478bd642f^uint64(i))
		if err != nil {
			return nil, err
		}
		window, err := g.window()
		if err != nil {
			return nil, err
		}
		d.models[i] = m
		specs = append(specs, serving.ModelSpec{
			Name: v.name, Model: m, Stats: window, Boundaries: replan(window), Options: v.opts,
		})
	}
	start := time.Now()
	md, err := serving.BuildMulti(specs...)
	if err != nil {
		return nil, err
	}
	d.buildDur = time.Since(start)
	d.md = md
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	if d.srv, err = serving.NewRPCServer("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	if err := d.srv.RegisterPredict(frontendName, &frontend{md: md, tr: tr}); err != nil {
		return fail(err)
	}
	if err := d.srv.RegisterAdmin(serving.AdminServiceName(frontendName), md.Controller()); err != nil {
		return fail(err)
	}
	if d.client, err = serving.DialPredict(d.srv.Addr(), frontendName); err != nil {
		return fail(err)
	}
	if d.admin, err = serving.DialAdmin(d.srv.Addr(), frontendName); err != nil {
		return fail(err)
	}
	return d, nil
}

// close tears the stack down: clients, frontend server, then every
// variant's deployment.
func (d *deployment) close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	if d.admin != nil {
		_ = d.admin.Close()
	}
	if d.srv != nil {
		_ = d.srv.Close()
	}
	if d.md != nil {
		d.md.Close()
	}
}

// undeployAll drains every served variant out through the controller and
// returns the mean time per undeploy.
func (d *deployment) undeployAll(ctx context.Context) (time.Duration, error) {
	names := d.md.Models()
	if len(names) == 0 {
		return 0, nil
	}
	start := time.Now()
	for _, name := range names {
		if err := d.md.Controller().Undeploy(ctx, name); err != nil {
			return 0, fmt.Errorf("undeploy %q: %w", name, err)
		}
	}
	return time.Since(start) / time.Duration(len(names)), nil
}
