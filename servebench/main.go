// Command servebench is the repository's serving benchmark. It stands up
// a live serving.MultiDeployment behind a TCP frontend, drives one
// workload from this process — an open loop of Poisson arrivals timed
// from their due times, then a closed loop with one client per core —
// checks sampled replies against serving.NewMonolith, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload rm1-dense --seed 1 --seconds 56 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

const (
	// setupRepeats is how many times a run stands the stack up; setup_s
	// is the median.
	setupRepeats = 3
	// poolSize is the number of distinct requests generated per variant
	// (and per drift step); arrivals draw from the pool.
	poolSize = 128
	// warmOpen and warmClosed are the excluded warm-ups before each phase.
	warmOpen   = 1500 * time.Millisecond
	warmClosed = 200 * time.Millisecond
	// sampleEvery keeps every n-th reply for the oracle; a closed-loop
	// client keeps at most closedSamples per window.
	sampleEvery   = 16
	closedSamples = 32
	// cycles is the number of interleaved open/closed windows per run.
	cycles = 6
	// probes is the number of requests sent to the canary variant while
	// it is deployed.
	probes = 16
	// oracleTol is the largest |sharded − monolith| probability the
	// oracle accepts.
	oracleTol = 1e-5
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds (open loop plus closed loop)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]map[string]any{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// inputs is everything the run sends, generated from the seed before any
// timing starts.
type inputs struct {
	pools  [][][]*serving.PredictRequest // [variant][drift step][i]
	warm   []arrival
	base   []arrival // traced run: the untraced open-loop window
	cycles []cycle
	// canary deploy inputs
	canaryCounts [][]int64
	canaryBounds []int64
	probes       []*serving.PredictRequest
}

// cycle is one open-loop window followed by one closed-loop window. A run
// interleaves several so that every metric samples the whole run.
type cycle struct {
	open   []arrival // due times relative to the window start
	events []event   // timeline actions relative to the window start
	closed [][]call  // one sequence per closed-loop client
}

// plan splits the measured seconds: seven tenths open loop, three tenths
// closed loop, interleaved over cycles. The traced run has one cycle and
// spends half its open-loop time on an untraced baseline window.
type plan struct {
	cycles             int
	openWin, closedWin time.Duration // per cycle
}

func planOf(o options) plan {
	total := time.Duration(o.seconds * float64(time.Second))
	closed := total * 3 / 10
	open := total - closed
	if o.trace {
		return plan{cycles: 1, openWin: open / 2, closedWin: closed}
	}
	return plan{cycles: cycles, openWin: open / cycles, closedWin: closed / cycles}
}

func makeInputs(w *workloadDef, o options) (*inputs, error) {
	in := &inputs{pools: make([][][]*serving.PredictRequest, len(w.variants))}
	pl := planOf(o)
	openTotal := pl.openWin * time.Duration(pl.cycles)
	events := timeline(w, openTotal)
	steps := 0
	for _, e := range events {
		if e.kind == evDrift {
			steps++
		}
	}
	for i := range w.variants {
		v := &w.variants[i]
		g, err := newGenerator(v, o.seed^0x8bb84b93962eacc9^uint64(i)<<8)
		if err != nil {
			return nil, err
		}
		if v.canary {
			window, err := g.window()
			if err != nil {
				return nil, err
			}
			for _, st := range window {
				in.canaryCounts = append(in.canaryCounts, st.Counts)
			}
			in.canaryBounds = replan(window)
			for k := 0; k < probes; k++ {
				in.probes = append(in.probes, g.request())
			}
			continue
		}
		n := 1
		if v.drifting {
			n = steps + 1
		}
		for k := 0; k < n; k++ {
			g.drift.SetShift(int64(k) * v.cfg.RowsPerTable / 4)
			pool := make([]*serving.PredictRequest, poolSize)
			for j := range pool {
				pool[j] = g.request()
			}
			in.pools[i] = append(in.pools[i], pool)
		}
	}
	rng := workload.NewRNG(o.seed*0x9e3779b97f4a7c15 + 1)
	in.warm = in.schedule(w, rng, warmOpen, nil)
	if o.trace {
		in.base = in.schedule(w, rng, pl.openWin, nil)
	}
	all := in.schedule(w, rng, openTotal, events)
	for k := 0; k < pl.cycles; k++ {
		lo, hi := pl.openWin*time.Duration(k), pl.openWin*time.Duration(k+1)
		var c cycle
		for _, a := range all {
			if a.due >= lo && a.due < hi {
				a.due -= lo
				c.open = append(c.open, a)
			}
		}
		step := 0
		for _, e := range events {
			if e.at >= lo && e.at < hi {
				e.at -= lo
				c.events = append(c.events, e)
			}
			if e.kind == evDrift && e.at < hi {
				step++
			}
		}
		for n := 0; n < runtime.GOMAXPROCS(0); n++ {
			seq := make([]call, 1024)
			for j := range seq {
				m := pickModel(w, rng)
				pool := in.pools[m][min(step, len(in.pools[m])-1)]
				seq[j] = call{model: m, req: pool[rng.Intn(int64(len(pool)))]}
			}
			c.closed = append(c.closed, seq)
		}
		in.cycles = append(in.cycles, c)
	}
	return in, nil
}

// schedule draws Poisson arrivals at the workload's fixed rate for dur.
// With a timeline, a drifting variant's requests due after its k-th drift
// come from drift step k's pool.
func (in *inputs) schedule(w *workloadDef, rng *workload.RNG, dur time.Duration, events []event) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / w.rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		m := pickModel(w, rng)
		step := 0
		if w.variants[m].drifting {
			for _, e := range events {
				if e.kind == evDrift && e.at <= due {
					step++
				}
			}
		}
		pool := in.pools[m][step]
		out = append(out, arrival{due: due, model: m, req: pool[rng.Intn(int64(len(pool)))]})
	}
}

// pickModel draws a served (non-canary) variant by traffic weight.
func pickModel(w *workloadDef, rng *workload.RNG) int {
	x := rng.Float64()
	last := 0
	for i, v := range w.variants {
		if v.canary {
			continue
		}
		last = i
		if x < v.weight {
			return i
		}
		x -= v.weight
	}
	return last
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// run executes one benchmark run and returns its result.
func run(out io.Writer, o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	in, err := makeInputs(w, o)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	tr := newTracer(w)

	// Set-up: stand the stack up several times and report the median; the
	// last one serves the run.
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
			runtime.GC()
		}
		start := time.Now()
		if d, err = setup(w, o.seed, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	if o.trace {
		if err := installTaps(d, w, tr); err != nil {
			return nil, fmt.Errorf("installing trace taps: %w", err)
		}
	}
	pl := planOf(o)
	fmt.Fprintf(out, "workload %s seed %d: %d cycles of %.1f s open loop at %.0f/s and %.1f s closed loop with %d clients; setups %.3f s\n",
		w.name, o.seed, pl.cycles, pl.openWin.Seconds(), w.rate, pl.closedWin.Seconds(), len(in.cycles[0].closed), setups)

	r := &runner{w: w, o: o, in: in, d: d, tr: tr, out: out}
	warm := openLoop("warm-up", d.client, in.warm, 1<<30, nil, time.Now())
	r.account(warm, false)

	if o.trace {
		return r.traced(pl.closedWin)
	}

	resetShards(d)
	ctl := newCtlStats()
	var open, closed phase
	var allocB, touchedB int64
	for k, c := range in.cycles {
		settle()
		op := r.openWithTimeline(fmt.Sprintf("open-%d", k+1), c, ctl)
		if k == len(in.cycles)-1 {
			allocB, touchedB = memory(d)
		}
		settle()
		cl := closedLoop(fmt.Sprintf("closed-%d", k+1), d.client, c.closed, warmClosed, pl.closedWin, nil)
		r.account(op, true)
		r.account(cl, true)
		open.merge(op)
		closed.merge(cl)
	}
	r.accountCtl(ctl)
	r.report(&open, &closed)

	mismatched, err := r.oracle()
	if err != nil {
		return nil, err
	}
	if len(open.lat) < 1000 {
		fmt.Fprintf(out, "warning: the open-loop windows hold %d completions; p99 needs at least 1000\n", len(open.lat))
	}
	r.drop()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	res := r.result(mismatched)
	res.metrics = []metric{
		{"setup_s", "s", median(setups)},
		{"p50_ms", "ms", msOf(quantile(open.lat, 0.50))},
		{"p99_ms", "ms", msOf(quantile(open.lat, 0.99))},
		{"closed_qps", "qps", closed.rate()},
		{"ok_ratio", "ratio", float64(res.attempted-res.failed) / float64(res.attempted)},
		{"mem_alloc_mb", "MB", float64(allocB) / 1e6},
		{"mem_utility", "ratio", float64(touchedB) / float64(allocB)},
		{"live_heap_mb", "MB", float64(ms.HeapAlloc) / 1e6},
	}
	printMetrics(out, res.metrics)
	return res, nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// settle runs a garbage collection between windows, so a collection
// owed by one window's allocations is not paid inside the next window:
// each window then sees only the collections its own traffic triggers.
func settle() { runtime.GC() }

// runner carries one run's state across its phases.
type runner struct {
	w   *workloadDef
	o   options
	in  *inputs
	d   *deployment
	tr  *tracer
	out io.Writer

	attempted, failed int
	samples           []sample
	exact             float64 // share of oracle samples bit-identical to the monolith
}

// account adds a phase's outcomes to the run's totals; kept phases also
// contribute their oracle samples.
func (r *runner) account(p *phase, keep bool) {
	r.attempted += p.sent
	r.failed += p.fail
	if keep {
		r.samples = append(r.samples, p.samples...)
	}
	if p.name != "warm-up" {
		fmt.Fprintf(r.out, "phase %-14s sent %6d  succeeded %6d  failed %4d  p50 %7.3f ms  p99 %7.3f ms\n",
			p.name, p.sent, p.ok, p.fail, msOf(quantile(p.lat, 0.5)), msOf(quantile(p.lat, 0.99)))
	}
}

func (r *runner) accountCtl(c *ctlStats) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.samples = append(r.samples, c.samples...)
	for _, e := range c.errs {
		fmt.Fprintln(r.out, "controller error:", e)
	}
	if c.attempted > 0 {
		fmt.Fprintf(r.out, "phase %-14s sent %6d  succeeded %6d  failed %4d\n", "controller", c.attempted,
			c.attempted-c.failed, c.failed)
	}
	if len(c.swaps) > 0 {
		hits, built, reused := 0, 0, 0
		for _, s := range c.swaps {
			built += s.ShardsBuilt
			reused += s.ShardsReused
			if s.CacheHit {
				hits++
			}
		}
		fmt.Fprintf(r.out, "swaps: %d (plan-cache hits %d), shards built %d, reused %d, mean %.1f ms\n",
			len(c.swaps), hits, built, reused, meanMs(c.repartition))
	}
}

func (r *runner) report(open, closed *phase) {
	fmt.Fprintf(r.out, "open loop: %d completions in %.1f s, p50 %.3f ms, p99 %.3f ms, generator lag p99 %.3f ms\n",
		len(open.lat), open.elapsed.Seconds(), msOf(quantile(open.lat, 0.5)), msOf(quantile(open.lat, 0.99)),
		msOf(quantile(open.lag, 0.99)))
	fmt.Fprintf(r.out, "closed loop: %d completions in %.1f s (%.1f/s), p50 %.3f ms\n",
		closed.completed, closed.elapsed.Seconds(), closed.rate(), msOf(quantile(closed.lat, 0.5)))
}

func (r *runner) result(mismatched int) *result {
	r.failed += mismatched
	return &result{correct: mismatched == 0, attempted: r.attempted, failed: r.failed}
}

// drop releases the benchmark's own inputs and samples so the heap
// measurement sees the program under test.
func (r *runner) drop() {
	r.in = nil
	r.samples = nil
	r.tr.take()
}

// oracle compares every kept reply with serving.NewMonolith run on the
// same weights and request. A reply fails when any probability is off by
// more than oracleTol, the tolerance of the repository's own sharded and
// row-cache equivalence tests. Bit-exactness is counted separately: the
// v1 pooled path sums per-shard partial sums, which reassociates the
// pooling, so it is reported (exact share, largest difference) rather
// than gated.
func (r *runner) oracle() (mismatched int, err error) {
	monos := make([]*serving.Monolith, len(r.w.variants))
	for i := range r.w.variants {
		v := &r.w.variants[i]
		m := r.d.models[i]
		if m == nil {
			if m, err = model.New(v.cfg, modelSeed(r.o.seed, i)); err != nil {
				return 0, err
			}
		}
		monos[i] = serving.NewMonolith(m)
	}
	exact, maxDiff := 0, 0.0
	for _, s := range r.samples {
		var want serving.PredictReply
		if err := monos[s.model].Predict(context.Background(), s.req, &want); err != nil {
			return 0, fmt.Errorf("oracle: monolith: %w", err)
		}
		bad, same := len(want.Probs) != len(s.probs), true
		for j := 0; !bad && j < len(want.Probs); j++ {
			diff := math.Abs(float64(want.Probs[j] - s.probs[j]))
			maxDiff = math.Max(maxDiff, diff)
			same = same && diff == 0
			bad = diff > oracleTol
		}
		if bad {
			mismatched++
		}
		if same && !bad {
			exact++
		}
	}
	r.exact = float64(exact) / math.Max(1, float64(len(r.samples)))
	fmt.Fprintf(r.out, "oracle: %d sampled replies checked against the monolith: %d beyond %.0e, %d bit-exact, max |diff| %.3g\n",
		len(r.samples), mismatched, oracleTol, exact, maxDiff)
	return mismatched, nil
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
}
