package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// requestTimeout bounds every predict; a request past it counts as failed.
const requestTimeout = 2 * time.Second

// arrival is one open-loop request, due at an offset from the phase start.
type arrival struct {
	due   time.Duration
	model int
	req   *serving.PredictRequest
}

// call is one request the closed loop sends.
type call struct {
	model int
	req   *serving.PredictRequest
}

// sample is a reply kept for the output oracle.
type sample struct {
	model int
	req   *serving.PredictRequest
	probs []float32
}

// phase is one measured window's outcome.
type phase struct {
	name           string
	sent, ok, fail int
	completed      int             // closed loop: completions inside the window
	lat            []time.Duration // successful requests, from due time
	lag            []time.Duration // send time − due time (open loop)
	elapsed        time.Duration
	samples        []sample
}

// predict sends one request with the benchmark's deadline and checks the
// reply's shape.
func predict(client serving.PredictClient, req *serving.PredictRequest) ([]float32, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	var reply serving.PredictReply
	if err := client.Predict(ctx, req, &reply); err != nil {
		return nil, err
	}
	if len(reply.Probs) != req.BatchSize {
		return nil, fmt.Errorf("reply has %d probabilities for %d inputs", len(reply.Probs), req.BatchSize)
	}
	return reply.Probs, nil
}

// openLoop issues each arrival at its due time over the shared client,
// whether or not earlier requests have completed, and times each from
// when it was due. Every sampleEvery-th reply is kept for the oracle.
// When tr is enabled, each call is also recorded as a client span.
func openLoop(name string, client serving.PredictClient, arrivals []arrival, sampleEvery int, tr *tracer, t0 time.Time) *phase {
	type outcome struct {
		lat, lag time.Duration
		err      error
	}
	outs := make([]outcome, len(arrivals))
	samples := make([]sample, (len(arrivals)+sampleEvery-1)/sampleEvery)
	var wg sync.WaitGroup
	for i := range arrivals {
		a := &arrivals[i]
		due := t0.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send := time.Now()
			probs, err := predict(client, a.req)
			end := time.Now()
			outs[i] = outcome{lat: end.Sub(due), lag: send.Sub(due), err: err}
			if tr.enabled() {
				tr.record(span{id: tr.ids.Add(1), start: tr.at(send), end: tr.at(end), layer: layerClient,
					model: a.model, n: a.req.BatchSize})
			}
			if i%sampleEvery == 0 {
				samples[i/sampleEvery] = sample{model: a.model, req: a.req, probs: probs}
			}
		}(i)
	}
	wg.Wait()
	p := &phase{name: name, elapsed: time.Since(t0)}
	for _, o := range outs {
		p.sent++
		p.lag = append(p.lag, o.lag)
		if o.err != nil {
			p.fail++
			continue
		}
		p.ok++
		p.lat = append(p.lat, o.lat)
	}
	for _, s := range samples {
		if s.probs != nil {
			p.samples = append(p.samples, s)
		}
	}
	return p
}

// closedLoop runs one client per entry of seqs, each sending its next
// call only after the previous one completes, cycling through its
// sequence. Completions within [warm, warm+window) after start are
// counted; every sampleEvery-th completion per client is kept for the
// oracle, up to closedSamples per client.
func closedLoop(name string, client serving.PredictClient, seqs [][]call, warm, window time.Duration, tr *tracer) *phase {
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+window)
	var sent, fail, counted atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var lat []time.Duration
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(seq []call) {
			defer wg.Done()
			var mine []sample
			var myLat []time.Duration
			for i := 0; ; i++ {
				st := time.Now()
				if !st.Before(to) {
					break
				}
				cl := seq[i%len(seq)]
				sent.Add(1)
				probs, err := predict(client, cl.req)
				end := time.Now()
				if tr.enabled() {
					tr.record(span{id: tr.ids.Add(1), start: tr.at(st), end: tr.at(end), layer: layerClient,
						model: cl.model, n: cl.req.BatchSize})
				}
				if err != nil {
					fail.Add(1)
					continue
				}
				if !end.Before(from) && end.Before(to) {
					counted.Add(1)
					myLat = append(myLat, end.Sub(st))
				}
				if i%sampleEvery == 0 && len(mine) < closedSamples {
					mine = append(mine, sample{model: cl.model, req: cl.req, probs: probs})
				}
			}
			mu.Lock()
			samples = append(samples, mine...)
			lat = append(lat, myLat...)
			mu.Unlock()
		}(seqs[c])
	}
	wg.Wait()
	return &phase{
		name: name, sent: int(sent.Load()), fail: int(fail.Load()), ok: int(sent.Load() - fail.Load()),
		completed: int(counted.Load()), lat: lat, elapsed: window, samples: samples,
	}
}

// merge appends another window's outcomes to p.
func (p *phase) merge(q *phase) {
	p.sent += q.sent
	p.ok += q.ok
	p.fail += q.fail
	p.completed += q.completed
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.elapsed += q.elapsed
}

// rate is the closed loop's completions per second of window.
func (p *phase) rate() float64 { return float64(p.completed) / p.elapsed.Seconds() }

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
