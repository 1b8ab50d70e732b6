package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serving/wire"
)

// TestMixedTransportClients serves one multi-model frontend and drives it
// with two predict clients at the same time, over the same listener, while
// the admin client shares that listener too. Both predict clients must
// score identically to the variants' monoliths, and admin calls must keep
// working beside them.
func TestMixedTransportClients(t *testing.T) {
	md, monos, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	clients := map[string]PredictClient{}
	for _, cname := range []string{"first", "second"} {
		c, err := DialPredict(addr, "Frontend")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[cname] = c
	}
	admin, err := DialAdmin(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, len(clients)+1)
	for cname, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range []string{"a", "b"} {
				for _, req := range reqs[name] {
					var got, want PredictReply
					if err := client.Predict(bg, req, &got); err != nil {
						errCh <- err
						return
					}
					if err := monos[name].Predict(bg, req, &want); err != nil {
						errCh <- err
						return
					}
					for j := range want.Probs {
						if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
							errCh <- errors.New(cname + " client diverged from monolith on " + name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			st, err := admin.Status(bg, "")
			if err != nil {
				errCh <- fmt.Errorf("admin over shared listener: %w", err)
				return
			}
			if len(st) != 2 {
				errCh <- fmt.Errorf("admin status models = %d, want 2", len(st))
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestNonMagicConnectionClosed checks the listener speaks one protocol: a
// client that does not open with the wire magic (here a net/rpc gob
// client) gets an error promptly instead of hanging, binary clients on
// the same listener keep being served, and a second registration under
// a taken name fails.
func TestNonMagicConnectionClosed(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPredict("Slow", slowPredict{}); err == nil {
		t.Fatal("duplicate predict registration accepted")
	}
	if err := srv.RegisterGather("Slow", nopGather{}); err == nil {
		t.Fatal("gather registration under a predict service's name accepted")
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	gob, err := rpc.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gob.Close()
	done := make(chan error, 1)
	go func() {
		var reply PredictReply
		done <- gob.Call("Slow.Predict", &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &reply)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("gob call on the binary listener succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gob call on the binary listener hung")
	}

	var ok PredictReply
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &ok); err != nil {
		t.Fatalf("binary client after a rejected connection: %v", err)
	}
	if len(ok.Probs) != 1 || ok.Probs[0] != 1 {
		t.Fatalf("binary reply = %v", ok.Probs)
	}
}

// TestWireRowsPredictAccuracy builds twin TCP deployments of the same
// three-tier plan — one on gather path v2 with the hot-row cache on, one
// on the v1 pooled path — and checks every prediction agrees within 1e-5:
// rows-mode requests, cache hits and the zero-copy reply encoder all run
// on one wire, and raw float32 rows re-expanded in the monolith's order
// must pool to the same sums the shards pool on the v1 path.
func TestWireRowsPredictAccuracy(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	pooled, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable},
		BuildOptions{Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer pooled.Close()
	rows, err := BuildElastic(m.Clone(), stats, []int64{50, 200, cfg.RowsPerTable},
		BuildOptions{Transport: TransportTCP, RowCacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 24; i++ {
		req := makeRequest(cfg, gen, uint64(3000+i))
		var got, want PredictReply
		if err := rows.Predict(bg, req, &got); err != nil {
			t.Fatal(err)
		}
		if err := pooled.Predict(bg, req, &want); err != nil {
			t.Fatal(err)
		}
		for j := range want.Probs {
			if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-5 {
				t.Fatalf("req %d input %d: rows path %v != pooled path %v", i, j, got.Probs[j], want.Probs[j])
			}
		}
	}
	if bc := rows.BuildCounters(); bc.RowCacheHits == 0 || bc.RowCacheMisses == 0 {
		t.Fatalf("row cache hits=%d misses=%d, want both > 0", bc.RowCacheHits, bc.RowCacheMisses)
	}
	if bc := pooled.BuildCounters(); bc.RowCacheHits != 0 || bc.RowCacheMisses != 0 {
		t.Fatalf("cache-off deployment counted row cache hits=%d misses=%d", bc.RowCacheHits, bc.RowCacheMisses)
	}
}

// TestGatherRowsOverTCP runs gather path v2 (rows-mode requests, the
// hot-row cache, shard-side zero-copy reply encoding) over TCP: raw rows
// ride the wire exactly, and the frontend re-expansion accumulates in the
// monolith's order, so the 1e-5 equivalence bound of the v1 path must
// hold unchanged. The cache budget is small enough that both cache hits
// and wire-fetched misses occur.
func TestGatherRowsOverTCP(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2 // fewer sockets
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	ld, err := BuildElastic(m, stats, []int64{50, cfg.RowsPerTable},
		BuildOptions{Transport: TransportTCP, RowCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i := 0; i < 24; i++ {
		req := makeRequest(cfg, gen, uint64(4000+i))
		var got, want PredictReply
		if err := ld.Predict(bg, req, &got); err != nil {
			t.Fatal(err)
		}
		if err := mono.Predict(bg, req, &want); err != nil {
			t.Fatal(err)
		}
		for j := range want.Probs {
			if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-5 {
				t.Fatalf("req %d input %d: rows-mode TCP %v != monolith %v", i, j, got.Probs[j], want.Probs[j])
			}
		}
	}
	if bc := ld.BuildCounters(); bc.RowCacheHits == 0 || bc.RowCacheMisses == 0 {
		t.Fatalf("row cache hits=%d misses=%d, want both > 0", bc.RowCacheHits, bc.RowCacheMisses)
	}
}

// slowPredict delays each reply by the duration in its model name's
// request Dense[0] (milliseconds) and echoes that value back, so a test
// can force out-of-order completion on one pipelined connection.
type slowPredict struct{}

func (slowPredict) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	delay := time.Duration(req.Dense[0]) * time.Millisecond
	select {
	case <-time.After(delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	reply.Probs = []float32{req.Dense[0]}
	return nil
}

// TestWirePipelinedOutOfOrder issues concurrent calls through one binary
// connection with inverted delays: the last request finishes first, so
// replies come back out of submission order and each must still land on
// its own call.
func TestWirePipelinedOutOfOrder(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	replies := make([]PredictReply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{float32((n - i) * 10)}}
			errs[i] = client.Predict(bg, req, &replies[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := float32((n - i) * 10); len(replies[i].Probs) != 1 || replies[i].Probs[0] != want {
			t.Fatalf("call %d got %v, want [%v] — replies crossed", i, replies[i].Probs, want)
		}
	}
}

// TestWireCancelAbandonsCall cancels a call mid-flight and checks the
// abandonment contract: the caller gets ctx.Err() promptly, the
// late reply is discarded without racing anyone, and the connection stays
// usable for subsequent calls.
func TestWireCancelAbandonsCall(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Cancel rather than time out: a deadline would ride the wire, and the
	// server's reply to its own expired context could then race the
	// client's timer. The server sleeps 1.5 s, well inside the 3 s wire
	// deadline, so its late reply lands after the caller has gone.
	ctx, cancel := context.WithTimeout(bg, 3*time.Second)
	defer cancel()
	time.AfterFunc(30*time.Millisecond, cancel)
	var abandoned PredictReply
	req := &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1500}}
	start := time.Now()
	err = client.Predict(ctx, req, &abandoned)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled call did not return promptly")
	}

	var ok PredictReply
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &ok); err != nil {
		t.Fatalf("connection unusable after abandoned call: %v", err)
	}
	if len(ok.Probs) != 1 || ok.Probs[0] != 1 {
		t.Fatalf("post-cancel reply = %v", ok.Probs)
	}
}

// TestWireRejectsOversizedRequest checks a request frame past
// wire.MaxFrame fails on the client with an error instead of being sent
// (the server would drop the connection, failing every call on it), and
// the connection stays usable.
func TestWireRejectsOversizedRequest(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(srv.Addr(), "Slow", wire.KindPredict, DialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.Call(bg,
		func(b []byte) []byte { return append(b, make([]byte, wire.MaxFrame)...) },
		func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized request error = %v", err)
	}
	var ok PredictReply
	err = conn.Call(bg,
		func(b []byte) []byte {
			return wire.AppendPredictRequest(b, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}})
		},
		func(p []byte) error { return wire.DecodePredictReply(p, &ok) })
	if err != nil || len(ok.Probs) != 1 || ok.Probs[0] != 1 {
		t.Fatalf("call after a rejected oversized request: %v, %v", ok.Probs, err)
	}
}
