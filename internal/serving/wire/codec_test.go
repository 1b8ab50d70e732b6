package wire

import (
	"math"
	"math/rand"
	"testing"
)

// randGatherRequest builds a request with rng-driven geometry.
func randGatherRequest(rng *rand.Rand, nIdx, nOff int) *GatherRequest {
	req := &GatherRequest{
		Table:    rng.Intn(64),
		Shard:    rng.Intn(64),
		Deadline: rng.Int63(),
	}
	for i := 0; i < nIdx; i++ {
		req.Indices = append(req.Indices, rng.Int63())
	}
	for i := 0; i < nOff; i++ {
		req.Offsets = append(req.Offsets, rng.Int31())
	}
	return req
}

func eqI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestGatherRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ nIdx, nOff int }{
		{0, 0}, // empty batch
		{1, 1}, // minimal
		{257, 32},
		{4096, 512}, // max-batch-ish
	}
	for _, tc := range cases {
		req := randGatherRequest(rng, tc.nIdx, tc.nOff)
		if tc.nIdx == 0 {
			req.Deadline = 0 // zero-deadline case rides the empty batch
		}
		b := AppendGatherRequest(nil, req)
		var got GatherRequest
		if err := DecodeGatherRequest(b, &got); err != nil {
			t.Fatalf("decode (%d idx, %d off): %v", tc.nIdx, tc.nOff, err)
		}
		if got.Table != req.Table || got.Shard != req.Shard || got.Deadline != req.Deadline ||
			!eqI64(got.Indices, req.Indices) || !eqI32(got.Offsets, req.Offsets) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, req)
		}
		// Any truncation must error, never panic.
		for cut := 0; cut < len(b); cut++ {
			var tr GatherRequest
			if err := DecodeGatherRequest(b[:cut], &tr); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) decoded without error", cut, len(b))
			}
		}
	}
}

func TestGatherReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ bs, dim int }{{0, 0}, {1, 1}, {32, 32}, {256, 64}} {
		rep := &GatherReply{BatchSize: tc.bs, Dim: tc.dim, Pooled: make([]float32, tc.bs*tc.dim)}
		for i := range rep.Pooled {
			rep.Pooled[i] = float32(rng.NormFloat64())
		}
		b := AppendGatherReply(nil, rep)
		var got GatherReply
		if err := DecodeGatherReply(b, &got); err != nil {
			t.Fatalf("decode %dx%d: %v", tc.bs, tc.dim, err)
		}
		if got.BatchSize != tc.bs || got.Dim != tc.dim || !eqF32(got.Pooled, rep.Pooled) {
			t.Fatalf("round trip mismatch at %dx%d", tc.bs, tc.dim)
		}
		for cut := 0; cut < len(b); cut++ {
			var tr GatherReply
			if err := DecodeGatherReply(b[:cut], &tr); err == nil {
				t.Fatalf("truncated reply (%d of %d bytes) decoded without error", cut, len(b))
			}
		}
	}
}

func randPredictRequest(rng *rand.Rand, model string, bs, denseDim, nTables, nIdx int) *PredictRequest {
	req := &PredictRequest{
		Model:     model,
		BatchSize: bs,
		DenseDim:  denseDim,
		Deadline:  rng.Int63(),
		Dense:     make([]float32, bs*denseDim),
	}
	for i := range req.Dense {
		req.Dense[i] = float32(rng.NormFloat64())
	}
	for t := 0; t < nTables; t++ {
		tb := TableBatch{Offsets: make([]int32, bs)}
		for i := 0; i < nIdx; i++ {
			tb.Indices = append(tb.Indices, rng.Int63n(1_000_000))
		}
		req.Tables = append(req.Tables, tb)
	}
	return req
}

func TestPredictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []*PredictRequest{
		randPredictRequest(rng, "", 1, 0, 0, 0),        // empty tables, no dense features
		randPredictRequest(rng, "rm1", 32, 13, 4, 80),  // RM1-shaped
		randPredictRequest(rng, "x", 512, 13, 26, 400), // max-batch-ish
	}
	cases[0].Deadline = 0
	for ci, req := range cases {
		b := AppendPredictRequest(nil, req)
		var got PredictRequest
		if err := DecodePredictRequest(b, &got); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.Model != req.Model || got.BatchSize != req.BatchSize ||
			got.DenseDim != req.DenseDim || got.Deadline != req.Deadline ||
			!eqF32(got.Dense, req.Dense) || len(got.Tables) != len(req.Tables) {
			t.Fatalf("case %d: header/dense mismatch", ci)
		}
		for ti := range req.Tables {
			if !eqI64(got.Tables[ti].Indices, req.Tables[ti].Indices) ||
				!eqI32(got.Tables[ti].Offsets, req.Tables[ti].Offsets) {
				t.Fatalf("case %d table %d mismatch", ci, ti)
			}
		}
		for cut := 0; cut < len(b); cut++ {
			var tr PredictRequest
			if err := DecodePredictRequest(b[:cut], &tr); err == nil {
				t.Fatalf("case %d: truncated frame (%d of %d bytes) decoded without error", ci, cut, len(b))
			}
		}
	}

	rep := &PredictReply{Probs: []float32{0.1, 0.9, 0.5}}
	b := AppendPredictReply(nil, rep)
	var got PredictReply
	if err := DecodePredictReply(b, &got); err != nil {
		t.Fatal(err)
	}
	if !eqF32(got.Probs, rep.Probs) {
		t.Fatal("predict reply mismatch")
	}
	for cut := 0; cut < len(b); cut++ {
		var tr PredictReply
		if err := DecodePredictReply(b[:cut], &tr); err == nil {
			t.Fatalf("truncated reply (%d of %d bytes) decoded without error", cut, len(b))
		}
	}
}

// TestDecodeRejectsOversizedCounts feeds headers whose declared element
// counts exceed the bytes present: the decoders must error before
// allocating for them.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	// GatherRequest claiming 2^31 indices in a 30-byte frame.
	b := AppendGatherRequest(nil, &GatherRequest{})
	le.PutUint32(b[16:], 1<<31-1)
	var greq GatherRequest
	if err := DecodeGatherRequest(b, &greq); err == nil {
		t.Fatal("oversized index count decoded without error")
	}
	// GatherReply claiming a huge batch.
	rb := AppendGatherReply(nil, &GatherReply{BatchSize: 1, Dim: 1, Pooled: []float32{1}})
	le.PutUint32(rb[0:], 1<<31-1)
	var grep GatherReply
	if err := DecodeGatherReply(rb, &grep); err == nil {
		t.Fatal("oversized batch decoded without error")
	}
	// GatherReply with a trailing byte past its declared rows.
	rb2 := AppendGatherReply(nil, &GatherReply{BatchSize: 1, Dim: 1, Pooled: []float32{1}})
	rb2 = append(rb2, 0)
	if err := DecodeGatherReply(rb2, &grep); err == nil {
		t.Fatal("gather reply with a trailing byte decoded without error")
	}
}
