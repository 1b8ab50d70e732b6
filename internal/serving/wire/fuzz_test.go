package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWireCodec drives every decoder with arbitrary bytes. Invariants:
//
//   - no decoder may panic, whatever the input;
//   - a successful decode means the frame was canonical (the strict
//     trailing-byte checks), so re-encoding must reproduce the input
//     byte-for-byte;
//   - decoders must not allocate for element counts the frame cannot
//     hold, which the re-encode check enforces indirectly: a decoded
//     message's payload re-encodes to exactly len(input) bytes.
func FuzzWireCodec(f *testing.F) {
	f.Add(AppendGatherRequest(nil, &GatherRequest{
		Table: 2, Shard: 1, Deadline: 99,
		Indices: []int64{5, 9, 1 << 40}, Offsets: []int32{0, 2},
	}))
	f.Add(AppendGatherReply(nil, &GatherReply{
		BatchSize: 2, Dim: 3, Pooled: []float32{1, -2, 3, 0.5, 0, -0.25},
	}))
	// Non-finite rows: the float32 bits, NaN payloads included, must
	// survive the round trip unchanged.
	f.Add(AppendGatherReply(nil, &GatherReply{
		BatchSize: 2, Dim: 2, Pooled: []float32{
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7fc00001), float32(math.Copysign(0, -1)),
		},
	}))
	// Rows-mode request (empty offsets — gather path v2), a degenerate
	// zero-dim reply, and a zero-copy-encoded rows frame: the
	// row-at-a-time append path must produce the same canonical bytes as
	// the whole-reply encoder.
	f.Add(AppendGatherRequest(nil, &GatherRequest{
		Table: 1, Shard: 3, Deadline: 42, Indices: []int64{0, 7, 7, 1 << 20},
	}))
	f.Add(AppendGatherReply(nil, &GatherReply{BatchSize: 3}))
	zc := AppendGatherReplyHeader(nil, 2, 2)
	zc = AppendGatherRow(zc, []float32{0.25, -1})
	zc = AppendGatherRow(zc, []float32{3, 4})
	f.Add(zc)
	f.Add(AppendPredictRequest(nil, &PredictRequest{
		Model: "rm1", BatchSize: 2, DenseDim: 2, Deadline: 7,
		Dense: []float32{1, 2, 3, 4},
		Tables: []TableBatch{
			{Indices: []int64{1, 2, 3}, Offsets: []int32{0, 2}},
			{Indices: []int64{9}, Offsets: []int32{0, 1}},
		},
	}))
	f.Add(AppendPredictReply(nil, &PredictReply{Probs: []float32{0.25, 0.75}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var greq GatherRequest
		if err := DecodeGatherRequest(data, &greq); err == nil {
			if out := AppendGatherRequest(nil, &greq); !bytes.Equal(out, data) {
				t.Fatalf("GatherRequest not canonical: %x -> %x", data, out)
			}
			FreeGatherRequest(&greq)
		}

		var grep GatherReply
		if err := DecodeGatherReply(data, &grep); err == nil {
			if out := AppendGatherReply(nil, &grep); !bytes.Equal(out, data) {
				t.Fatalf("GatherReply not canonical: %x -> %x", data, out)
			}
			FreeGatherReply(&grep)
		}

		var preq PredictRequest
		if err := DecodePredictRequest(data, &preq); err == nil {
			if out := AppendPredictRequest(nil, &preq); !bytes.Equal(out, data) {
				t.Fatalf("PredictRequest not canonical: %x -> %x", data, out)
			}
			FreePredictRequest(&preq)
		}

		var prep PredictReply
		if err := DecodePredictReply(data, &prep); err == nil {
			if out := AppendPredictReply(nil, &prep); !bytes.Equal(out, data) {
				t.Fatalf("PredictReply not canonical: %x -> %x", data, out)
			}
		}
	})
}
