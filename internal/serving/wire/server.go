package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// This file is the server half of the framed transport. ServeConn checks
// the Magic prefix (anything else is hung up on), finishes the preamble
// (version, kind, service name), resolves the endpoint, acks, and then
// serves frames: requests are decoded serially on the connection's reader
// (into pooled slices), handled on one goroutine each (so a slow gather
// never blocks the pipeline behind it), and replies are written under a
// per-connection write lock with frame buffers recycled after every
// write.

// Endpoint is one resolvable service: exactly one of Gather/Predict/Call
// is set, matching the preamble kind. Rows, when non-nil, is the
// zero-copy fast path for rows-mode gathers: the service encodes rows
// straight into the reply frame, skipping the intermediate GatherReply
// materialization.
type Endpoint struct {
	Gather  GatherService
	Predict PredictService
	Call    CallService
	Rows    RowSource
}

// Resolver maps a preamble's (kind, service name) to an endpoint; an
// error refuses the connection in the ack.
type Resolver func(kind byte, name string) (Endpoint, error)

// ServeConn serves one accepted connection. It returns at once if the
// connection does not open with Magic, and otherwise blocks until the
// client hangs up or a transport error occurs. It does not close conn —
// the caller owns it.
func ServeConn(conn net.Conn, resolve Resolver) {
	ep, err := handshake(conn, resolve)
	if err != nil {
		return
	}
	serveFrames(conn, ep)
}

// handshake reads the preamble and writes the ack.
func handshake(conn net.Conn, resolve Resolver) (Endpoint, error) {
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return Endpoint{}, err
	}
	if magic != Magic {
		return Endpoint{}, errors.New("wire: connection does not open with the protocol magic")
	}
	var hdr [4]byte // version, kind, u16 nameLen
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return Endpoint{}, err
	}
	nameLen := int(le.Uint16(hdr[2:]))
	if nameLen > MaxName {
		err := fmt.Errorf("wire: service name length %d exceeds %d", nameLen, MaxName)
		_ = writeAck(conn, err)
		return Endpoint{}, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(conn, name); err != nil {
		return Endpoint{}, err
	}
	if hdr[0] != Version {
		err := fmt.Errorf("wire: protocol version %d not supported (server speaks v%d)", hdr[0], Version)
		_ = writeAck(conn, err)
		return Endpoint{}, err
	}
	ep, err := resolve(hdr[1], string(name))
	if err := writeAck(conn, err); err != nil {
		return Endpoint{}, err
	}
	return ep, err
}

// writeAck sends the handshake verdict (status 0 accepts; otherwise the
// error text rides along) and returns any transport error.
func writeAck(conn net.Conn, verdict error) error {
	var msg string
	status := byte(0)
	if verdict != nil {
		status = 1
		msg = verdict.Error()
	}
	ack := make([]byte, 0, 3+len(msg))
	ack = append(ack, status)
	ack = le.AppendUint16(ack, uint16(len(msg)))
	ack = append(ack, msg...)
	if _, err := conn.Write(ack); err != nil {
		return err
	}
	return verdict
}

// serveFrames is the per-connection request loop.
func serveFrames(conn net.Conn, ep Endpoint) {
	var wmu sync.Mutex // serializes reply writes from handler goroutines
	var wg sync.WaitGroup
	defer wg.Wait()
	r := bufio.NewReader(conn)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 8 || n > MaxFrame {
			return
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		id := binary.LittleEndian.Uint64(body)
		payload := body[8:]
		// Decode on the reader (the frame buffer is reused by the next
		// iteration; decoded messages own pooled copies), handle on a
		// fresh goroutine so completions pipeline out of order.
		switch {
		case ep.Gather != nil:
			var req GatherRequest
			if err := DecodeGatherRequest(payload, &req); err != nil {
				writeErrorReply(conn, &wmu, id, err)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				handleGather(conn, &wmu, ep, id, &req)
			}()
		case ep.Predict != nil:
			var req PredictRequest
			if err := DecodePredictRequest(payload, &req); err != nil {
				writeErrorReply(conn, &wmu, id, err)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				handlePredict(conn, &wmu, ep, id, &req)
			}()
		case ep.Call != nil:
			// Call payloads are opaque, so the service gets its own copy
			// of the frame the next iteration overwrites.
			req := append([]byte(nil), payload...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				handleCall(conn, &wmu, ep, id, req)
			}()
		default:
			return // unreachable: the resolver vets the endpoint
		}
	}
}

// handleGather services one gather frame end to end, recycling the
// decoded request and the reply's pooled rows once the reply is on the
// wire (the shard's Gather is synchronous, so nothing retains them).
func handleGather(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, req *GatherRequest) {
	ctx, cancel := DeadlineContext(req.Deadline)
	if ep.Rows != nil && len(req.Offsets) == 0 {
		// Zero-copy rows mode: the service encodes rows straight from its
		// storage into the reply frame — no intermediate float32 copy.
		b := GetBuf(64 + len(req.Indices)*256) // capacity hint: dim-64 f32 rows
		b = beginReply(b, id)
		b, err := ep.Rows.AppendGatherRows(ctx, req, b)
		cancel()
		FreeGatherRequest(req)
		if err != nil {
			PutBuf(b)
			writeErrorReply(conn, wmu, id, err)
			return
		}
		finishReply(conn, wmu, b)
		return
	}
	var reply GatherReply
	err := ep.Gather.Gather(ctx, req, &reply)
	cancel()
	FreeGatherRequest(req)
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(64 + 4*len(reply.Pooled))
	b = beginReply(b, id)
	b = AppendGatherReply(b, &reply)
	FreeGatherReply(&reply)
	finishReply(conn, wmu, b)
}

// handlePredict services one predict frame end to end (see handleGather).
func handlePredict(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, req *PredictRequest) {
	ctx, cancel := DeadlineContext(req.Deadline)
	var reply PredictReply
	err := ep.Predict.Predict(ctx, req, &reply)
	cancel()
	FreePredictRequest(req)
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(64 + 4*len(reply.Probs))
	b = beginReply(b, id)
	b = AppendPredictReply(b, &reply)
	finishReply(conn, wmu, b)
}

// handleCall services one call frame end to end.
func handleCall(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, req []byte) {
	out, err := ep.Call.Call(req)
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(16 + len(out))
	b = beginReply(b, id)
	b = append(b, out...)
	finishReply(conn, wmu, b)
}

// beginReply opens an OK reply frame (length patched by finishReply).
func beginReply(b []byte, id uint64) []byte {
	b = append(b, 0, 0, 0, 0)
	b = appendU64(b, id)
	return append(b, 0) // status OK
}

// finishReply patches the frame length, writes under the connection's
// write lock and recycles the frame buffer. Write errors are dropped: the
// reader side of a dead connection tears the loop down.
func finishReply(conn net.Conn, wmu *sync.Mutex, b []byte) {
	le.PutUint32(b, uint32(len(b)-4))
	wmu.Lock()
	_, _ = conn.Write(b)
	wmu.Unlock()
	PutBuf(b)
}

// writeErrorReply sends a status-1 frame carrying err's text.
func writeErrorReply(conn net.Conn, wmu *sync.Mutex, id uint64, err error) {
	if err == nil {
		err = errors.New("wire: unknown error")
	}
	msg := err.Error()
	b := GetBuf(16 + len(msg))
	b = append(b, 0, 0, 0, 0)
	b = appendU64(b, id)
	b = append(b, 1) // status: service error
	b = append(b, msg...)
	finishReply(conn, wmu, b)
}
