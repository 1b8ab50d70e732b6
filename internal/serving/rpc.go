package serving

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/serving/wire"
)

// This file provides the loopback-TCP transport. Every shard can be
// exported as a network service (the stand-in for the paper's C++ gRPC
// layer) and consumed through a GatherClient/PredictClient that dials it.
// Every connection speaks the binary framed protocol
// (internal/serving/wire: no reflection, pooled buffers, pipelined sticky
// connections); the admin control plane rides the same listener as call
// frames (admin.go). A connection that does not open with the wire magic
// is closed.

// DialTimeout bounds every transport dial (TCP connect plus the
// handshake), so a hung shard address fails pool construction promptly
// instead of blocking it forever.
const DialTimeout = 5 * time.Second

// RPCServer hosts one or more shard services on a TCP listener.
type RPCServer struct {
	listener net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	done     chan struct{}

	epMu      sync.RWMutex
	endpoints map[string]wire.Endpoint
}

// NewRPCServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewRPCServer(addr string) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serving: rpc listen: %w", err)
	}
	s := &RPCServer{
		listener:  ln,
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
		endpoints: make(map[string]wire.Endpoint),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address for clients to dial.
func (s *RPCServer) Addr() string { return s.listener.Addr().String() }

// RegisterGather exposes a gather service under name. If svc also
// implements wire.RowSource, rows-mode gathers take the zero-copy encode
// path.
func (s *RPCServer) RegisterGather(name string, svc GatherClient) error {
	ep := wire.Endpoint{Gather: svc}
	if rs, ok := svc.(wire.RowSource); ok {
		ep.Rows = rs
	}
	return s.register(name, ep)
}

// RegisterPredict exposes a predict service under name.
func (s *RPCServer) RegisterPredict(name string, svc PredictClient) error {
	return s.register(name, wire.Endpoint{Predict: svc})
}

// RegisterAdmin exposes a deployment's lifecycle control plane under name
// (conventionally AdminServiceName(frontend), so the admin endpoint rides
// the same listener as the predict traffic it administers).
func (s *RPCServer) RegisterAdmin(name string, ctrl *Controller) error {
	return s.register(name, wire.Endpoint{Call: adminService{ctrl: ctrl}})
}

// register adds an endpoint, refusing a name that is already taken.
func (s *RPCServer) register(name string, ep wire.Endpoint) error {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	if _, dup := s.endpoints[name]; dup {
		return fmt.Errorf("serving: service %q already registered", name)
	}
	s.endpoints[name] = ep
	return nil
}

// resolve maps a preamble to a registered endpoint.
func (s *RPCServer) resolve(kind byte, name string) (wire.Endpoint, error) {
	s.epMu.RLock()
	ep, ok := s.endpoints[name]
	s.epMu.RUnlock()
	if !ok {
		return wire.Endpoint{}, fmt.Errorf("serving: no service %q", name)
	}
	switch kind {
	case wire.KindGather:
		if ep.Gather == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q is not a gather service", name)
		}
	case wire.KindPredict:
		if ep.Predict == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q is not a predict service", name)
		}
	case wire.KindCall:
		if ep.Call == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q is not a call service", name)
		}
	default:
		return wire.Endpoint{}, fmt.Errorf("serving: unknown connection kind %d", kind)
	}
	return ep, nil
}

func (s *RPCServer) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			// A failed Accept is terminal either way; what differs is
			// whether it was asked for. Close closes s.done before the
			// listener, so a clean shutdown stays silent and a listener
			// failure is logged exactly once.
			select {
			case <-s.done:
			default:
				log.Printf("serving: rpc accept on %s failed, no longer accepting: %v", s.Addr(), err)
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			wire.ServeConn(conn, s.resolve)
			_ = conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and all live connections.
func (s *RPCServer) Close() error {
	close(s.done)
	err := s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	return err
}

// RPCGatherClient calls a remote gather service: one sticky pipelined
// connection, any number of concurrent calls.
type RPCGatherClient struct {
	conn *wire.Conn
}

// DialGather connects to a gather service registered under name at addr,
// failing fast on an unregistered name or a hung address (the dial and
// handshake are bounded by DialTimeout).
func DialGather(addr, name string) (*RPCGatherClient, error) {
	c, err := wire.Dial(addr, name, wire.KindGather, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &RPCGatherClient{conn: c}, nil
}

// Gather implements GatherClient over the wire: the context deadline is
// stamped onto the request (copy-on-write, the caller's request is never
// mutated). A canceled context unblocks the caller immediately, and the
// abandoned call's eventual reply decodes into a private struct the
// reader discards.
func (c *RPCGatherClient) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	if dl := ctxDeadlineNanos(ctx); dl != 0 && dl != req.Deadline {
		stamped := *req
		stamped.Deadline = dl
		req = &stamped
	}
	var inner GatherReply
	err := c.conn.Call(ctx,
		func(b []byte) []byte { return wire.AppendGatherRequest(b, req) },
		func(p []byte) error { return wire.DecodeGatherReply(p, &inner) })
	if err != nil {
		return err
	}
	*reply = inner
	return nil
}

// Close tears down the connection.
func (c *RPCGatherClient) Close() error { return c.conn.Close() }

var _ GatherClient = (*RPCGatherClient)(nil)

// RPCPredictClient calls a remote predict service (same pipelining and
// cancel contract as RPCGatherClient).
type RPCPredictClient struct {
	conn *wire.Conn
}

// DialPredict connects to a predict service registered under name at
// addr (see DialGather).
func DialPredict(addr, name string) (*RPCPredictClient, error) {
	c, err := wire.Dial(addr, name, wire.KindPredict, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &RPCPredictClient{conn: c}, nil
}

// Predict implements PredictClient over the wire (same deadline/cancel
// contract as RPCGatherClient.Gather).
func (c *RPCPredictClient) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	if dl := ctxDeadlineNanos(ctx); dl != 0 && dl != req.Deadline {
		stamped := *req
		stamped.Deadline = dl
		req = &stamped
	}
	var inner PredictReply
	err := c.conn.Call(ctx,
		func(b []byte) []byte { return wire.AppendPredictRequest(b, req) },
		func(p []byte) error { return wire.DecodePredictReply(p, &inner) })
	if err != nil {
		return err
	}
	*reply = inner
	return nil
}

// Close tears down the connection.
func (c *RPCPredictClient) Close() error { return c.conn.Close() }

var _ PredictClient = (*RPCPredictClient)(nil)
