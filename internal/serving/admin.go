package serving

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving/wire"
)

// This file is the wire form of the control plane: the Controller's
// lifecycle API (Deploy / Undeploy / Status) exposed as a versioned admin
// call service on the same frontend listener that serves Predict traffic.
// Each admin call is one wire call frame: a method byte followed by the
// gob-encoded Admin*Request; the reply frame carries the gob-encoded
// Admin*Reply. Gob is only the payload encoding here — it round-trips
// model.Config, BuildOptions and ModelStatus as they are, non-finite
// floats included. Every request carries AdminAPIVersion; a frontend
// refuses a request from a different control-plane generation instead of
// misinterpreting it, so admin tooling and servers can roll
// independently. A Deploy request does not ship model weights — it ships
// the variant's spec (architecture config + parameter seed +
// profiling-window counts), and the frontend instantiates the model
// locally, exactly how every other layer of this repository materializes
// variants.

// AdminAPIVersion is the control-plane wire version. Bump it when a
// request/reply shape changes incompatibly; servers reject mismatches.
const AdminAPIVersion = 1

// AdminServiceName returns the admin service name exported alongside a
// predict frontend registered under frontend.
func AdminServiceName(frontend string) string { return frontend + "Admin" }

// AdminDeployRequest asks a frontend to build and publish a new variant.
type AdminDeployRequest struct {
	// APIVersion must equal AdminAPIVersion.
	APIVersion int
	// Name is the variant name the frontend will serve it under.
	Name string
	// Config is the variant's DLRM architecture and workload geometry.
	Config model.Config
	// Seed selects the variant's parameters (model.New(Config, Seed)).
	Seed uint64
	// Counts[t] is table t's profiling-window access counts in
	// original-ID space — the window the deploy preprocesses and
	// pre-warms from.
	Counts [][]int64
	// Boundaries is the initial shard plan.
	Boundaries []int64
	// Options configures transport/replicas/batching/plan-cache.
	Options BuildOptions
	// Deadline bounds the deploy server-side (unix nanos, 0 = none), like
	// every other wire deadline in this repository. It is checked at the
	// build boundary: a deploy whose deadline passed mid-build is torn
	// down instead of published, so a timed-out client can safely retry.
	Deadline int64
}

// AdminDeployReply reports the published variant.
type AdminDeployReply struct {
	Model  string
	Epoch  int64
	Shards int
}

// AdminUndeployRequest asks a frontend to drain a variant out.
type AdminUndeployRequest struct {
	APIVersion int
	Model      string
	// Deadline bounds the drain server-side (unix nanos, 0 = none).
	Deadline int64
}

// AdminUndeployReply reports the retired variant.
type AdminUndeployReply struct {
	Model string
}

// AdminStatusRequest asks for per-model snapshots (Model empty = all).
type AdminStatusRequest struct {
	APIVersion int
	Model      string
	Deadline   int64
}

// AdminStatusReply carries the snapshots in registration order.
type AdminStatusReply struct {
	Models []ModelStatus
}

// checkAdminVersion rejects requests from a different control-plane
// generation.
func checkAdminVersion(got int) error {
	if got != AdminAPIVersion {
		return fmt.Errorf("serving: admin API version %d not supported (server speaks v%d)", got, AdminAPIVersion)
	}
	return nil
}

// Admin call methods: the first byte of every admin call payload.
const (
	adminDeploy byte = iota + 1
	adminUndeploy
	adminStatus
)

// adminService serves a Controller's lifecycle API as a wire call service
// (deadlines ride the requests, same contract as the predict/gather
// services).
type adminService struct{ ctrl *Controller }

// Call decodes the method byte and the gob request, runs the method and
// returns the gob-encoded reply.
func (a adminService) Call(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("serving: empty admin call")
	}
	method, body := payload[0], payload[1:]
	switch method {
	case adminDeploy:
		return serveAdmin(body, a.Deploy)
	case adminUndeploy:
		return serveAdmin(body, a.Undeploy)
	case adminStatus:
		return serveAdmin(body, a.Status)
	default:
		return nil, fmt.Errorf("serving: unknown admin method %d", method)
	}
}

// serveAdmin runs one admin method over gob-encoded payloads.
func serveAdmin[Req, Rep any](body []byte, method func(*Req, *Rep) error) ([]byte, error) {
	var req Req
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("serving: admin request: %w", err)
	}
	var rep Rep
	if err := method(&req, &rep); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&rep); err != nil {
		return nil, fmt.Errorf("serving: admin reply: %w", err)
	}
	return out.Bytes(), nil
}

// Deploy reconstructs the variant from its spec (model weights from
// Config+Seed, profiling window from Counts) and publishes it into the
// running frontend.
func (a adminService) Deploy(req *AdminDeployRequest, reply *AdminDeployReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	ctx, cancel := deadlineContext(req.Deadline)
	defer cancel()
	m, err := model.New(req.Config, req.Seed)
	if err != nil {
		return fmt.Errorf("serving: admin deploy %q: %w", req.Name, err)
	}
	if len(req.Counts) != req.Config.NumTables {
		return fmt.Errorf("serving: admin deploy %q: %d count tables, want %d",
			req.Name, len(req.Counts), req.Config.NumTables)
	}
	stats := make([]*embedding.AccessStats, len(req.Counts))
	for t, counts := range req.Counts {
		if int64(len(counts)) != req.Config.RowsPerTable {
			return fmt.Errorf("serving: admin deploy %q: table %d counts cover %d rows, want %d",
				req.Name, t, len(counts), req.Config.RowsPerTable)
		}
		st := &embedding.AccessStats{Counts: append([]int64(nil), counts...)}
		for _, c := range counts {
			st.Total += c
		}
		stats[t] = st
	}
	if err := a.ctrl.Deploy(ctx, ModelSpec{
		Name: req.Name, Model: m, Stats: stats,
		Boundaries: req.Boundaries, Options: req.Options,
	}); err != nil {
		return err
	}
	st, ok := a.ctrl.ModelStatus(req.Name)
	if !ok {
		return fmt.Errorf("serving: admin deploy %q: published model missing from status", req.Name)
	}
	reply.Model = st.Model
	reply.Epoch = st.Epoch
	reply.Shards = st.Shards
	return nil
}

// Undeploy drains the variant out of the frontend within the request
// deadline.
func (a adminService) Undeploy(req *AdminUndeployRequest, reply *AdminUndeployReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	ctx, cancel := deadlineContext(req.Deadline)
	defer cancel()
	if err := a.ctrl.Undeploy(ctx, req.Model); err != nil {
		return err
	}
	reply.Model = canonicalModel(req.Model)
	return nil
}

// Status snapshots one variant, or all of them when req.Model is empty.
func (a adminService) Status(req *AdminStatusRequest, reply *AdminStatusReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	if req.Model != "" {
		st, ok := a.ctrl.ModelStatus(req.Model)
		if !ok {
			return fmt.Errorf("serving: admin status: no model %q", canonicalModel(req.Model))
		}
		reply.Models = []ModelStatus{st}
		return nil
	}
	reply.Models = a.ctrl.Status()
	return nil
}

// AdminClient drives a remote frontend's control plane. Every call stamps
// AdminAPIVersion and the context deadline onto the request; a canceled
// context unblocks the caller at once, and the abandoned call's reply is
// decoded into private storage and dropped, never into the caller's.
type AdminClient struct {
	conn *wire.Conn
}

// DialAdmin connects to the admin service exported alongside the predict
// frontend registered under frontend at addr (see AdminServiceName). The
// dial is bounded by DialTimeout like every other transport dial.
func DialAdmin(addr, frontend string) (*AdminClient, error) {
	c, err := wire.Dial(addr, AdminServiceName(frontend), wire.KindCall, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &AdminClient{conn: c}, nil
}

// adminCall issues one admin method call: the method byte plus the
// gob-encoded request out, the gob-encoded reply back into reply.
func adminCall[Rep any](ctx context.Context, c *wire.Conn, method byte, req any, reply *Rep) error {
	var body bytes.Buffer
	body.WriteByte(method)
	if err := gob.NewEncoder(&body).Encode(req); err != nil {
		return fmt.Errorf("serving: admin request: %w", err)
	}
	var inner Rep
	err := c.Call(ctx,
		func(b []byte) []byte { return append(b, body.Bytes()...) },
		func(p []byte) error { return gob.NewDecoder(bytes.NewReader(p)).Decode(&inner) })
	if err != nil {
		return err
	}
	*reply = inner
	return nil
}

// Deploy builds and publishes a variant on the remote frontend.
func (c *AdminClient) Deploy(ctx context.Context, req *AdminDeployRequest, reply *AdminDeployReply) error {
	stamped := *req
	stamped.APIVersion = AdminAPIVersion
	stamped.Deadline = ctxDeadlineNanos(ctx)
	return adminCall(ctx, c.conn, adminDeploy, &stamped, reply)
}

// Undeploy drains a variant out of the remote frontend.
func (c *AdminClient) Undeploy(ctx context.Context, mdl string) (AdminUndeployReply, error) {
	req := &AdminUndeployRequest{APIVersion: AdminAPIVersion, Model: mdl, Deadline: ctxDeadlineNanos(ctx)}
	var reply AdminUndeployReply
	err := adminCall(ctx, c.conn, adminUndeploy, req, &reply)
	return reply, err
}

// Status snapshots the remote frontend's variants (mdl empty = all).
func (c *AdminClient) Status(ctx context.Context, mdl string) ([]ModelStatus, error) {
	req := &AdminStatusRequest{APIVersion: AdminAPIVersion, Model: mdl, Deadline: ctxDeadlineNanos(ctx)}
	var reply AdminStatusReply
	if err := adminCall(ctx, c.conn, adminStatus, req, &reply); err != nil {
		return nil, err
	}
	return reply.Models, nil
}

// Close tears down the connection.
func (c *AdminClient) Close() error { return c.conn.Close() }
