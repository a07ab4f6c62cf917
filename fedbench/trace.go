package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"myriad/internal/comm"
	"myriad/internal/gateway"
	"myriad/internal/schema"
	"myriad/internal/storage"
)

// span is one timed call across a layer boundary. Spans of one client
// operation share Req once linked; Parent is the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Site   string `json:"site,omitempty"`
	Op     string `json:"op,omitempty"`
	SQL    string `json:"sql,omitempty"`
	// Txn is the global transaction id on client and fedserver spans
	// and the site branch id on conn and gateway spans; GID is a conn
	// span's owning global transaction.
	Txn   uint64 `json:"txn,omitempty"`
	GID   uint64 `json:"gid,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Rows  int64  `json:"rows,omitempty"`
	// InnerNs is the time spent inside the wrapped sink's writes
	// (handler spans) or inside Next (stream spans).
	InnerNs int64  `json:"inner_ns,omitempty"`
	Stream  bool   `json:"stream,omitempty"`
	Err     string `json:"err,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps finished spans in memory. Wrappers call begin only while
// it is on; off, they pass straight through.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []*span

	// gids maps "site/branch" to the branch's global transaction.
	gids sync.Map
	// parses accumulates sqlparser.Parse time over issued SQL texts.
	parseNs, parses atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span, or returns nil when tracing is off.
func (t *tracer) begin(name string, parent uint64) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &span{ID: t.next.Add(1), Parent: parent, Name: name, Start: t.now()}
}

// end closes s and keeps it.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (t *tracer) take() []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// write saves spans as JSON lines.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s.ID)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// ---------------------------------------------------------------------
// Handler wrappers (the handlers given to comm.NewServer)

// tracedHandler wraps a gateway or fedserver handler. It implements
// comm.StreamHandler, so streamed queries still take HandleStream.
type tracedHandler struct {
	t     *tracer
	layer string // "gateway" | "fedserver"
	site  string
	h     comm.StreamHandler
}

var _ comm.StreamHandler = (*tracedHandler)(nil)

func (t *tracer) wrapGateway(site string, gw *gateway.Gateway) *tracedHandler {
	return &tracedHandler{t: t, layer: "gateway", site: site, h: gw}
}

func (t *tracer) wrapFedServer(h comm.StreamHandler) *tracedHandler {
	return &tracedHandler{t: t, layer: "fedserver", h: h}
}

func (w *tracedHandler) open(req *comm.Request) *span {
	s := w.t.begin(w.layer+"."+string(req.Op), 0)
	if s == nil {
		return nil
	}
	s.Site, s.Op, s.SQL, s.Txn = w.site, string(req.Op), req.SQL, req.TxnID
	if req.Op == comm.OpStats {
		s.SQL = req.Table
	}
	if req.Op == comm.OpExecAt {
		s.Site = req.Table
	}
	if req.Op == comm.OpBegin && w.layer == "gateway" {
		s.GID = req.GID
	}
	return s
}

func (w *tracedHandler) Handle(ctx context.Context, req *comm.Request) *comm.Response {
	s := w.open(req)
	if s == nil {
		return w.h.Handle(ctx, req)
	}
	resp := w.h.Handle(withSpan(ctx, s), req)
	if resp != nil {
		if req.Op == comm.OpBegin {
			s.Txn = resp.TxnID
		}
		if resp.Rows != nil {
			s.Rows = int64(len(resp.Rows.Rows))
		}
		if resp.Kind != comm.ErrNone {
			s.Err = string(resp.Kind)
		}
	}
	w.t.end(s)
	return resp
}

func (w *tracedHandler) HandleStream(ctx context.Context, req *comm.Request, sink comm.RowSink) error {
	s := w.open(req)
	if s == nil {
		return w.h.HandleStream(ctx, req, sink)
	}
	s.Stream = true
	ts := &timedSink{sink: sink, s: s}
	err := w.h.HandleStream(withSpan(ctx, s), req, ts)
	if errors.Is(err, comm.ErrNotStreamable) {
		// The server falls back to Handle, which records its own span.
		return err
	}
	if err != nil {
		s.Err = err.Error()
	}
	w.t.end(s)
	return err
}

// timedSink counts rows and the time the handler spends writing them.
type timedSink struct {
	sink comm.RowSink
	s    *span
}

func (ts *timedSink) Header(cols []string) error {
	t0 := time.Now()
	err := ts.sink.Header(cols)
	ts.s.InnerNs += int64(time.Since(t0))
	return err
}

func (ts *timedSink) Row(r schema.Row) error {
	t0 := time.Now()
	err := ts.sink.Row(r)
	ts.s.InnerNs += int64(time.Since(t0))
	ts.s.Rows++
	return err
}

// ---------------------------------------------------------------------
// gateway.Conn wrapper (the Conn handed to Federation.AttachSite)

// tracedConn records a span per call. While tracing is on it routes
// through the byte-counting relay; off, through the direct pool.
type tracedConn struct {
	t       *tracer
	direct  gateway.Conn
	relayed gateway.Conn
}

var _ gateway.Conn = (*tracedConn)(nil)

func (t *tracer) wrapConn(direct, relayed gateway.Conn) *tracedConn {
	return &tracedConn{t: t, direct: direct, relayed: relayed}
}

func (c *tracedConn) pick() gateway.Conn {
	if c.t.on.Load() {
		return c.relayed
	}
	return c.direct
}

func (c *tracedConn) open(ctx context.Context, op, sql string, txn uint64) *span {
	s := c.t.begin("conn."+op, parentOf(ctx))
	if s == nil {
		return nil
	}
	s.Site, s.Op, s.SQL, s.Txn = c.Site(), op, sql, txn
	if txn != 0 {
		if gid, ok := c.t.gids.Load(branchKey(s.Site, txn)); ok {
			s.GID = gid.(uint64)
		}
	}
	return s
}

func (c *tracedConn) close(s *span, err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Err = err.Error()
	}
	c.t.end(s)
}

func branchKey(site string, branch uint64) string {
	return site + "/" + itoa(int64(branch))
}

func (c *tracedConn) Site() string { return c.direct.Site() }

func (c *tracedConn) ExportSchemas(ctx context.Context) ([]*schema.Schema, error) {
	return c.pick().ExportSchemas(ctx)
}

func (c *tracedConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	s := c.open(ctx, "stats", export, 0)
	ts, err := c.pick().Stats(ctx, export)
	c.close(s, err)
	return ts, err
}

func (c *tracedConn) Explain(ctx context.Context, sql string) (string, error) {
	return c.pick().Explain(ctx, sql)
}

func (c *tracedConn) Query(ctx context.Context, txn uint64, sql string) (*schema.ResultSet, error) {
	s := c.open(ctx, "query", sql, txn)
	rs, err := c.pick().Query(ctx, txn, sql)
	if s != nil && rs != nil {
		s.Rows = int64(len(rs.Rows))
	}
	c.close(s, err)
	return rs, err
}

func (c *tracedConn) QueryStream(ctx context.Context, txn uint64, sql string) (schema.RowStream, error) {
	s := c.open(ctx, "query", sql, txn)
	rows, err := c.pick().QueryStream(ctx, txn, sql)
	if s == nil {
		return rows, err
	}
	s.Stream = true
	if err != nil {
		c.close(s, err)
		return nil, err
	}
	return &tracedStream{RowStream: rows, c: c, s: s}, nil
}

// tracedStream times the federation's pulls from a site stream; its
// span ends when the stream is closed.
type tracedStream struct {
	schema.RowStream
	c    *tracedConn
	s    *span
	once sync.Once
}

func (ts *tracedStream) Next(ctx context.Context) (schema.Row, error) {
	t0 := time.Now()
	r, err := ts.RowStream.Next(ctx)
	ts.s.InnerNs += int64(time.Since(t0))
	if r != nil {
		ts.s.Rows++
	}
	return r, err
}

func (ts *tracedStream) Close() error {
	err := ts.RowStream.Close()
	ts.once.Do(func() { ts.c.close(ts.s, nil) })
	return err
}

func (c *tracedConn) Exec(ctx context.Context, txn uint64, sql string) (int, error) {
	s := c.open(ctx, "exec", sql, txn)
	n, err := c.pick().Exec(ctx, txn, sql)
	c.close(s, err)
	return n, err
}

func (c *tracedConn) Begin(ctx context.Context, gid uint64) (uint64, error) {
	s := c.open(ctx, "begin", "", 0)
	id, err := c.pick().Begin(ctx, gid)
	if s != nil {
		s.Txn, s.GID = id, gid
		c.t.gids.Store(branchKey(s.Site, id), gid)
	}
	c.close(s, err)
	return id, err
}

func (c *tracedConn) Prepare(ctx context.Context, txn uint64) error {
	s := c.open(ctx, "prepare", "", txn)
	err := c.pick().Prepare(ctx, txn)
	c.close(s, err)
	return err
}

func (c *tracedConn) Commit(ctx context.Context, txn uint64) error {
	s := c.open(ctx, "commit", "", txn)
	err := c.pick().Commit(ctx, txn)
	c.close(s, err)
	return err
}

func (c *tracedConn) Abort(ctx context.Context, txn uint64) error {
	s := c.open(ctx, "abort", "", txn)
	err := c.pick().Abort(ctx, txn)
	c.close(s, err)
	return err
}

func (c *tracedConn) WaitGraph(ctx context.Context) ([]comm.WaitEdge, error) {
	return c.pick().WaitGraph(ctx)
}

func (c *tracedConn) Close() error {
	err := c.direct.Close()
	if err2 := c.relayed.Close(); err == nil {
		err = err2
	}
	return err
}

// ---------------------------------------------------------------------
// Byte-counting relay between the federation and a site

// relay forwards loopback TCP connections to a site and counts the
// bytes in each direction.
type relay struct {
	ln     net.Listener
	target string
	// down counts site -> federation bytes, up the other way.
	down, up atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) serve() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, in, out)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(out, in, &r.up)
		go r.pipe(in, out, &r.down)
	}
}

func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 {
			n.Add(int64(k))
			if _, werr := dst.Write(buf[:k]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	// Propagate the close so the peer's reader ends too.
	if tc, ok := dst.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
