package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"myriad/internal/fedclient"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
)

// errWrong marks an answer that does not match the expected one.
var errWrong = errors.New("wrong answer")

func wrong(format string, v ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, v...))
}

// recorder collects one window's per-operation outcomes.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // class -> latency (ms) of successful ops
	firstRow  map[string][]float64 // class -> time to first row (ms)
	rows      map[string]int64     // class -> rows received
	busy      map[string]float64   // class -> seconds spent in successful ops
	sessions  []float64            // session latency (ms), failure-free sessions
	attempted int
	failed    int
	retries   int
	notes     []string
}

func newRecorder() *recorder {
	return &recorder{
		lat: map[string][]float64{}, firstRow: map[string][]float64{},
		rows: map[string]int64{}, busy: map[string]float64{},
	}
}

func (r *recorder) fail(class string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, class+": "+err.Error())
	}
}

// completed is the number of successful operations.
func (r *recorder) completed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempted - r.failed
}

// client is one closed-loop benchmark client: it issues the next
// operation only after the previous one completes.
type client struct {
	idx int
	cl  *fedclient.Client
	rng *rand.Rand
	rec *recorder
	tr  *tracer // nil when untraced
	op  *span   // the operation in progress (traced)

	sessionOK bool
	coldMs    float64 // latency of the client's very first operation
}

// do runs one operation of class and records its latency, or its
// failure (errors and wrong answers alike).
func (c *client) do(class string, fn func() (rows int64, err error)) error {
	c.op = c.tr.begin("client.op", 0)
	if c.op != nil {
		c.op.Class = class
		c.op.Req = c.op.ID
	}
	t0 := time.Now()
	rows, err := fn()
	el := time.Since(t0)
	c.tr.end(c.op)
	c.op = nil
	ms := float64(el) / 1e6
	if c.coldMs == 0 {
		c.coldMs = ms
	}
	c.rec.mu.Lock()
	c.rec.attempted++
	if err == nil {
		c.rec.lat[class] = append(c.rec.lat[class], ms)
		c.rec.rows[class] += rows
		c.rec.busy[class] += el.Seconds()
	}
	c.rec.mu.Unlock()
	if err != nil {
		c.sessionOK = false
		c.rec.fail(class, err)
	}
	return err
}

func (c *client) parent() uint64 {
	if c.op == nil {
		return 0
	}
	return c.op.ID
}

// call opens a fedclient span under the current operation.
func (c *client) call(op, sql string, txn uint64) *span {
	s := c.tr.begin("fedclient."+op, c.parent())
	if s != nil {
		s.Op, s.SQL, s.Txn = op, sql, txn
		if sql != "" {
			t0 := time.Now()
			sqlparser.Parse(sql) //nolint:errcheck // timed only
			c.tr.parseNs.Add(int64(time.Since(t0)))
			c.tr.parses.Add(1)
		}
	}
	return s
}

func (c *client) done(s *span, err error) {
	if s != nil && err != nil {
		s.Err = err.Error()
	}
	c.tr.end(s)
}

// query poses a global SELECT and materializes it.
func (c *client) query(ctx context.Context, sql string) (*schema.ResultSet, error) {
	rs, _, err := c.stream(ctx, sql, nil)
	return rs, err
}

// stream drains a global SELECT through fedclient.QueryStream, handing
// each row to each (nil: keep the rows). It reports the time to the
// first row.
func (c *client) stream(ctx context.Context, sql string, each func(schema.Row) error) (*schema.ResultSet, time.Duration, error) {
	s := c.call("query", sql, 0)
	t0 := time.Now()
	rows, err := c.cl.QueryStream(ctx, sql)
	if err != nil {
		c.done(s, err)
		return nil, 0, err
	}
	rs := &schema.ResultSet{Columns: rows.Columns()}
	var first time.Duration
	var inner time.Duration
	for {
		n0 := time.Now()
		r, err := rows.Next(ctx)
		inner += time.Since(n0)
		if err != nil {
			rows.Close()
			c.done(s, err)
			return nil, 0, err
		}
		if r == nil {
			break
		}
		if first == 0 {
			first = time.Since(t0)
		}
		if each != nil {
			if err := each(r); err != nil {
				rows.Close()
				c.done(s, err)
				return nil, 0, err
			}
		} else {
			rs.Rows = append(rs.Rows, r)
		}
		if s != nil {
			s.Rows++
		}
	}
	err = rows.Close()
	if s != nil {
		s.Stream = true
		s.InnerNs = int64(inner)
	}
	c.done(s, err)
	return rs, first, err
}

func (c *client) begin(ctx context.Context) (*fedclient.Txn, error) {
	s := c.call("begin", "", 0)
	txn, err := c.cl.Begin(ctx)
	if s != nil && txn != nil {
		s.Txn = txn.ID()
	}
	c.done(s, err)
	return txn, err
}

func (c *client) exec(ctx context.Context, txn *fedclient.Txn, site, sql string) (int, error) {
	s := c.call("execat", sql, txn.ID())
	n, err := txn.ExecSite(ctx, site, sql)
	c.done(s, err)
	return n, err
}

func (c *client) commit(ctx context.Context, txn *fedclient.Txn) error {
	s := c.call("commit", "", txn.ID())
	err := txn.Commit(ctx)
	c.done(s, err)
	return err
}

func (c *client) abort(ctx context.Context, txn *fedclient.Txn) {
	s := c.call("abort", "", txn.ID())
	err := txn.Abort(ctx)
	c.done(s, err)
}

// ---------------------------------------------------------------------
// answer helpers

// rowText renders a row as "a|b|c".
func rowText(r schema.Row) string {
	cells := make([]string, len(r))
	for i, v := range r {
		cells[i] = v.Text()
	}
	return strings.Join(cells, "|")
}

// sameRows compares a result against expected rendered rows, in order.
func sameRows(rs *schema.ResultSet, want []string) error {
	if len(rs.Rows) != len(want) {
		return wrong("%d rows, want %d", len(rs.Rows), len(want))
	}
	for i, r := range rs.Rows {
		if got := rowText(r); got != want[i] {
			return wrong("row %d = %q, want %q", i, got, want[i])
		}
	}
	return nil
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// percentile is the linear-interpolated q-quantile of xs (0 if empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
