package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"myriad/internal/comm"
	"myriad/internal/fedclient"
	"myriad/internal/schema"
)

// stubHandler answers every request with a wire error kind: Begin is
// wounded, a streamed query times out.
type stubHandler struct{}

func (stubHandler) Handle(_ context.Context, req *comm.Request) *comm.Response {
	return &comm.Response{Err: "victim", Kind: comm.ErrWounded}
}

func (stubHandler) HandleStream(context.Context, *comm.Request, comm.RowSink) error {
	return &comm.KindError{Kind: comm.ErrTimeout, Err: errors.New("lock wait expired")}
}

// TestWrappedHandlersKeepErrorKinds checks that the traced handler
// wrapper passes wire error kinds through on both the Response and the
// streaming path, so fedclient still maps them to its sentinel errors.
func TestWrappedHandlersKeepErrorKinds(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	srv := comm.NewServer(tr.wrapFedServer(stubHandler{}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := fedclient.Dial(addr, 1)
	defer cl.Close()
	ctx := context.Background()

	if _, err := cl.Begin(ctx); !errors.Is(err, fedclient.ErrWounded) {
		t.Fatalf("Begin through the wrapper: %v, want ErrWounded", err)
	}
	rows, err := cl.QueryStream(ctx, "SELECT 1")
	if err == nil {
		_, err = schema.DrainStream(ctx, rows)
		rows.Close()
	}
	if !errors.Is(err, fedclient.ErrDeadlockAbort) {
		t.Fatalf("streamed query through the wrapper: %v, want ErrDeadlockAbort", err)
	}
	spans := tr.take()
	if len(spans) != 2 || spans[0].Err != string(comm.ErrWounded) || !spans[1].Stream {
		t.Fatalf("spans = %+v", spans)
	}
}

// TestStreamedQueriesStayStreamed checks that a traced deployment still
// serves fedclient queries through HandleStream at the federation and
// at the sites, and that linking attributes the site work to the query.
func TestStreamedQueriesStayStreamed(t *testing.T) {
	b := newExport(5)
	tr := newTracer()
	d, err := boot(t.TempDir(), b.spec(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	c := &client{cl: d.client(), rng: rand.New(rand.NewSource(1)), tr: tr, rec: newRecorder()}
	defer c.cl.Close()
	tr.on.Store(true)
	c.do("scan", func() (int64, error) {
		rs, err := c.query(context.Background(), scanSQL)
		if err != nil {
			return 0, err
		}
		return int64(len(rs.Rows)), nil
	})
	tr.on.Store(false)
	if c.rec.failed != 0 {
		t.Fatal(c.rec.notes)
	}
	spans := tr.take()
	link(spans)
	var fed, gw int
	for _, s := range spans {
		switch s.Name {
		case "fedserver.query":
			fed++
			if !s.Stream || s.Rows != int64(len(b.items)) || s.Class != "scan" {
				t.Errorf("fedserver span %+v: want a streamed scan of every row", s)
			}
		case "gateway.query":
			gw++
			if !s.Stream || s.Class != "scan" {
				t.Errorf("gateway span %+v: want a streamed, linked scan", s)
			}
		}
	}
	if fed != 1 || gw != exportSites {
		t.Fatalf("%d fedserver and %d gateway query spans, want 1 and %d", fed, gw, exportSites)
	}
}

// counts runs a few sessions of workload with one client and a fixed
// seed, traced, and returns the counts that must repeat exactly.
func counts(t *testing.T, workload string) map[string]float64 {
	b, err := newBench(workload, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	d, err := boot(t.TempDir(), b.spec(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	c := &client{cl: d.client(), rng: rand.New(rand.NewSource(1)), tr: tr, rec: newRecorder()}
	defer c.cl.Close()
	st := &d.fed.Coordinator().Stats
	wal0, coord0, commits0 := d.walBytes(), d.coordLogBytes(), st.Committed.Load()
	tr.on.Store(true)
	for i := 0; i < 4; i++ {
		b.session(context.Background(), c)
	}
	tr.on.Store(false)
	if c.rec.failed != 0 {
		t.Fatal(c.rec.notes)
	}
	spans := tr.take()
	link(spans)
	ops := map[string]float64{}
	per := map[string]float64{}
	for _, s := range spans {
		switch {
		case s.Name == "client.op":
			ops[s.Class]++
		case s.Name == "conn.stats" && s.Class == "readback":
			per["stats_rpcs_per_readback"]++
		case strings.HasPrefix(s.Name, "conn.") && s.Class == "transfer":
			per["requests_per_transfer"]++
		}
	}
	for _, e := range d.execs.since(0) {
		if strings.Contains(e.sql, " JOIN ") {
			per["rows_shipped_per_join"] += float64(e.rowsShipped)
		}
	}
	out := map[string]float64{
		"stats_rpcs_per_readback": ratio(per["stats_rpcs_per_readback"], int(ops["readback"])),
		"requests_per_transfer":   ratio(per["requests_per_transfer"], int(ops["transfer"])),
		"rows_shipped_per_join":   ratio(per["rows_shipped_per_join"], int(ops["join"])),
	}
	if commits := st.Committed.Load() - commits0; commits > 0 {
		out["wal_site_bytes_per_commit"] = ratio(float64(d.walBytes()-wal0), int(commits))
		out["wal_coord_bytes_per_commit"] = ratio(float64(d.coordLogBytes()-coord0), int(commits))
	}
	return out
}

// TestCountsRepeatExactly checks that, with one client and a fixed
// seed, the layer counts later changes may claim repeat exactly.
func TestCountsRepeatExactly(t *testing.T) {
	for _, w := range []string{"oltp", "analytics"} {
		a, b := counts(t, w), counts(t, w)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: counts differ between identical runs:\n%v\n%v", w, a, b)
		}
		t.Logf("%s: %v", w, a)
		switch w {
		case "oltp":
			if a["stats_rpcs_per_readback"] == 0 || a["requests_per_transfer"] == 0 || a["wal_site_bytes_per_commit"] == 0 {
				t.Fatalf("oltp counts missing: %v", a)
			}
		case "analytics":
			if a["rows_shipped_per_join"] == 0 {
				t.Fatalf("analytics counts missing: %v", a)
			}
		}
	}
}

// TestCorruptedAnswerFailsTheRun checks the command's gate: with one
// expected answer damaged the run reports correct=false and exits
// non-zero; the same run undamaged passes.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		args := []string{"--workload", "export", "--seed", "3", "--seconds", "0.5", "--dir", t.TempDir()}
		if corrupt {
			args = append(args, "--corrupt-expected")
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("corrupt=%v: last line %q: %v\n%s", corrupt, lines[len(lines)-1], err, stderr.String())
		}
		if corrupt && (code == 0 || res.Correct || res.Failed == 0) {
			t.Fatalf("damaged answer: exit %d, %+v; want a failing run", code, res)
		}
		if !corrupt && (code != 0 || !res.Correct) {
			t.Fatalf("clean run: exit %d, %+v\n%s", code, res, stderr.String())
		}
	}
}
