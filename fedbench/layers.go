package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// classes are the operation classes of all three workloads.
var classes = []string{"transfer", "readback", "point", "topk", "agg", "join", "scan", "sort"}

// layerRun is the outcome of a traced run: the traced window's
// recorder, the per-layer metrics and any sanity failures.
type layerRun struct {
	rec     *recorder
	metrics map[string]metric
	samples map[string]int
	order   []string
	notes   []string
}

func (l *layerRun) set(name string, v float64, unit string, samples int) {
	if _, ok := l.metrics[name]; !ok {
		l.order = append(l.order, name)
	}
	l.metrics[name] = metric{Value: v, Unit: unit}
	l.samples[name] = samples
}

// tracedRun follows the untraced window: it reports that window's
// per-class figures, then runs a traced window of the same length, a
// sequential per-class counter pass, and derives the per-layer metrics
// from the spans and the layers' public counters.
func tracedRun(ctx context.Context, cfg config, in *instance, dur time.Duration, untracedTput float64, untraced *recorder) (*layerRun, error) {
	d, tr := in.d, in.d.tr
	l := &layerRun{rec: newRecorder(), metrics: map[string]metric{}, samples: map[string]int{}}
	for _, cm := range classMetrics(untraced) {
		l.set(cm.name, cm.value, cm.unit, cm.samples)
	}

	st := &d.fed.Coordinator().Stats
	committed0, wounded0 := st.Committed.Load(), st.Wounded.Load()
	wal0, coord0 := d.walBytes(), d.coordLogBytes()
	spill0, runs0 := d.siteSpill()
	var down0 int64
	for _, s := range d.sites {
		down0 += s.relay.down.Load()
	}
	execMark := d.execs.len()

	// Sample the sites' lock waits-for graphs while the window runs.
	stop := make(chan struct{})
	edges := make(chan int64)
	var samples int
	go func() {
		var n int64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				edges <- n
				return
			case <-tick.C:
				samples++
				for _, s := range d.sites {
					n += int64(len(s.db.WaitGraph()))
				}
			}
		}
	}()
	tr.on.Store(true)
	elapsed := window(ctx, in.b, in.clients, l.rec, dur, 0)
	tr.on.Store(false)
	close(stop)
	waitEdges := <-edges
	spans := tr.take()

	commits := st.Committed.Load() - committed0
	walSite, walCoord := d.walBytes()-wal0, d.coordLogBytes()-coord0
	spillB, spillR := d.siteSpill()
	spillB, spillR = spillB-spill0, spillR-runs0
	var down int64
	for _, s := range d.sites {
		down += s.relay.down.Load()
	}
	down -= down0
	execs := d.execs.since(execMark)

	// Sequential per-class counter pass, one client, tracing off.
	scanned := map[string]int64{}
	c := in.clients[0]
	c.rec = newRecorder()
	for _, p := range in.b.probes(c) {
		before := d.scannedRows()
		if _, err := c.query(ctx, p.sql); err != nil {
			l.notes = append(l.notes, "probe "+p.class+": "+err.Error())
		}
		scanned[p.class] = d.scannedRows() - before
	}

	link(spans)
	if err := writeSpans(filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed)), spans); err != nil {
		return nil, err
	}
	tracedTput := float64(l.rec.completed()) / elapsed.Seconds()

	derive(l, spans)
	for _, cl := range classes[1:] {
		l.set("localdb.scanned_rows_per_query."+cl, float64(scanned[cl]), "rows", 1)
	}

	fedQueries := 0
	for _, s := range spans {
		if s.Name == "fedserver.query" {
			fedQueries++
		}
	}
	var shipped, fedSpillB, fedSpillR int64
	for _, e := range execs {
		shipped += int64(e.rowsShipped)
		fedSpillB += e.spilledBytes
		fedSpillR += e.spillRuns
	}
	l.set("spill.bytes_per_query", ratio(float64(spillB+fedSpillB), fedQueries), "bytes", fedQueries)
	l.set("spill.runs", float64(spillR+fedSpillR), "count", fedQueries)
	l.set("executor.rows_shipped_per_query", ratio(float64(shipped), len(execs)), "rows", len(execs))

	var gwRows int64
	for _, s := range spans {
		if s.Name == "gateway.query" && s.Stream {
			gwRows += s.Rows
		}
	}
	l.set("comm.wire_bytes_per_row", ratio(float64(down), int(gwRows)), "bytes", int(gwRows))

	transfers := len(l.rec.lat["transfer"])
	l.set("wal.site_bytes_per_commit", ratio(float64(walSite), int(commits)), "bytes", int(commits))
	l.set("wal.coord_bytes_per_commit", ratio(float64(walCoord), int(commits)), "bytes", int(commits))
	l.set("lockmgr.wait_edges_sampled", float64(waitEdges), "count", samples)
	l.set("gtm.retries_per_transfer", ratio(float64(l.rec.retries), transfers), "count", transfers)
	begun := st.Begun.Load()
	l.set("gtm.wounded", float64(st.Wounded.Load()), "count", int(begun))
	l.set("gtm.abort_ratio", ratio(float64(st.Aborted.Load()), int(begun)), "ratio", int(begun))
	l.set("gtm.in_doubt", float64(st.InDoubt.Load()), "count", int(begun))
	l.set("fedclient.cold_first_query_ms", in.cold, "ms", 1)
	parses := int(tr.parses.Load())
	l.set("sqlparser.parse_us", ratio(float64(tr.parseNs.Load())/1e3, parses), "us", parses)
	overhead := 0.0
	if tracedTput > 0 {
		overhead = untracedTput / tracedTput
	}
	l.set("trace.overhead_ratio", overhead, "ratio", l.rec.completed())

	// Under wound-wait a conflict either parks the younger transaction
	// (a sampled wait edge) or wounds the younger holder.
	if wounded := st.Wounded.Load() - wounded0; cfg.workload == "oltp" && waitEdges+wounded == 0 {
		l.notes = append(l.notes, "oltp met no lock conflict (no wait edge sampled, no wound)")
	}
	return l, nil
}

// link resolves each span's parent across the process-boundary hops,
// where no context flows: fedserver spans to the fedclient call that
// caused them, phase-two conn spans (run on a fresh context) to their
// global transaction's commit, and gateway spans to the conn call. Keys
// are the op, SQL text and transaction id; among equal keys the span
// whose interval holds the child's start wins. Class and request id then
// flow down from each client operation.
func link(spans []*span) {
	type key struct {
		site, op, sql string
		txn           uint64
	}
	clients := map[key][]*span{}
	conns := map[key][]*span{}
	commits := map[uint64][]*span{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "fedclient."):
			clients[key{"", s.Op, s.SQL, s.Txn}] = append(clients[key{"", s.Op, s.SQL, s.Txn}], s)
		case strings.HasPrefix(s.Name, "conn."):
			k := key{s.Site, s.Op, s.SQL, s.Txn}
			conns[k] = append(conns[k], s)
		case s.Name == "fedserver.commit" || s.Name == "fedserver.abort":
			commits[s.Txn] = append(commits[s.Txn], s)
		}
	}
	holder := func(cands []*span, child *span) uint64 {
		for _, c := range cands {
			if c.Start <= child.Start && child.Start <= c.End {
				return c.ID
			}
		}
		return 0
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "fedserver."):
			s.Parent = holder(clients[key{"", s.Op, s.SQL, s.Txn}], s)
		case strings.HasPrefix(s.Name, "conn.") && s.Parent == 0 && s.GID != 0:
			s.Parent = holder(commits[s.GID], s)
		case strings.HasPrefix(s.Name, "gateway."):
			s.Parent = holder(conns[key{s.Site, s.Op, s.SQL, s.Txn}], s)
		}
	}
	byID := make(map[uint64]*span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var root func(s *span, depth int) *span
	root = func(s *span, depth int) *span {
		if s.Name == "client.op" || depth > 8 {
			return s
		}
		p, ok := byID[s.Parent]
		if !ok {
			return s
		}
		return root(p, depth+1)
	}
	for _, s := range spans {
		if r := root(s, 0); r.Name == "client.op" {
			s.Class, s.Req = r.Class, r.ID
		}
	}
}

// derive computes the span-based per-layer metrics.
func derive(l *layerRun, spans []*span) {
	children := map[uint64][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	named := func(name string) []*span {
		var out []*span
		for _, s := range spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	meanDur := func(ss []*span) float64 {
		var t int64
		for _, s := range ss {
			t += s.dur()
		}
		return ratio(ms(t), len(ss))
	}
	setMean := func(name string, ss []*span) { l.set(name, meanDur(ss), "ms", len(ss)) }

	// Planner: stats RPCs and planning time per global query.
	queries := named("fedserver.query")
	var statsRPCs, planned int
	var planNs, reqs, contacted int64
	for _, q := range queries {
		sites := map[string]bool{}
		first := int64(-1)
		for _, c := range children[q.ID] {
			switch c.Name {
			case "conn.stats":
				statsRPCs++
			case "conn.query":
				reqs++
				sites[c.Site] = true
				if first < 0 || c.Start < first {
					first = c.Start
				}
			}
		}
		contacted += int64(len(sites))
		if first >= 0 {
			planNs += first - q.Start
			planned++
		}
	}
	l.set("planner.stats_rpcs_per_query", ratio(float64(statsRPCs), len(queries)), "count", len(queries))
	setMean("planner.stats_rpc_ms", named("conn.stats"))
	setMean("gateway.stats_ms", named("gateway.stats"))
	l.set("planner.plan_ms", ratio(ms(planNs), planned), "ms", planned)
	l.set("executor.site_requests_per_query", ratio(float64(reqs), len(queries)), "count", len(queries))
	l.set("executor.sites_contacted_per_query", ratio(float64(contacted), len(queries)), "count", len(queries))

	// Executor: of a streamed query's service time, the part spent
	// waiting for the pipeline's next row (fan-in wait), and what is left
	// after the slowest site pull and the client writes (self time).
	var selfNs, waitNs int64
	var streamed int
	for _, q := range queries {
		if !q.Stream {
			continue
		}
		streamed++
		var pull, first int64 = 0, q.End
		for _, c := range children[q.ID] {
			if c.Name == "conn.query" {
				if c.InnerNs > pull {
					pull = c.InnerNs
				}
				if c.Start < first {
					first = c.Start
				}
			}
		}
		waitNs += max(0, q.End-first-q.InnerNs)
		selfNs += max(0, q.dur()-q.InnerNs-pull)
	}
	l.set("executor.self_ms", ratio(ms(selfNs), streamed), "ms", streamed)
	l.set("executor.fanin_wait_ms", ratio(ms(waitNs), streamed), "ms", streamed)

	// Transport per row.
	perRow := func(name string, ns func(*span) int64) (float64, int) {
		var t, rows int64
		for _, s := range spans {
			if s.Name == name && s.Stream && s.Rows > 0 {
				t += ns(s)
				rows += s.Rows
			}
		}
		return ratio(float64(t), int(rows)), int(rows)
	}
	inner := func(s *span) int64 { return s.InnerNs }
	v, n := perRow("conn.query", inner)
	l.set("comm.fed_next_ns_per_row", v, "ns", n)
	v, n = perRow("gateway.query", (*span).dur)
	l.set("gateway.stream_ns_per_row", v, "ns", n)
	v, n = perRow("fedclient.query", inner)
	l.set("fedclient.next_ns_per_row", v, "ns", n)

	// Client hop: client call minus the fedserver service it caused.
	byID := map[uint64]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var hopNs int64
	var hops int
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "fedserver.") && strings.HasPrefix(p.Name, "fedclient.") {
			hopNs += p.dur() - s.dur()
			hops++
		}
	}
	l.set("fedclient.hop_ms", ratio(ms(hopNs), hops), "ms", hops)

	// Site RPC overhead: unary conn calls minus the gateway service.
	var rpcNs int64
	var rpcs int
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "gateway.") && !s.Stream && strings.HasPrefix(p.Name, "conn.") {
			rpcNs += p.dur() - s.dur()
			rpcs++
		}
	}
	l.set("comm.site_rpc_overhead_ms", ratio(ms(rpcNs), rpcs), "ms", rpcs)

	// Two-phase commit phases, from each commit's conn children.
	commits := named("fedserver.commit")
	var prepNs, decNs, p2Ns int64
	var phased int
	for _, cm := range commits {
		var ps, pe, cs, ce int64 = -1, -1, -1, -1
		for _, c := range children[cm.ID] {
			switch c.Name {
			case "conn.prepare":
				if ps < 0 || c.Start < ps {
					ps = c.Start
				}
				pe = max(pe, c.End)
			case "conn.commit":
				if cs < 0 || c.Start < cs {
					cs = c.Start
				}
				ce = max(ce, c.End)
			}
		}
		if ps < 0 || cs < 0 {
			continue
		}
		phased++
		prepNs += pe - ps
		decNs += cs - pe
		p2Ns += ce - cs
	}
	setMean("gtm.commit_ms", commits)
	l.set("gtm.prepare_phase_ms", ratio(ms(prepNs), phased), "ms", phased)
	l.set("gtm.decision_ms", ratio(ms(decNs), phased), "ms", phased)
	l.set("gtm.phase2_ms", ratio(ms(p2Ns), phased), "ms", phased)
	for _, op := range []string{"exec", "prepare", "commit", "begin"} {
		setMean("gateway."+op+"_ms", named("gateway."+op))
	}

	// Per-class service times at the sites and at the federation.
	for _, cl := range classes {
		var gw, fs []*span
		for _, s := range spans {
			if s.Class != cl {
				continue
			}
			if s.Name == "gateway.query" {
				gw = append(gw, s)
			} else if strings.HasPrefix(s.Name, "fedserver.") {
				fs = append(fs, s)
			}
		}
		if cl != "transfer" {
			setMean("gateway.query_ms."+cl, gw)
		}
		setMean("fedserver.service_ms."+cl, fs)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a float64, b int) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}
