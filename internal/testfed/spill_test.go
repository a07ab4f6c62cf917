package testfed

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"myriad/internal/catalog"
	"myriad/internal/comm"
	"myriad/internal/core"
	"myriad/internal/fedserver"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
)

// budgetFed points the fixture's federation at a tiny per-query memory
// budget spilling into a fresh directory, returning the directory for
// leak checks. Cleanup restores the unlimited default.
func budgetFed(t testing.TB, fx *Fixture, limit int64) string {
	t.Helper()
	dir := t.TempDir()
	fx.Fed.MemBudget = limit
	fx.Fed.SpillDir = dir
	t.Cleanup(func() { fx.Fed.MemBudget, fx.Fed.SpillDir = 0, "" })
	return dir
}

func assertNoSpillFiles(t testing.TB, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill files leaked: %v", names)
	}
}

// TestFederatedExternalSortSpills is the tentpole acceptance test: a
// federated ORDER BY without LIMIT over 120k rows across two sites,
// under a 4KB per-query budget, completes via spilled runs with a
// result byte-identical to the unlimited in-memory sort, reports
// SpillRuns in metrics, and leaves no temp files behind.
func TestFederatedExternalSortSpills(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 60_000, 60_000, false, 0)
	warm(t, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY v, id`

	want, err := fx.Fed.Query(ctx, sql) // unlimited
	if err != nil {
		t.Fatal(err)
	}
	dir := budgetFed(t, fx, 4096)
	got, m, err := collect(ctx, fx.Fed, nil, sql, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 120_000 {
		t.Fatalf("rows = %d", len(got.Rows))
	}
	if m.SpillRuns == 0 || m.SpilledBytes == 0 {
		t.Fatalf("no spill recorded: runs=%d bytes=%d", m.SpillRuns, m.SpilledBytes)
	}
	assertSameResult(t, want, got)
	assertNoSpillFiles(t, dir)
}

// TestTinyBudgetCorpusEquivalence runs the whole equivalence corpus
// under a forced 4KB budget — every sort, merge and blocking combiner
// spills — asserting row-for-row agreement with the oracle under both
// strategies.
func TestTinyBudgetCorpusEquivalence(t *testing.T) {
	fx := equivalenceFixture(t)
	oracle := buildOracle(t, fx)
	ctx := context.Background()
	dir := budgetFed(t, fx, 4096)
	var spills int64
	for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
		for _, sql := range equivalenceCorpus {
			name := fmt.Sprintf("%v/%s", strategy, sql)
			t.Run(name, func(t *testing.T) {
				want := oracleQuery(t, oracle, sql)
				got, m, err := collect(ctx, fx.Fed, nil, sql, strategy)
				if err != nil {
					t.Fatalf("spilling: %v", err)
				}
				spills += m.SpillRuns
				assertSameResult(t, want, got)
			})
		}
	}
	if spills == 0 {
		t.Fatal("corpus ran without a single spill under a 4KB budget")
	}
	assertNoSpillFiles(t, dir)
}

// logSink collects a streamed response in memory.
type logSink struct {
	cols []string
	rows []schema.Row
}

func (s *logSink) Header(cols []string) error { s.cols = cols; return nil }
func (s *logSink) Row(r schema.Row) error     { s.rows = append(s.rows, r); return nil }

// TestFedserverLogsSpillRuns: the acceptance criterion's observability
// half — after a spilling query streams to a client, the fedserver
// metrics log line reports spill_runs > 0.
func TestFedserverLogsSpillRuns(t *testing.T) {
	fx := twoSiteUnion(t, integration.UnionAll, 10_000, 10_000, false, 0)
	warm(t, fx)
	dir := budgetFed(t, fx, 4096)

	var lines []string
	srv := fedserver.New(fx.Fed)
	srv.Logf = func(format string, v ...any) { lines = append(lines, fmt.Sprintf(format, v...)) }

	sink := &logSink{}
	err := srv.HandleStream(context.Background(),
		&comm.Request{Op: comm.OpQuery, SQL: `SELECT id, v FROM R ORDER BY v, id`}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.rows) != 20_000 {
		t.Fatalf("streamed %d rows", len(sink.rows))
	}
	found := false
	for _, line := range lines {
		if !strings.Contains(line, "spill_runs=") {
			continue
		}
		found = true
		if strings.Contains(line, "spill_runs=0") {
			t.Fatalf("spilling query logged spill_runs=0: %s", line)
		}
	}
	if !found {
		t.Fatalf("no spill_runs log line in %q", lines)
	}
	assertNoSpillFiles(t, dir)
}

// outerMergeFixture builds M = a.T outer-merge b.T on id over sizable
// overlapping fragments, with site b optionally faulty.
func outerMergeFixture(t testing.TB, rowsEach int, faultyB bool) *Fixture {
	t.Helper()
	specs := []SiteSpec{
		{Name: "a", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}},
		{Name: "b", Setup: []string{createT},
			Exports: []gateway.Export{{Name: "T", LocalTable: "t"}}, Faulty: faultyB},
	}
	def := unionDef(integration.MergeOuter, "a", "b")
	def.Resolvers = map[string]string{"v": "max"}
	fx := New(t, specs, []*catalog.IntegratedDef{def})
	fx.LoadRows(t, "a", "t", genRows(0, rowsEach))
	fx.LoadRows(t, "b", "t", genRows(rowsEach/2, rowsEach))
	return fx
}

// TestOuterMergeSpillFederated: a federated OUTERJOIN-MERGE whose
// sources exceed the budget spills both fragments and still resolves
// the same entities the unlimited run does.
func TestOuterMergeSpillFederated(t *testing.T) {
	fx := outerMergeFixture(t, 20_000, false)
	warm(t, fx)
	ctx := context.Background()
	const sql = `SELECT id, v FROM R ORDER BY id`

	want, err := fx.Fed.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	dir := budgetFed(t, fx, 4096)
	got, m, err := collect(ctx, fx.Fed, nil, sql, fx.Fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 {
		t.Fatal("outer merge did not spill")
	}
	assertSameResult(t, want, got)
	assertNoSpillFiles(t, dir)
}

// TestOuterMergeSpillCancelRemovesTempFiles: the testfed fault proxy
// severs site b mid-drain while the combiner is already spilling; the
// query errors (no hang, no partial silent result) and every spill
// temp file is removed once the stream tears down.
func TestOuterMergeSpillCancelRemovesTempFiles(t *testing.T) {
	fx := outerMergeFixture(t, 20_000, true)
	warm(t, fx)
	dir := budgetFed(t, fx, 4096)
	fx.Site("b").Proxy.DropAfter(50_000)

	res := await(t, runAsync(context.Background(), fx, `SELECT id, v FROM R ORDER BY id`), 30*time.Second)
	if res.err == nil {
		t.Fatalf("mid-stream drop returned %d rows with no error", len(res.rs.Rows))
	}
	assertNoSpillFiles(t, dir)
}
