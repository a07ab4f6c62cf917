package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"myriad/internal/catalog"
	"myriad/internal/dialect"
	"myriad/internal/gateway"
	"myriad/internal/gtm"
	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
	"myriad/internal/storage"
	"myriad/internal/wal"
)

// countingConn counts the Stats RPCs a federation sends one site.
type countingConn struct {
	gateway.Conn
	stats atomic.Int64
}

func (c *countingConn) Stats(ctx context.Context, export string) (*storage.TableStats, error) {
	c.stats.Add(1)
	return c.Conn.Stats(ctx, export)
}

// countStats re-attaches each named site behind a countingConn.
func countStats(t *testing.T, fed *Federation, sites ...string) map[string]*countingConn {
	t.Helper()
	out := make(map[string]*countingConn, len(sites))
	for _, s := range sites {
		conn, ok := fed.Conn(s)
		if !ok {
			t.Fatalf("no site %s", s)
		}
		cc := &countingConn{Conn: conn}
		fed.DetachSite(s)
		if err := fed.AttachSite(context.Background(), cc); err != nil {
			t.Fatal(err)
		}
		out[s] = cc
	}
	return out
}

// statsCalls plans sql and reports how many Stats RPCs each counted
// site answered for it.
func statsCalls(t *testing.T, fed *Federation, conns map[string]*countingConn, sql string) map[string]int64 {
	t.Helper()
	for _, c := range conns {
		c.stats.Store(0)
	}
	if _, err := fed.plan(context.Background(), sql, StrategyCostBased); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(conns))
	for s, c := range conns {
		out[s] = c.stats.Load()
	}
	return out
}

// prunedReasons plans sql and returns each source scan's prune reason
// by site ("" = contacted).
func prunedReasons(t *testing.T, fed *Federation, sql string) map[string]string {
	t.Helper()
	plan, err := fed.plan(context.Background(), sql, StrategyCostBased)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, ss := range plan.ScanSets {
		for _, sc := range ss.Scans {
			out[sc.Site] = sc.Pruned
		}
	}
	return out
}

// TestQueryTxSeesOwnWriteInPrunedFragment: a warm cache proves id 200
// disjoint with both fragments; a global transaction then inserts id
// 200 at west and must find it with its own query.
func TestQueryTxSeesOwnWriteInPrunedFragment(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	ctx := context.Background()
	const q = `SELECT name FROM ALL_STUDENTS WHERE id = 200`
	rs, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("warm-up found %d rows", len(rs.Rows))
	}
	for site, why := range prunedReasons(t, fed, q) {
		if why == "" {
			t.Fatalf("warm cache should prune %s", site)
		}
	}

	txn := fed.Begin()
	defer txn.Abort(ctx)
	if _, err := txn.ExecSite(ctx, "west", `INSERT INTO STUDENT (id, name, gpa, year) VALUES (200, 'zed', 3.0, 1)`); err != nil {
		t.Fatal(err)
	}
	rs, err = fed.QueryTx(ctx, txn, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(t, rs); got != "zed" {
		t.Fatalf("QueryTx after own insert = %q, want zed", got)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	rs, err = fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(t, rs); got != "zed" {
		t.Fatalf("after commit = %q, want zed", got)
	}
}

// abortLeavesNoFalseProof runs write inside a global transaction at
// west, lets another client fill the stats cache by planning probe
// while the write is open, aborts, and then checks probe neither
// prunes west with a reason containing proof nor loses west's rows.
func abortLeavesNoFalseProof(t *testing.T, fed *Federation, write, probe, proof, want string) {
	t.Helper()
	ctx := context.Background()
	txn := fed.Begin()
	if _, err := txn.ExecSite(ctx, "west", write); err != nil {
		t.Fatal(err)
	}
	// Another client plans while the write is open: it fills the cache
	// (planning takes no locks, so it does not wait for the writer).
	prunedReasons(t, fed, probe)
	txn.Abort(ctx)

	if why := prunedReasons(t, fed, probe)["west"]; strings.Contains(why, proof) {
		t.Fatalf("west pruned after abort: %s", why)
	}
	rs, err := fed.Query(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(t, rs); got != want {
		t.Fatalf("after abort = %q, want %q", got, want)
	}
}

// TestAbortedDeleteAllLeavesNoEmptyFragment: a transaction empties
// west's fragment while another client fills the cache, then aborts.
func TestAbortedDeleteAllLeavesNoEmptyFragment(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	abortLeavesNoFalseProof(t, fed,
		`DELETE FROM STUDENT`,
		`SELECT name FROM ALL_STUDENTS WHERE campus = 'west' ORDER BY name`,
		"empty fragment", "ed;fay;gil")
}

// TestAbortedNullingLeavesNoAllNull: a transaction overwrites the only
// non-NULL gpa at west with NULL while another client fills the cache,
// then aborts.
func TestAbortedNullingLeavesNoAllNull(t *testing.T) {
	fed, _, west := buildUniversity(t)
	west.MustExec(`UPDATE pupils SET grade = NULL WHERE id <> 101`)
	fed.InvalidateStats() // out-of-band local write
	abortLeavesNoFalseProof(t, fed,
		`UPDATE STUDENT SET gpa = NULL WHERE id = 101`,
		`SELECT name FROM ALL_STUDENTS WHERE gpa > 3.15 AND campus = 'west'`,
		"all NULL", "ed")
}

// TestQueryTxHonoursMemBudget: QueryTx runs with the federation's
// executor options, so its blocking operators spill past MemBudget
// into SpillDir. Pointing SpillDir at a regular file makes that spill
// fail, which only a query that engaged the budget can notice.
func TestQueryTxHonoursMemBudget(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	ctx := context.Background()
	const q = `SELECT s.name, e.course FROM ALL_STUDENTS s JOIN ENROLLMENT e ON s.id = e.sid ORDER BY e.course, s.name`
	want, err := fed.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	fed.MemBudget, fed.SpillDir = 1, t.TempDir()
	_, m, err := fed.QueryMetered(ctx, q, fed.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpillRuns == 0 {
		t.Fatal("the query does not spill under a 1-byte budget; pick one that does")
	}
	txn := fed.Begin()
	got, err := fed.QueryTx(ctx, txn, q)
	if err != nil {
		t.Fatal(err)
	}
	txn.Abort(ctx)
	if rows(t, got) != rows(t, want) {
		t.Fatalf("budgeted QueryTx = %q, want %q", rows(t, got), rows(t, want))
	}

	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fed.SpillDir = notDir
	txn = fed.Begin()
	defer txn.Abort(ctx)
	if _, err := fed.QueryTx(ctx, txn, q); err == nil {
		t.Fatal("QueryTx ignored MemBudget: a spill into a non-directory should fail")
	}
}

// threeSiteAccounts adds ACCT exports at east and west plus a third
// site, north, and integrates the three as ALL_ACCTS.
func threeSiteAccounts(t *testing.T) *Federation {
	t.Helper()
	fed, east, west := buildUniversity(t)
	north := localdb.New("north")
	for _, db := range []*localdb.DB{east, west, north} {
		db.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
		db.MustExec(`INSERT INTO acct VALUES (1, 100), (2, 50)`)
	}
	gwNorth := gateway.New("north", north, dialect.Canonical())
	if err := fed.AttachSite(context.Background(), &gateway.LocalConn{G: gwNorth}); err != nil {
		t.Fatal(err)
	}
	def := &catalog.IntegratedDef{
		Name: "ALL_ACCTS",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "bal", Type: schema.TInt},
		},
		Combine: integration.UnionAll,
	}
	for _, s := range []string{"east", "west", "north"} {
		conn, _ := fed.Conn(s)
		if err := conn.(*gateway.LocalConn).G.DefineExport(gateway.Export{Name: "ACCT", LocalTable: "acct"}); err != nil {
			t.Fatal(err)
		}
		if err := fed.RefreshSite(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		def.Sources = append(def.Sources, catalog.SourceDef{
			Site: s, Export: "ACCT", ColumnMap: map[string]string{"id": "id", "bal": "bal"},
		})
	}
	if err := fed.DefineIntegrated(def); err != nil {
		t.Fatal(err)
	}
	return fed
}

const acctProbe = `SELECT id FROM ALL_ACCTS WHERE bal > 10`

func expectCalls(t *testing.T, got map[string]int64, want map[string]int64) {
	t.Helper()
	for s, n := range want {
		if got[s] != n {
			t.Fatalf("Stats calls = %v, want %v", got, want)
		}
	}
}

// TestReadOnlyCommitKeepsStatsCache: neither a read-only global
// transaction nor its commit drops a warm cache entry.
func TestReadOnlyCommitKeepsStatsCache(t *testing.T) {
	fed := threeSiteAccounts(t)
	conns := countStats(t, fed, "east", "west", "north")
	ctx := context.Background()
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 1, "west": 1, "north": 1})

	txn := fed.Begin()
	if _, err := fed.QueryTx(ctx, txn, acctProbe); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"east", "west"} {
		if _, err := txn.QuerySite(ctx, s, `SELECT bal FROM ACCT WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 0, "west": 0, "north": 0})
}

// TestTwoSiteWriteDropsOnlyItsSites: a transfer between east and west
// drops exactly those two sites' entries; its commit drops nothing
// more, and north stays warm throughout.
func TestTwoSiteWriteDropsOnlyItsSites(t *testing.T) {
	fed := threeSiteAccounts(t)
	conns := countStats(t, fed, "east", "west", "north")
	ctx := context.Background()
	statsCalls(t, fed, conns, acctProbe)

	txn := fed.Begin()
	if _, err := txn.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 5 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal + 5 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 1, "west": 1, "north": 0})
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 0, "west": 0, "north": 0})
}

// TestRecoveredCommitDropsParticipants: the coordinator dies after the
// commit decision with both branches prepared; the restarted
// coordinator's recovery commits them, which drops exactly the
// participants' entries.
func TestRecoveredCommitDropsParticipants(t *testing.T) {
	fed := threeSiteAccounts(t)
	ctx := context.Background()
	if fed.Coordinator().LogPath() == "" {
		if err := fed.EnableCoordinatorLog(filepath.Join(t.TempDir(), "coord.log"), wal.Options{Sync: wal.SyncAlways}); err != nil {
			t.Fatal(err)
		}
	}
	conns := countStats(t, fed, "east", "west", "north")

	txn := fed.Begin()
	if _, err := txn.ExecSite(ctx, "east", `UPDATE ACCT SET bal = bal - 5 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.ExecSite(ctx, "west", `UPDATE ACCT SET bal = bal + 5 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	statsCalls(t, fed, conns, acctProbe) // warm, after the writes
	fed.Coordinator().ArmKill(gtm.KillAfterDecision)
	if err := txn.Commit(ctx); !errors.Is(err, gtm.ErrCoordinatorKilled) {
		t.Fatalf("Commit = %v, want ErrCoordinatorKilled", err)
	}
	if err := fed.RestartCoordinator(wal.Options{Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 0, "west": 0, "north": 0})
	if err := fed.RecoverGlobal(ctx); err != nil {
		t.Fatal(err)
	}
	expectCalls(t, statsCalls(t, fed, conns, acctProbe), map[string]int64{"east": 1, "west": 1, "north": 0})
}

// TestInFlightStatsDoNotOutliveInvalidation: a stats answer computed
// before a write but returned after the write's invalidation is used
// by its own plan only, never installed in the cache.
func TestInFlightStatsDoNotOutliveInvalidation(t *testing.T) {
	fed, _, _ := buildUniversity(t)
	ctx := context.Background()
	conn, _ := fed.Conn("west")
	stale, err := conn.Stats(ctx, "STUDENT")
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedConn{Conn: conn, answer: stale, release: make(chan struct{}), asked: make(chan struct{})}
	fed.DetachSite("west")
	if err := fed.AttachSite(ctx, gate); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fed.Stats(ctx, "west", "STUDENT")
	}()
	<-gate.asked
	fed.invalidateSite("west") // a write lands while the RPC is in flight
	close(gate.release)
	<-done
	fed.statsMu.Lock()
	_, cached := fed.stats["west/student"]
	fed.statsMu.Unlock()
	if cached {
		t.Fatal("an answer from before the invalidation was installed")
	}
}

// gatedConn answers one Stats call with a fixed snapshot, after the
// test releases it.
type gatedConn struct {
	gateway.Conn
	answer  *storage.TableStats
	asked   chan struct{}
	release chan struct{}
}

func (g *gatedConn) Stats(context.Context, string) (*storage.TableStats, error) {
	close(g.asked)
	<-g.release
	return g.answer, nil
}
