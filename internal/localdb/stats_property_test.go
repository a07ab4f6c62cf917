package localdb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"myriad/internal/lockmgr"
	"myriad/internal/sqlparser"
	"myriad/internal/storage"
	"myriad/internal/value"
)

// statsRow is one (a, b) row image of the property test's table; a nil
// pointer is NULL.
type statsRow struct {
	a *int64
	b *string
}

// statsState is one state of the table: id -> row image.
type statsState map[int64]statsRow

// statsTxn is an open transaction of the property test with the
// images it wrote (nil = deleted), over ids it alone touches.
type statsTxn struct {
	tx     *Txn
	parity int64
	writes map[int64]*statsRow
}

// reachable lists every state some combination of commits and
// rollbacks of the open transactions can produce.
func reachable(committed statsState, open []*statsTxn) []statsState {
	var out []statsState
	for mask := 0; mask < 1<<len(open); mask++ {
		s := make(statsState, len(committed))
		for id, r := range committed {
			s[id] = r
		}
		for i, o := range open {
			if mask&(1<<i) == 0 {
				continue
			}
			for id, w := range o.writes {
				if w == nil {
					delete(s, id)
				} else {
					s[id] = *w
				}
			}
		}
		out = append(out, s)
	}
	return out
}

func sqlLit[T int64 | string](p *T) string {
	if p == nil {
		return "NULL"
	}
	switch v := any(*p).(type) {
	case string:
		return "'" + v + "'"
	default:
		return fmt.Sprint(v)
	}
}

// checkServedStats compares the served snapshot with fresh scans of
// every reachable state: Rows and Nulls may never support a false
// "empty fragment" or "all NULL" proof, [Min, Max] must contain every
// state's bounds, and Distinct may lag the live rows by at most the
// rescan threshold (rows/8).
func checkServedStats(t *testing.T, db *DB, states []statsState, step string) {
	t.Helper()
	ts, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) storage.ColumnStats {
		cs, ok := ts.Col(name)
		if !ok {
			t.Fatalf("%s: no stats for %s", step, name)
		}
		return cs
	}
	ca, cb := col("a"), col("b")
	for si, s := range states {
		if int64(len(s)) > ts.Rows {
			t.Fatalf("%s: state %d has %d rows, served Rows %d", step, si, len(s), ts.Rows)
		}
		var nonNullA, nonNullB int64
		for _, r := range s {
			if r.a != nil {
				nonNullA++
				v := value.NewInt(*r.a)
				if c, _ := value.Compare(v, ca.Min); ca.Min.IsNull() || c < 0 {
					t.Fatalf("%s: state %d holds a=%d below served Min %v", step, si, *r.a, ca.Min)
				}
				if c, _ := value.Compare(v, ca.Max); ca.Max.IsNull() || c > 0 {
					t.Fatalf("%s: state %d holds a=%d above served Max %v", step, si, *r.a, ca.Max)
				}
			}
			if r.b != nil {
				nonNullB++
				v := value.NewText(*r.b)
				if c, _ := value.Compare(v, cb.Min); cb.Min.IsNull() || c < 0 {
					t.Fatalf("%s: state %d holds b=%q below served Min %v", step, si, *r.b, cb.Min)
				}
				if c, _ := value.Compare(v, cb.Max); cb.Max.IsNull() || c > 0 {
					t.Fatalf("%s: state %d holds b=%q above served Max %v", step, si, *r.b, cb.Max)
				}
			}
		}
		if ts.Rows-ca.Nulls < nonNullA || ts.Rows-cb.Nulls < nonNullB {
			t.Fatalf("%s: state %d has %d/%d non-NULL a/b, served Rows %d Nulls %d/%d",
				step, si, nonNullA, nonNullB, ts.Rows, ca.Nulls, cb.Nulls)
		}
	}
	// Distinct is counted over the live rows: the current heap, which is
	// the state where every open transaction commits (the last one).
	heap := states[len(states)-1]
	as, bs := map[int64]bool{}, map[string]bool{}
	for _, r := range heap {
		if r.a != nil {
			as[*r.a] = true
		}
		if r.b != nil {
			bs[*r.b] = true
		}
	}
	for _, c := range []struct {
		cs   storage.ColumnStats
		live int
	}{{ca, len(as)}, {cb, len(bs)}} {
		if d := c.cs.Distinct - int64(c.live); d > ts.Rows/8 || -d > ts.Rows/8 {
			t.Fatalf("%s: %s Distinct %d vs live %d, beyond rows/8 = %d", step, c.cs.Name, c.cs.Distinct, c.live, ts.Rows/8)
		}
	}
}

// TestServedStatsCoverEveryReachableState drives seeded random
// insert/update/delete/commit/rollback sequences (NULLs included) over
// two interleaved transactions on disjoint keys, while concurrent
// readers fetch statistics and plan access paths, and checks the served
// snapshot against every state a commit or rollback could produce.
func TestServedStatsCoverEveryReachableState(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runStatsProperty(t, seed, 300)
		})
	}
}

func runStatsProperty(t *testing.T, seed int64, steps int) {
	ctx := context.Background()
	db := New("props")
	defer db.Close() //nolint:errcheck
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b TEXT)`)
	db.MustExec(`CREATE ORDERED INDEX t_a ON t (a)`)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	probe, err := sqlparser.Parse(`SELECT id FROM t WHERE a > 10`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.TableStats("t"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.ExplainSelect(probe.(*sqlparser.Select)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	rng := rand.New(rand.NewSource(seed))
	committed := statsState{}
	open := []*statsTxn{{parity: 0}, {parity: 1}}
	randImage := func() statsRow {
		var r statsRow
		if rng.Intn(4) > 0 {
			a := int64(rng.Intn(40) - 20)
			r.a = &a
		}
		if rng.Intn(4) > 0 {
			b := fmt.Sprintf("k%02d", rng.Intn(30))
			r.b = &b
		}
		return r
	}
	// current returns the image o sees for id (its own write, else the
	// committed one).
	current := func(o *statsTxn, id int64) (statsRow, bool) {
		if w, ok := o.writes[id]; ok {
			if w == nil {
				return statsRow{}, false
			}
			return *w, true
		}
		r, ok := committed[id]
		return r, ok
	}
	live := func() []*statsTxn {
		var out []*statsTxn
		for _, o := range open {
			if o.tx != nil {
				out = append(out, o)
			}
		}
		return out
	}

	for step := 0; step < steps; step++ {
		o := open[rng.Intn(len(open))]
		if o.tx == nil {
			o.tx, o.writes = db.Begin(), map[int64]*statsRow{}
		}
		id := int64(rng.Intn(32))*2 + o.parity
		var desc string
		switch op := rng.Intn(10); {
		case op < 4: // insert or update
			img := randImage()
			if _, exists := current(o, id); exists {
				desc = fmt.Sprintf("UPDATE t SET a = %s, b = %s WHERE id = %d", sqlLit(img.a), sqlLit(img.b), id)
			} else {
				desc = fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %s)", id, sqlLit(img.a), sqlLit(img.b))
			}
			if _, err := o.tx.Exec(ctx, desc); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			o.writes[id] = &img
		case op < 7: // delete
			desc = fmt.Sprintf("DELETE FROM t WHERE id = %d", id)
			if _, err := o.tx.Exec(ctx, desc); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if _, exists := current(o, id); exists {
				o.writes[id] = nil
			}
		case op < 9: // commit
			desc = "COMMIT"
			if err := o.tx.Commit(); err != nil {
				t.Fatal(err)
			}
			for id, w := range o.writes {
				if w == nil {
					delete(committed, id)
				} else {
					committed[id] = *w
				}
			}
			o.tx, o.writes = nil, nil
		default:
			desc = "ROLLBACK"
			o.tx.Rollback()
			o.tx, o.writes = nil, nil
		}
		checkServedStats(t, db, reachable(committed, live()), fmt.Sprintf("seed %d step %d (%s)", seed, step, desc))
	}
}

// TestRecoveredBranchHeldInStats: a prepared branch rebuilt from the
// WAL has not applied its redo yet, so the images its commit would
// write must already be in the served statistics, and they leave when
// the branch ends.
func TestRecoveredBranchHeldInStats(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			db, id := prepareCrash(t, t.TempDir())
			ts, err := db.TableStats("acct")
			if err != nil {
				t.Fatal(err)
			}
			bal, _ := ts.Col("bal")
			if hi, _ := bal.Max.Int(); ts.Rows < 3 || hi < 300 {
				t.Fatalf("recovered branch's insert (3, 300) not covered: rows %d, bal max %v", ts.Rows, bal.Max)
			}
			tx, ok := db.Resume(lockmgr.TxnID(id))
			if !ok {
				t.Fatal("recovered branch not found")
			}
			want := int64(2)
			if commit {
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				want = 3
			} else {
				tx.Rollback()
			}
			ts, _ = db.TableStats("acct")
			if ts.Rows != want {
				t.Fatalf("rows after the branch ended = %d, want %d", ts.Rows, want)
			}
		})
	}
}
