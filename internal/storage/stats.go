package storage

import (
	"myriad/internal/schema"
	"myriad/internal/value"
)

// ColumnStats summarizes one column for the optimizer's cost model.
type ColumnStats struct {
	Name     string
	Distinct int64
	Nulls    int64
	Min, Max value.Value // NULL when the column is empty or non-comparable
}

// TableStats summarizes a table.
type TableStats struct {
	Table   string
	Rows    int64
	Columns []ColumnStats
}

// Stats returns the table's statistics in O(columns): no scan. Every
// mutation keeps Rows and each column's Nulls exact and widens Min/Max
// (a delete never narrows them); Distinct comes from the last amortized
// rescan (RefreshStats). Row images held for an open transaction
// (HoldImage) count in Rows and Nulls and lie inside [Min, Max], so the
// snapshot covers every state that transaction's commit or rollback can
// produce — pruning a fragment on it ("empty fragment", "all NULL",
// disjoint bounds) never hides a row either outcome could leave behind.
// MYRIAD gateways serve it on demand and the federation caches it; the
// component databases in the paper exposed equivalent catalog views.
// Callers hold the database latch (any mode).
func (t *Table) Stats() TableStats {
	ts := TableStats{Table: t.Schema.Table, Rows: int64(t.live) + t.held}
	ts.Columns = make([]ColumnStats, len(t.Schema.Columns))
	for i, col := range t.Schema.Columns {
		ts.Columns[i] = ColumnStats{
			Name:     col.Name,
			Distinct: t.distinct[i],
			Nulls:    t.nulls[i],
			Min:      t.mins[i],
			Max:      t.maxs[i],
		}
	}
	return ts
}

// HoldImage keeps a row image in the statistics until ReleaseImage: the
// DBMS holds the old image a transaction deleted or overwrote (its
// rollback restores it) and the new image a recovered prepared branch
// has yet to apply (its commit writes it). Callers hold the database
// latch exclusively.
func (t *Table) HoldImage(r schema.Row) {
	t.held++
	t.countImage(r, 1)
}

// ReleaseImage drops a held image once its transaction has ended.
// Callers hold the database latch exclusively.
func (t *Table) ReleaseImage(r schema.Row) {
	t.held--
	t.countImage(r, -1)
	t.muts++ // a release may be what lets the next rescan narrow
}

// countImage adds (delta 1) or removes (delta -1) one row image from
// the maintained statistics. Adding widens Min/Max; removing never
// narrows them — only a rescan with no held images does.
func (t *Table) countImage(r schema.Row, delta int64) {
	for i, v := range r {
		if v.IsNull() {
			t.nulls[i] += delta
		} else if delta > 0 {
			widen(t.mins, t.maxs, i, v)
		}
	}
}

// widen stretches the bounds pair [mins[i], maxs[i]] to cover the
// non-NULL value v.
func widen(mins, maxs []value.Value, i int, v value.Value) {
	if mins[i].IsNull() {
		mins[i], maxs[i] = v, v
		return
	}
	if c, ok := value.Compare(v, mins[i]); ok && c < 0 {
		mins[i] = v
	}
	if c, ok := value.Compare(v, maxs[i]); ok && c > 0 {
		maxs[i] = v
	}
}

// statsStaleFraction bounds how stale Distinct may grow: the rescan
// reruns once the mutations since the last one exceed rows/8, so its
// amortized cost is at most eight row visits per mutation and each
// column's Distinct is off by at most rows/8.
const statsStaleFraction = 8

// RefreshStats reruns the amortized rescan when it is due: once the
// mutations since the last rescan exceed rows/statsStaleFraction. The
// rescan recounts Distinct over the live rows and, when no image is
// held, narrows Min/Max to the live rows' bounds (with a held image
// present the widened bounds stay, so they keep covering it). The DBMS
// calls it at the end of each write statement and transaction, never
// on a read. Callers hold the database latch exclusively.
func (t *Table) RefreshStats() {
	if t.muts <= (int64(t.live)+t.held)/statsStaleFraction {
		return
	}
	t.muts = 0
	n := len(t.Schema.Columns)
	seen := make([]map[uint64]struct{}, n)
	for i := range seen {
		seen[i] = make(map[uint64]struct{}, int(t.distinct[i]))
	}
	mins := make([]value.Value, n)
	maxs := make([]value.Value, n)
	t.Scan(func(_ RowID, r schema.Row) bool {
		for i, v := range r {
			if v.IsNull() {
				continue
			}
			seen[i][v.Hash()] = struct{}{}
			widen(mins, maxs, i, v)
		}
		return true
	})
	for i := range seen {
		t.distinct[i] = int64(len(seen[i]))
	}
	if t.held == 0 {
		t.mins, t.maxs = mins, maxs
	}
}

// EqFraction estimates the fraction of the table's rows whose column
// equals some single non-NULL value: the uniform-distribution 1/distinct
// rule over live statistics, floored so a zero never reaches the cost
// model.
func (cs *ColumnStats) EqFraction(rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	if cs.Distinct > 0 {
		f := float64(rows-cs.Nulls) / float64(rows) / float64(cs.Distinct)
		if f > 1 {
			return 1
		}
		return f
	}
	return 0.1
}

// RangeFraction estimates the fraction of rows falling inside the bound
// pair by linear interpolation over [Min, Max] for numeric columns (the
// System-R rule the federation planner also applies), scaled by the
// column's non-NULL fraction — range predicates never match NULL. A
// non-numeric or empty column degrades to the classic 1/3 per bounded
// side.
func (cs *ColumnStats) RangeFraction(lo, hi Bound, rows int64) float64 {
	if rows <= 0 {
		return 0
	}
	notNull := float64(rows-cs.Nulls) / float64(rows)
	mn, ok1 := cs.Min.Float()
	mx, ok2 := cs.Max.Float()
	numericCol := ok1 && ok2 && !cs.Min.IsNull() && !cs.Max.IsNull()
	frac := 1.0
	interpolated := false
	if numericCol && mx > mn {
		loF, hiF := 0.0, 1.0
		if lo.Set {
			if v, ok := lo.V.Float(); ok {
				loF = clamp01((v - mn) / (mx - mn))
				interpolated = true
			}
		}
		if hi.Set {
			if v, ok := hi.V.Float(); ok {
				hiF = clamp01((v - mn) / (mx - mn))
				interpolated = true
			}
		}
		if interpolated {
			frac = hiF - loF
			if frac < 0 {
				frac = 0
			}
			// An equality-tight range still matches ~one value.
			if frac == 0 && lo.Set && hi.Set && cs.Distinct > 0 {
				frac = 1 / float64(cs.Distinct)
			}
		}
	}
	if !interpolated {
		frac = 1.0
		if lo.Set {
			frac /= 3
		}
		if hi.Set {
			frac /= 3
		}
	}
	return clamp01(frac) * notNull
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Col returns the stats for the named column, if present.
func (ts *TableStats) Col(name string) (ColumnStats, bool) {
	for _, c := range ts.Columns {
		if equalFold(c.Name, name) {
			return c, true
		}
	}
	return ColumnStats{}, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
