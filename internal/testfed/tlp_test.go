package testfed

import (
	"context"
	"fmt"
	"testing"

	"myriad/internal/core"
	"myriad/internal/schema"
)

// tlpShapes are the grouped corpus's non-aggregate, non-LIMIT shapes
// with the WHERE clause left open: %[1]s is "" or " WHERE <cond>".
// DISTINCT and UNION results are sets, and one row can come out of
// several partitions, so there the partitions add up as a set union.
var tlpShapes = []struct {
	sql string
	set bool
}{
	{`SELECT id, a, b, v FROM GR%[1]s`, false},
	{`SELECT id, a, b, v FROM GD%[1]s ORDER BY id`, false},
	{`SELECT DISTINCT a, b FROM GR%[1]s ORDER BY a, b`, true},
	{`SELECT DISTINCT a, b, v FROM GR%[1]s`, true},
	{`SELECT a, v FROM GR%[1]s UNION SELECT a, v FROM GD%[1]s ORDER BY a, v`, true},
}

// tlpPredicates range over the grouped fixture's columns; a is NULL on
// every 7th row, so each has a non-empty NULL partition.
var tlpPredicates = []string{
	`a = 2`,
	`a < 3 AND v > 4`,
	`b = 'k1' OR a > 2`,
	`a + v > 8`,
}

// TestTernaryLogicPartitioning is the ternary logic partitioning check
// of Rigger & Su ("Finding Bugs in Database Systems via Query
// Partitioning", OOPSLA 2020): every row satisfies exactly one of p,
// NOT (p) and (p) IS NULL, so the three filtered results must add up
// to the unfiltered one. Pushdown, pruning and fan-in see three
// different predicates; a result none of them may change checks them
// without a reference implementation.
func TestTernaryLogicPartitioning(t *testing.T) {
	// The property needs the fixture's NULLs and overlaps, not its
	// volume: 200 rows a site keep the 520 queries quick when every
	// operator spills (the forced-budget CI run).
	fx := groupedFixture(t, 200)
	ctx := context.Background()
	query := func(t *testing.T, sql string, strategy core.Strategy) *schema.ResultSet {
		t.Helper()
		rs, _, err := collect(ctx, fx.Fed, nil, sql, strategy)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rs
	}
	for _, policy := range []core.FanInPolicy{core.FanInAuto, core.FanInSourceOrder, core.FanInInterleave, core.FanInMerge} {
		fx.Fed.FanIn = policy
		for _, strategy := range []core.Strategy{core.StrategyCostBased, core.StrategySimple} {
			for _, shape := range tlpShapes {
				whole := query(t, fmt.Sprintf(shape.sql, ""), strategy)
				for _, p := range tlpPredicates {
					t.Run(fmt.Sprintf("%v/%v/%s/%s", policy, strategy, shape.sql, p), func(t *testing.T) {
						sum := &schema.ResultSet{Columns: whole.Columns}
						for _, cond := range []string{"(" + p + ")", "NOT (" + p + ")", "(" + p + ") IS NULL"} {
							sum.Rows = append(sum.Rows, query(t, fmt.Sprintf(shape.sql, " WHERE "+cond), strategy).Rows...)
						}
						if shape.set {
							sum.Rows = distinctRows(sum.Rows)
						}
						assertSameResultUnordered(t, whole, sum)
					})
				}
			}
		}
	}
	fx.Fed.FanIn = core.FanInAuto
}

// distinctRows keeps the first occurrence of every row.
func distinctRows(rows []schema.Row) []schema.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if k := rowKey(r); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
