// Optimizer: a side-by-side tour of the paper's two query-processing
// strategies — the "simple" strategy the 1994 prototype shipped and the
// "full-fledged" cost-based strategy it was building — on the three
// rewrites that matter: selection pushdown, semijoin reduction, and
// partial aggregation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"myriad"
	"myriad/internal/schema"
	"myriad/internal/workload"
)

func main() {
	ctx := context.Background()

	fmt.Println("== selection pushdown (PARTS: 2 sites x 5000 rows) ==")
	parts := workload.BuildParts(workload.PartsSpec{Sites: 2, RowsPerSite: 5000, Seed: 42})
	for _, sel := range []float64{0.01, 0.5} {
		sql := fmt.Sprintf(`SELECT id, name, weight FROM PARTS WHERE weight < %g`, sel*1000)
		fmt.Printf("\nselectivity %.0f%%: %s\n", sel*100, sql)
		compare(ctx, parts.Fed, sql)
	}

	fmt.Println("\n== semijoin reduction (500 customers, 20000 orders, 2% gold) ==")
	orders := workload.BuildOrders(workload.OrdersSpec{Customers: 500, Orders: 20000, HotPercent: 0.02, Seed: 42})
	join := `SELECT c.cname, SUM(o.amount) AS spent
	         FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust
	         WHERE c.tier = 'gold' GROUP BY c.cname`
	compare(ctx, orders.Fed, join)
	plan, err := orders.Fed.Explain(ctx, join, myriad.StrategyCostBased)
	must(err)
	fmt.Printf("\ncost-based plan (note the semijoin probe):\n%s", plan)

	fmt.Println("\n== partial aggregation (PARTS: 4 sites x 5000 rows) ==")
	wide := workload.BuildParts(workload.PartsSpec{Sites: 4, RowsPerSite: 5000, Seed: 42})
	agg := `SELECT category, COUNT(*) AS n, ROUND(AVG(price), 2) AS avg_price
	        FROM PARTS GROUP BY category ORDER BY category LIMIT 3`
	compare(ctx, wide.Fed, agg)
	plan, err = wide.Fed.Explain(ctx, agg, myriad.StrategyCostBased)
	must(err)
	fmt.Printf("\ncost-based plan (sites pre-aggregate):\n%s", plan)
}

// compare runs one query under both strategies and prints latency and
// rows shipped from the component sites.
func compare(ctx context.Context, fed *myriad.Federation, sql string) {
	for _, strat := range []myriad.Strategy{myriad.StrategySimple, myriad.StrategyCostBased} {
		start := time.Now()
		rows, m, err := fed.Run(ctx, nil, sql, strat)
		must(err)
		rs, err := schema.DrainStream(ctx, rows)
		must(err)
		must(rows.Close()) // settles m.RowsShipped
		fmt.Printf("  %-11v %8.2fms  %6d rows shipped  (%d result rows)\n",
			strat, float64(time.Since(start).Microseconds())/1000, m.RowsShipped, len(rs.Rows))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
