package main

import (
	"context"
	"fmt"
	"math/rand"

	"myriad/internal/catalog"
	"myriad/internal/gateway"
	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/value"
)

// analytics is the read-only mix over PARTS (two sites) and the
// CUSTOMERS/ORDERS pair (two more sites): PK point lookups, an
// ordered-index range top-k, a low-cardinality GROUP BY and a
// cross-site bind join. Every answer is precomputed from the generated
// rows.
type analytics struct {
	nclients int
	parts    []schema.Row // id, name, weight, price, category, qty
	byID     map[int64]string
	priceID  []int64 // price -> part id (prices are a permutation)
	aggWant  map[int][]string
	cust     []schema.Row // cid, cname, tier, region
	orders   []schema.Row // oid, cust, amount, item
	joinWant map[int][]string
}

const (
	partsSites       = 2
	partsPerSite     = 50000
	partCategories   = 20
	customers        = 5000
	orders           = 50000
	regions          = 8
	goldShare        = 0.05
	siteBudget       = 256 << 20 // large enough that no query spills
	pointsPerSession = 4
	topK             = 10
	analyticsWarm    = 3 // sessions per client
)

// aggThresholds are the lower weight cut-offs the GROUP BY filters on;
// each window [t, t+500) keeps about half the rows, so every aggregate
// does the same work.
var aggThresholds = []int{0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500}

func newAnalytics(seed int64, clients int) *analytics {
	rng := rand.New(rand.NewSource(seed))
	a := &analytics{nclients: clients, byID: map[int64]string{}, aggWant: map[int][]string{}, joinWant: map[int][]string{}}
	total := partsSites * partsPerSite
	prices := rng.Perm(total)
	a.priceID = make([]int64, total)
	type agg struct{ n, q [partCategories]int64 }
	aggs := make([]agg, len(aggThresholds))
	for id := 0; id < total; id++ {
		weight := float64(rng.Intn(1_000_000)) / 1000
		ci := rng.Intn(partCategories)
		cat := fmt.Sprintf("cat%02d", ci)
		qty := int64(rng.Intn(100))
		for k, t := range aggThresholds {
			if weight >= float64(t) && weight < float64(t+500) {
				aggs[k].n[ci]++
				aggs[k].q[ci] += qty
			}
		}
		name := fmt.Sprintf("part-%d", id)
		a.parts = append(a.parts, schema.Row{
			value.NewInt(int64(id)), value.NewText(name), value.NewFloat(weight),
			value.NewInt(int64(prices[id])), value.NewText(cat), value.NewInt(qty),
		})
		a.byID[int64(id)] = fmt.Sprintf("%d|%s|%s|%d", id, name, cat, qty)
		a.priceID[prices[id]] = int64(id)
	}
	for k, t := range aggThresholds {
		for c := 0; c < partCategories; c++ {
			if aggs[k].n[c] > 0 {
				a.aggWant[t] = append(a.aggWant[t], fmt.Sprintf("cat%02d|%d|%d", c, aggs[k].n[c], aggs[k].q[c]))
			}
		}
	}
	gold := map[int64]int{} // gold customer -> region
	for cid := 0; cid < customers; cid++ {
		tier := "std"
		if rng.Float64() < goldShare {
			tier = "gold"
		}
		region := rng.Intn(regions)
		if tier == "gold" {
			gold[int64(cid)] = region
		}
		a.cust = append(a.cust, schema.Row{
			value.NewInt(int64(cid)), value.NewText(fmt.Sprintf("cust-%d", cid)),
			value.NewText(tier), value.NewText(fmt.Sprintf("r%d", region)),
		})
	}
	for oid := 0; oid < orders; oid++ {
		cid := int64(rng.Intn(customers))
		amount := int64(1 + rng.Intn(50000))
		a.orders = append(a.orders, schema.Row{
			value.NewInt(int64(oid)), value.NewInt(cid), value.NewInt(amount),
			value.NewText(fmt.Sprintf("item-%d", rng.Intn(1000))),
		})
		if r, ok := gold[cid]; ok {
			a.joinWant[r] = append(a.joinWant[r], fmt.Sprintf("%d|%d|%d", cid, oid, amount))
		}
	}
	return a
}

func (a *analytics) spec() fedSpec {
	var sites []siteSpec
	var sources []catalog.SourceDef
	for s := 0; s < partsSites; s++ {
		name := fmt.Sprintf("parts%d", s)
		sites = append(sites, siteSpec{
			name: name, dialect: dialectFor(s), budget: siteBudget,
			ddl: []string{
				`CREATE TABLE parts (pid INTEGER PRIMARY KEY, pname TEXT NOT NULL, weight FLOAT, price INTEGER, category TEXT, qty INTEGER)`,
				`CREATE ORDERED INDEX parts_price ON parts (price)`,
			},
			rows:    map[string][]schema.Row{"parts": a.parts[s*partsPerSite : (s+1)*partsPerSite]},
			exports: []gateway.Export{{Name: "PART", LocalTable: "parts"}},
		})
		sources = append(sources, catalog.SourceDef{
			Site: name, Export: "PART",
			ColumnMap: map[string]string{
				"id": "pid", "name": "pname", "weight": "weight", "price": "price",
				"category": "category", "qty": "qty", "site": "'" + name + "'",
			},
		})
	}
	sites = append(sites,
		siteSpec{
			name: "crm", dialect: "oracle", budget: siteBudget,
			ddl:     []string{`CREATE TABLE customers (cid INTEGER PRIMARY KEY, cname TEXT NOT NULL, tier TEXT, region TEXT)`},
			rows:    map[string][]schema.Row{"customers": a.cust},
			exports: []gateway.Export{{Name: "CUSTOMER", LocalTable: "customers"}},
		},
		siteSpec{
			name: "sales", dialect: "postgres", budget: siteBudget,
			ddl: []string{
				`CREATE TABLE orders (oid INTEGER PRIMARY KEY, cust INTEGER NOT NULL, amount INTEGER, item TEXT)`,
				`CREATE INDEX orders_cust ON orders (cust)`,
			},
			rows:    map[string][]schema.Row{"orders": a.orders},
			exports: []gateway.Export{{Name: "ORDER_T", LocalTable: "orders"}},
		})
	return fedSpec{
		sites: sites,
		integrated: []*catalog.IntegratedDef{
			{
				Name: "PARTS",
				Columns: []schema.Column{
					{Name: "id", Type: schema.TInt}, {Name: "name", Type: schema.TText},
					{Name: "weight", Type: schema.TFloat}, {Name: "price", Type: schema.TInt},
					{Name: "category", Type: schema.TText}, {Name: "qty", Type: schema.TInt},
					{Name: "site", Type: schema.TText},
				},
				Key: []string{"id"}, Combine: integration.UnionAll, Sources: sources,
			},
			{
				Name: "CUSTOMERS",
				Columns: []schema.Column{
					{Name: "cid", Type: schema.TInt}, {Name: "cname", Type: schema.TText},
					{Name: "tier", Type: schema.TText}, {Name: "region", Type: schema.TText},
				},
				Key: []string{"cid"}, Combine: integration.UnionAll,
				Sources: []catalog.SourceDef{{Site: "crm", Export: "CUSTOMER",
					ColumnMap: map[string]string{"cid": "cid", "cname": "cname", "tier": "tier", "region": "region"}}},
			},
			{
				Name: "ORDERS",
				Columns: []schema.Column{
					{Name: "oid", Type: schema.TInt}, {Name: "cust", Type: schema.TInt},
					{Name: "amount", Type: schema.TInt}, {Name: "item", Type: schema.TText},
				},
				Key: []string{"oid"}, Combine: integration.UnionAll,
				Sources: []catalog.SourceDef{{Site: "sales", Export: "ORDER_T",
					ColumnMap: map[string]string{"oid": "oid", "cust": "cust", "amount": "amount", "item": "item"}}},
			},
		},
	}
}

func (a *analytics) clients() int { return a.nclients }

func (a *analytics) warmSessions() int { return analyticsWarm }

func (a *analytics) pointSQL(c *client) (string, []string) {
	id := int64(c.rng.Intn(len(a.parts)))
	return fmt.Sprintf("SELECT id, name, category, qty FROM PARTS WHERE id = %d", id), []string{a.byID[id]}
}

func (a *analytics) topkSQL(c *client) (string, []string) {
	lo := c.rng.Intn(len(a.priceID) - topK)
	want := make([]string, topK)
	for i := range want {
		want[i] = fmt.Sprintf("%d|%d", a.priceID[lo+i], lo+i)
	}
	return fmt.Sprintf("SELECT id, price FROM PARTS WHERE price >= %d ORDER BY price LIMIT %d", lo, topK), want
}

func (a *analytics) aggSQL(c *client) (string, []string) {
	t := aggThresholds[c.rng.Intn(len(aggThresholds))]
	return fmt.Sprintf("SELECT category, COUNT(*) AS n, SUM(qty) AS q FROM PARTS WHERE weight >= %d AND weight < %d GROUP BY category ORDER BY category", t, t+500), a.aggWant[t]
}

func (a *analytics) joinSQL(c *client) (string, []string) {
	r := c.rng.Intn(regions)
	return fmt.Sprintf("SELECT c.cid, o.oid, o.amount FROM CUSTOMERS c JOIN ORDERS o ON c.cid = o.cust WHERE c.region = 'r%d' AND c.tier = 'gold' ORDER BY o.oid", r), a.joinWant[r]
}

// ask runs one query of class and compares the answer.
func ask(ctx context.Context, c *client, class, sql string, want []string) {
	c.do(class, func() (int64, error) {
		rs, err := c.query(ctx, sql)
		if err != nil {
			return 0, err
		}
		return int64(len(rs.Rows)), sameRows(rs, want)
	})
}

func (a *analytics) session(ctx context.Context, c *client) {
	for i := 0; i < pointsPerSession; i++ {
		sql, want := a.pointSQL(c)
		ask(ctx, c, "point", sql, want)
	}
	sql, want := a.topkSQL(c)
	ask(ctx, c, "topk", sql, want)
	sql, want = a.aggSQL(c)
	ask(ctx, c, "agg", sql, want)
	sql, want = a.joinSQL(c)
	ask(ctx, c, "join", sql, want)
}

func (a *analytics) probes(c *client) []probe {
	p, _ := a.pointSQL(c)
	t, _ := a.topkSQL(c)
	g, _ := a.aggSQL(c)
	j, _ := a.joinSQL(c)
	return []probe{{"point", p}, {"topk", t}, {"agg", g}, {"join", j}}
}

// check has nothing beyond the per-answer comparisons: the mix is
// read-only.
func (a *analytics) check(context.Context, *deployment) []string { return nil }

// corrupt damages one expected answer (harness self-test).
func (a *analytics) corrupt() {
	for k := range a.byID {
		a.byID[k] += "x"
	}
}
