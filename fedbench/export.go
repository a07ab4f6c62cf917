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

// export is bulk streaming with one client: a full UNION ALL scan of
// two sites drained through fedclient.QueryStream, then a sort of the
// integrated relation on an unindexed column under a federation memory
// budget smaller than the result, so the sort spills.
type export struct {
	nclients int
	items    []schema.Row // iid, label, qty, score
	idSum    int64
	qtySum   int64
}

const (
	exportSites   = 2
	itemsPerSite  = 50000
	exportBudget  = 2 << 20 // bytes; the sorted result is several times larger
	exportWarm    = 1       // sessions per client
	scanSQL       = "SELECT iid, label, qty, score FROM ITEMS"
	sortSQL       = "SELECT iid, score FROM ITEMS ORDER BY score"
	exportClients = 1
)

func newExport(seed int64) *export {
	rng := rand.New(rand.NewSource(seed))
	e := &export{nclients: exportClients}
	for id := 0; id < exportSites*itemsPerSite; id++ {
		qty := int64(rng.Intn(1000))
		e.items = append(e.items, schema.Row{
			value.NewInt(int64(id)), value.NewText(fmt.Sprintf("item-%d-%d", id, rng.Intn(1<<20))),
			value.NewInt(qty), value.NewFloat(rng.Float64() * 1e6),
		})
		e.idSum += int64(id)
		e.qtySum += qty
	}
	return e
}

func (e *export) spec() fedSpec {
	var sites []siteSpec
	var sources []catalog.SourceDef
	for s := 0; s < exportSites; s++ {
		name := fmt.Sprintf("store%d", s)
		sites = append(sites, siteSpec{
			name: name, dialect: dialectFor(s),
			ddl:     []string{`CREATE TABLE items (iid INTEGER PRIMARY KEY, label TEXT NOT NULL, qty INTEGER, score FLOAT)`},
			rows:    map[string][]schema.Row{"items": e.items[s*itemsPerSite : (s+1)*itemsPerSite]},
			exports: []gateway.Export{{Name: "ITEM", LocalTable: "items"}},
		})
		sources = append(sources, catalog.SourceDef{
			Site: name, Export: "ITEM",
			ColumnMap: map[string]string{"iid": "iid", "label": "label", "qty": "qty", "score": "score"},
		})
	}
	return fedSpec{
		sites:     sites,
		memBudget: exportBudget,
		integrated: []*catalog.IntegratedDef{{
			Name: "ITEMS",
			Columns: []schema.Column{
				{Name: "iid", Type: schema.TInt}, {Name: "label", Type: schema.TText},
				{Name: "qty", Type: schema.TInt}, {Name: "score", Type: schema.TFloat},
			},
			Key: []string{"iid"}, Combine: integration.UnionAll, Sources: sources,
		}},
	}
}

func (e *export) clients() int { return e.nclients }

func (e *export) warmSessions() int { return exportWarm }

func (e *export) session(ctx context.Context, c *client) {
	c.do("scan", func() (int64, error) {
		var n, ids, qty int64
		_, first, err := c.stream(ctx, scanSQL, func(r schema.Row) error {
			id, _ := r[0].Int()
			q, _ := r[2].Int()
			n, ids, qty = n+1, ids+id, qty+q
			return nil
		})
		if err != nil {
			return 0, err
		}
		c.rec.mu.Lock()
		c.rec.firstRow["scan"] = append(c.rec.firstRow["scan"], float64(first)/1e6)
		c.rec.mu.Unlock()
		if n != int64(len(e.items)) || ids != e.idSum || qty != e.qtySum {
			return 0, wrong("scan: %d rows, id sum %d, qty sum %d; want %d, %d, %d", n, ids, qty, len(e.items), e.idSum, e.qtySum)
		}
		return n, nil
	})
	c.do("sort", func() (int64, error) {
		var n, ids int64
		prev := -1.0
		var disorder bool
		_, _, err := c.stream(ctx, sortSQL, func(r schema.Row) error {
			id, _ := r[0].Int()
			s, _ := r[1].Float()
			if s < prev {
				disorder = true
			}
			prev = s
			n, ids = n+1, ids+id
			return nil
		})
		if err != nil {
			return 0, err
		}
		if disorder || n != int64(len(e.items)) || ids != e.idSum {
			return 0, wrong("sort: %d rows, id sum %d, in order %v; want %d, %d", n, ids, !disorder, len(e.items), e.idSum)
		}
		return n, nil
	})
}

func (e *export) probes(*client) []probe {
	return []probe{{"scan", scanSQL}, {"sort", sortSQL}}
}

func (e *export) check(context.Context, *deployment) []string { return nil }

// corrupt damages the expected checksum (harness self-test).
func (e *export) corrupt() { e.idSum++ }
