package testfed

import (
	"context"
	"strings"
	"testing"

	"myriad/internal/integration"
	"myriad/internal/localdb"
	"myriad/internal/schema"
)

// buildOracle is the reference the federated query tests compare
// against. It evaluates every integrated definition the way the
// catalog states it, with no planner, pushdown or fan-in: each source
// ships `SELECT <mapped expr or NULL> AS <col>, … FROM <export>
// [WHERE <filter>]` through Conn.Query, integration.Combine merges the
// fragments, and the result loads into one keyless scratch table named
// after the integrated relation. Run the user's SQL unchanged on the
// returned engine. It reflects the sites' data at the time it is built.
func buildOracle(t testing.TB, fx *Fixture) *localdb.DB {
	t.Helper()
	ctx := context.Background()
	cat := fx.Fed.Catalog()
	db := localdb.NewScratch(nil)
	for _, name := range cat.IntegratedNames() {
		def, _ := cat.Integrated(name)
		spec := &integration.Spec{Kind: def.Combine}
		items := make([]string, len(def.Columns))
		for i, c := range def.Columns {
			spec.Columns = append(spec.Columns, c.Name)
			items[i] = "NULL AS " + c.Name
		}
		for _, k := range def.Key {
			if i := def.ColIndex(k); i >= 0 {
				spec.KeyCols = append(spec.KeyCols, i)
			}
		}
		if len(def.Resolvers) > 0 {
			spec.Resolvers = make(map[int]integration.Func)
			for col, fname := range def.Resolvers {
				fn, ok := integration.Lookup(fname)
				if !ok {
					t.Fatalf("oracle: %s: unknown integration function %q", name, fname)
				}
				spec.Resolvers[def.ColIndex(col)] = fn
			}
		}

		frags := make([]*schema.ResultSet, len(def.Sources))
		for si, src := range def.Sources {
			sel := append([]string(nil), items...)
			for i, c := range def.Columns {
				if expr, ok := src.MapFold(c.Name); ok {
					sel[i] = expr + " AS " + c.Name
				}
			}
			sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + src.Export
			if src.Filter != "" {
				sql += " WHERE " + src.Filter
			}
			conn, ok := fx.Fed.Conn(src.Site)
			if !ok {
				t.Fatalf("oracle: %s: no site %s", name, src.Site)
			}
			rs, err := conn.Query(ctx, 0, sql)
			if err != nil {
				t.Fatalf("oracle: %s at %s: %v", sql, src.Site, err)
			}
			frags[si] = rs
		}
		combined, err := integration.Combine(spec, frags)
		if err != nil {
			t.Fatalf("oracle: combining %s: %v", name, err)
		}
		if err := db.CreateTableDirect(&schema.Schema{Table: def.Name, Columns: def.Columns}); err != nil {
			t.Fatal(err)
		}
		if err := db.Load(def.Name, combined.Rows); err != nil {
			t.Fatalf("oracle: loading %s: %v", name, err)
		}
	}
	return db
}

// oracleQuery runs sql on the oracle engine, failing the test on error.
func oracleQuery(t testing.TB, oracle *localdb.DB, sql string) *schema.ResultSet {
	t.Helper()
	rs, err := oracle.Query(context.Background(), sql)
	if err != nil {
		t.Fatalf("oracle: %s: %v", sql, err)
	}
	return rs
}
