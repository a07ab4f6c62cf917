// University: the paper's motivating scenario — "enterprise-wide"
// information over independently developed databases. Two campus
// registrars run different DBMS dialects with different schemas; the
// federation integrates them with renaming, derived columns,
// outer-join-merge entity integration, and a user-defined integration
// function, then answers cross-campus queries with both optimizer
// strategies.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"myriad"
	"myriad/internal/schema"
	"myriad/internal/value"
)

func main() {
	ctx := context.Background()

	// ------------------------------------------------------------------
	// Component databases (autonomous, heterogeneous).

	// East campus: an Oracle-style registrar.
	east := myriad.NewComponentDB("east")
	east.MustExec(`CREATE TABLE students (sid INTEGER PRIMARY KEY, sname TEXT NOT NULL, gpa FLOAT, yr INTEGER, advisor TEXT)`)
	east.MustExec(`INSERT INTO students VALUES
		(1, 'ann', 3.9, 1, 'prof-x'), (2, 'bo', 3.1, 2, 'prof-y'),
		(3, 'cy', 2.5, 3, 'prof-x'), (4, 'di', 3.7, 2, 'prof-z'),
		(5, 'ed', 3.2, 1, NULL)`)
	east.MustExec(`CREATE TABLE grads (gid INTEGER PRIMARY KEY, gname TEXT, thesis TEXT)`)
	east.MustExec(`INSERT INTO grads VALUES (900, 'zoe', 'federated databases'), (901, 'yan', 'query optimization')`)

	// West campus: a Postgres-style registrar with different names and
	// a 0-100 grade scale instead of 0-4 GPA.
	west := myriad.NewComponentDB("west")
	west.MustExec(`CREATE TABLE pupils (id INTEGER PRIMARY KEY, full_name TEXT NOT NULL, pct_grade FLOAT, level INTEGER)`)
	west.MustExec(`INSERT INTO pupils VALUES
		(101, 'fay', 95.0, 3), (102, 'gil', 72.5, 2), (103, 'hal', 80.0, 1), (104, 'ivy', 99.0, 4)`)

	gwEast := myriad.NewGateway("east", east, myriad.DialectOracle())
	must(gwEast.DefineExport(myriad.Export{Name: "STUDENT", LocalTable: "students",
		Columns: []myriad.ExportColumn{
			{Export: "id", Local: "sid"}, {Export: "name", Local: "sname"},
			{Export: "gpa", Local: "gpa"}, {Export: "year", Local: "yr"},
			{Export: "advisor", Local: "advisor"},
		}}))
	// Site autonomy: east exports only non-thesis grad info, filtered.
	must(gwEast.DefineExport(myriad.Export{Name: "GRAD", LocalTable: "grads",
		Columns: []myriad.ExportColumn{
			{Export: "id", Local: "gid"}, {Export: "name", Local: "gname"},
		}}))

	gwWest := myriad.NewGateway("west", west, myriad.DialectPostgres())
	must(gwWest.DefineExport(myriad.Export{Name: "STUDENT", LocalTable: "pupils",
		Columns: []myriad.ExportColumn{
			{Export: "id", Local: "id"}, {Export: "name", Local: "full_name"},
			{Export: "pct", Local: "pct_grade"}, {Export: "year", Local: "level"},
		}}))

	// ------------------------------------------------------------------
	// Federation: one schema over both campuses.

	fed := myriad.NewFederation("university")
	must(fed.AttachSite(ctx, myriad.LocalConn(gwEast)))
	must(fed.AttachSite(ctx, myriad.LocalConn(gwWest)))

	// A user-defined integration function: prefer a plausible GPA
	// (0..4) over junk when campuses disagree.
	myriad.RegisterIntegrationFunc("plausible_gpa", func(vals []myriad.Value) (myriad.Value, error) {
		for _, v := range vals {
			if f, ok := v.Float(); ok && f >= 0 && f <= 4 {
				return v, nil
			}
		}
		return value.Null(), nil
	})

	// ALL_STUDENTS: union of both campuses; west's percentage grades
	// are converted to the 4-point scale inside the source mapping
	// (derived-column integration).
	must(fed.DefineIntegrated(&myriad.IntegratedDef{
		Name: "ALL_STUDENTS",
		Columns: []myriad.Column{
			{Name: "id", Type: myriad.TInt},
			{Name: "name", Type: myriad.TText},
			{Name: "gpa", Type: myriad.TFloat},
			{Name: "year", Type: myriad.TInt},
			{Name: "campus", Type: myriad.TText},
		},
		Key:     []string{"id"},
		Combine: myriad.UnionAll,
		Sources: []myriad.SourceDef{
			{Site: "east", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name", "gpa": "gpa", "year": "year", "campus": "'east'"}},
			{Site: "west", Export: "STUDENT", ColumnMap: map[string]string{
				"id": "id", "name": "name", "gpa": "pct / 25.0", "year": "year", "campus": "'west'"}},
		},
	}))

	fmt.Println("== cross-campus queries ==")
	for _, q := range []string{
		`SELECT COUNT(*) AS students FROM ALL_STUDENTS`,
		`SELECT campus, COUNT(*) AS n, ROUND(AVG(gpa), 2) AS avg_gpa FROM ALL_STUDENTS GROUP BY campus ORDER BY campus`,
		`SELECT name, gpa, campus FROM ALL_STUDENTS WHERE gpa >= 3.5 ORDER BY gpa DESC`,
		`SELECT year, COUNT(*) AS n FROM ALL_STUDENTS GROUP BY year HAVING COUNT(*) > 1 ORDER BY year`,
	} {
		rs, err := fed.Query(ctx, q)
		must(err)
		fmt.Printf("\n%s\n%s", q, rs.String())
	}

	// ------------------------------------------------------------------
	// Optimizer comparison on the same query.

	q := `SELECT name FROM ALL_STUDENTS WHERE gpa >= 3.5 AND campus = 'east'`
	fmt.Println("\n== optimizer strategies ==")
	for _, strat := range []myriad.Strategy{myriad.StrategySimple, myriad.StrategyCostBased} {
		rows, metrics, err := fed.Run(ctx, nil, q, strat)
		must(err)
		_, err = schema.DrainStream(ctx, rows)
		must(err)
		must(rows.Close()) // settles metrics.RowsShipped
		fmt.Printf("%-11v rows shipped from sites: %d\n", strat, metrics.RowsShipped)
	}
	plan, err := fed.Explain(ctx, q, myriad.StrategyCostBased)
	must(err)
	fmt.Printf("\ncost-based plan:\n%s", plan)

	// ------------------------------------------------------------------
	// Entity integration with conflict resolution: both campuses store
	// records for exchange students (same id), with disagreeing data.

	east.MustExec(`CREATE TABLE exchange (xid INTEGER PRIMARY KEY, xname TEXT, xgpa FLOAT)`)
	east.MustExec(`INSERT INTO exchange VALUES (500, 'kim', 3.4), (501, 'lee', 39.0)`) // 39.0 is junk
	west.MustExec(`CREATE TABLE visiting (vid INTEGER PRIMARY KEY, vname TEXT, vgpa FLOAT)`)
	west.MustExec(`INSERT INTO visiting VALUES (500, 'kim c.', 3.5), (501, 'lee', 3.0), (502, 'mo', 3.8)`)
	must(gwEast.DefineExport(myriad.Export{Name: "EXCHANGE", LocalTable: "exchange",
		Columns: []myriad.ExportColumn{
			{Export: "id", Local: "xid"}, {Export: "name", Local: "xname"}, {Export: "gpa", Local: "xgpa"},
		}}))
	must(gwWest.DefineExport(myriad.Export{Name: "EXCHANGE", LocalTable: "visiting",
		Columns: []myriad.ExportColumn{
			{Export: "id", Local: "vid"}, {Export: "name", Local: "vname"}, {Export: "gpa", Local: "vgpa"},
		}}))
	must(fed.RefreshSite(ctx, "east"))
	must(fed.RefreshSite(ctx, "west"))

	must(fed.DefineIntegrated(&myriad.IntegratedDef{
		Name: "EXCHANGE_STUDENTS",
		Columns: []myriad.Column{
			{Name: "id", Type: myriad.TInt},
			{Name: "name", Type: myriad.TText},
			{Name: "gpa", Type: myriad.TFloat},
		},
		Key:     []string{"id"},
		Combine: myriad.MergeOuter,
		Sources: []myriad.SourceDef{
			{Site: "east", Export: "EXCHANGE", ColumnMap: map[string]string{"id": "id", "name": "name", "gpa": "gpa"}},
			{Site: "west", Export: "EXCHANGE", ColumnMap: map[string]string{"id": "id", "name": "name", "gpa": "gpa"}},
		},
		Resolvers: map[string]string{
			"name": "first",         // east wins on names
			"gpa":  "plausible_gpa", // user-defined: first value in [0,4]
		},
	}))

	rs, err := fed.Query(ctx, `SELECT id, name, gpa FROM EXCHANGE_STUDENTS ORDER BY id`)
	must(err)
	fmt.Printf("\n== entity integration (outerjoin-merge + user-defined resolver) ==\n%s", rs.String())
	fmt.Println(strings.Repeat("-", 40))
	fmt.Println("note: lee's east gpa (39.0) was rejected by plausible_gpa;")
	fmt.Println("mo exists only at west and survives the outer merge.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
