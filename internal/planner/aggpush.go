package planner

import (
	"fmt"
	"strings"

	"myriad/internal/integration"
	"myriad/internal/schema"
	"myriad/internal/sqlparser"
	"myriad/internal/value"
)

// Aggregate pushdown ("partial aggregation"): for a single-relation
// UNION ALL aggregate query whose filter pushed completely, each source
// computes per-group partial aggregates and the residual merges them —
// shipping one row per group per site instead of every input row. This
// is the classic distributed-aggregation rewrite the paper's
// "full-fledged" optimizer was being built for.
//
// Applicability (conservative, checked in order):
//   - exactly one FROM relation, no joins, no UNION, no DISTINCT
//   - the relation combines by UNION ALL
//   - every WHERE conjunct was pushed to every source
//   - GROUP BY keys are plain columns mapped by every source
//   - every aggregate is COUNT/SUM/AVG/MIN/MAX without DISTINCT, and
//     its argument is mappable at every source

// aggPartial describes how one aggregate call is split.
type aggPartial struct {
	fn  *sqlparser.FuncExpr
	key string // canonical text for matching references
	// cols are the partial-column names in the temp schema (one, or
	// two for AVG: sum then count).
	cols []string
	// merged is the residual expression combining the partials.
	merged sqlparser.Expr
}

// pushAggregates attempts the rewrite; it returns the replacement
// residual SELECT (ok=true) or leaves everything untouched (ok=false).
func (p *Planner) pushAggregates(sel *sqlparser.Select, sets map[string]*ScanSet) (*sqlparser.Select, bool) {
	if len(sets) != 1 || sel.Compound != nil || sel.Distinct || len(sel.Joins) > 0 || len(sel.From) != 1 {
		return nil, false
	}
	var ss *ScanSet
	for _, s := range sets {
		ss = s
	}
	if ss.Def.Combine != integration.UnionAll {
		return nil, false
	}

	// The query must actually aggregate.
	if !selectAggregates(sel) {
		return nil, false
	}

	// Every WHERE conjunct must have pushed to every source (the
	// residual cannot re-filter aggregated rows).
	for _, conj := range sqlparser.SplitConjuncts(sel.Where) {
		alias, ok := singleAlias(conj, sets)
		if !ok || !strings.EqualFold(alias, strings.ToLower(ss.Alias)) {
			return nil, false
		}
		for i := range ss.Def.Sources {
			if _, ok := translateExpr(conj, &ss.Def.Sources[i], ss.Alias); !ok {
				return nil, false
			}
		}
	}

	// Group keys: plain columns of this relation, mapped everywhere.
	type groupKey struct {
		col  string
		expr *sqlparser.ColumnRef
	}
	var keys []groupKey
	for _, g := range sel.GroupBy {
		cr, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			return nil, false
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, ss.Alias) {
			return nil, false
		}
		if ss.Def.ColIndex(cr.Column) < 0 {
			return nil, false
		}
		for i := range ss.Def.Sources {
			if _, ok := ss.Def.Sources[i].MapFold(cr.Column); !ok {
				return nil, false
			}
		}
		keys = append(keys, groupKey{col: cr.Column, expr: cr})
	}

	// Collect unique aggregates from items, HAVING, ORDER BY.
	var partials []*aggPartial
	index := map[string]*aggPartial{}
	okAll := true
	collect := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			f, isF := x.(*sqlparser.FuncExpr)
			if !isF || !sqlparser.AggregateFuncs[f.Name] {
				return true
			}
			if f.Distinct {
				okAll = false
				return false
			}
			key := sqlparser.FormatExpr(f, nil)
			if _, dup := index[key]; dup {
				return false
			}
			if !f.Star {
				if len(f.Args) != 1 {
					okAll = false
					return false
				}
				// Argument must translate at every source.
				for i := range ss.Def.Sources {
					if _, ok := translateExpr(f.Args[0], &ss.Def.Sources[i], ss.Alias); !ok {
						okAll = false
						return false
					}
				}
			}
			pa := &aggPartial{fn: f, key: key}
			index[key] = pa
			partials = append(partials, pa)
			return false
		})
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, false // SELECT * with aggregates is malformed anyway
		}
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	if !okAll || len(partials) == 0 {
		return nil, false
	}

	// Non-aggregate column references outside GROUP BY keys would not
	// exist in the partial temp table; reject those queries.
	inKeys := func(cr *sqlparser.ColumnRef) bool {
		for _, k := range keys {
			if strings.EqualFold(k.col, cr.Column) {
				return true
			}
		}
		return false
	}
	validRefs := true
	checkRefs := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if f, isF := x.(*sqlparser.FuncExpr); isF && sqlparser.AggregateFuncs[f.Name] {
				return false // column refs inside aggregates are fine
			}
			if cr, isC := x.(*sqlparser.ColumnRef); isC && !inKeys(cr) {
				validRefs = false
			}
			return true
		})
	}
	for _, it := range sel.Items {
		checkRefs(it.Expr)
	}
	checkRefs(sel.Having)
	for _, o := range sel.OrderBy {
		checkRefs(o.Expr)
	}
	if !validRefs {
		return nil, false
	}

	// Build the partial columns and merged expressions.
	temp := &schema.Schema{Table: ss.TempTable}
	for _, k := range keys {
		ci := ss.Def.ColIndex(k.col)
		temp.Columns = append(temp.Columns, schema.Column{
			Name: ss.Def.Columns[ci].Name, Type: ss.Def.Columns[ci].Type})
	}
	// argType is the type of an aggregate's argument when that is a bare
	// integrated column, FLOAT otherwise.
	argType := func(fn *sqlparser.FuncExpr) schema.Type {
		if cr, ok := fn.Args[0].(*sqlparser.ColumnRef); ok {
			if ci := ss.Def.ColIndex(cr.Column); ci >= 0 {
				return ss.Def.Columns[ci].Type
			}
		}
		return schema.TFloat
	}
	for j, pa := range partials {
		switch pa.fn.Name {
		case "COUNT":
			col := fmt.Sprintf("agg_%d", j)
			pa.cols = []string{col}
			temp.Columns = append(temp.Columns, schema.Column{Name: col, Type: schema.TInt})
			// COALESCE keeps COUNT() = 0 over an empty input.
			pa.merged = &sqlparser.FuncExpr{Name: "COALESCE", Args: []sqlparser.Expr{
				&sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Column: col}}},
				&sqlparser.Literal{Val: value.NewInt(0)},
			}}
		case "SUM":
			col := fmt.Sprintf("agg_%d", j)
			pa.cols = []string{col}
			// An INTEGER partial keeps SUM over an INTEGER column INTEGER
			// after the merge, as it is when evaluated in one place.
			t := schema.TFloat
			if argType(pa.fn) == schema.TInt {
				t = schema.TInt
			}
			temp.Columns = append(temp.Columns, schema.Column{Name: col, Type: t})
			pa.merged = &sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Column: col}}}
		case "MIN", "MAX":
			col := fmt.Sprintf("agg_%d", j)
			pa.cols = []string{col}
			temp.Columns = append(temp.Columns, schema.Column{Name: col, Type: argType(pa.fn)})
			pa.merged = &sqlparser.FuncExpr{Name: pa.fn.Name, Args: []sqlparser.Expr{&sqlparser.ColumnRef{Column: col}}}
		case "AVG":
			sumCol := fmt.Sprintf("agg_%d_sum", j)
			cntCol := fmt.Sprintf("agg_%d_cnt", j)
			pa.cols = []string{sumCol, cntCol}
			temp.Columns = append(temp.Columns,
				schema.Column{Name: sumCol, Type: schema.TFloat},
				schema.Column{Name: cntCol, Type: schema.TInt})
			pa.merged = &sqlparser.BinaryExpr{
				Op: "/",
				L:  &sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Column: sumCol}}},
				R: &sqlparser.FuncExpr{Name: "NULLIF", Args: []sqlparser.Expr{
					&sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{&sqlparser.ColumnRef{Column: cntCol}}},
					&sqlparser.Literal{Val: value.NewInt(0)},
				}},
			}
		default:
			return nil, false
		}
	}

	// Rewrite each source scan into a grouped partial query.
	for i, scan := range ss.Scans {
		src := &ss.Def.Sources[i]
		grouped := &sqlparser.Select{
			From:  scan.Select.From,
			Where: scan.Select.Where,
		}
		for _, k := range keys {
			mapped, _ := src.MapFold(k.col)
			e, err := sqlparser.ParseExpr(mapped)
			if err != nil {
				return nil, false
			}
			grouped.Items = append(grouped.Items, sqlparser.SelectItem{Expr: e, As: k.col})
			grouped.GroupBy = append(grouped.GroupBy, e)
		}
		for _, pa := range partials {
			var arg sqlparser.Expr
			if !pa.fn.Star {
				arg, _ = translateExpr(pa.fn.Args[0], src, ss.Alias)
			}
			switch pa.fn.Name {
			case "AVG":
				grouped.Items = append(grouped.Items,
					sqlparser.SelectItem{Expr: &sqlparser.FuncExpr{Name: "SUM", Args: []sqlparser.Expr{arg}}, As: pa.cols[0]},
					sqlparser.SelectItem{Expr: &sqlparser.FuncExpr{Name: "COUNT", Args: []sqlparser.Expr{arg}}, As: pa.cols[1]})
			default:
				f := &sqlparser.FuncExpr{Name: pa.fn.Name, Star: pa.fn.Star}
				if arg != nil {
					f.Args = []sqlparser.Expr{arg}
				}
				grouped.Items = append(grouped.Items, sqlparser.SelectItem{Expr: f, As: pa.cols[0]})
			}
		}
		scan.Select = grouped
		// One row per group per site.
		if len(keys) == 0 {
			scan.EstRows = 1
		} else if scan.EstRows > 64 {
			scan.EstRows = 64
		}
	}

	// Swap in the partial temp schema and a plain UNION ALL spec.
	ss.Schema = temp
	ss.Spec = &integration.Spec{Kind: integration.UnionAll, Columns: make([]string, len(temp.Columns))}
	for i, c := range temp.Columns {
		ss.Spec.Columns[i] = c.Name
	}
	ss.EstRows = 0
	for _, scan := range ss.Scans {
		ss.EstRows += scan.EstRows
	}

	// Build the residual: merge partials, grouped by the keys.
	residual := &sqlparser.Select{
		From:    []sqlparser.TableRef{{Name: ss.TempTable, Alias: ss.Alias}},
		Limit:   sel.Limit,
		GroupBy: append([]sqlparser.Expr{}, sel.GroupBy...),
	}
	rewrite := func(e sqlparser.Expr) sqlparser.Expr { return rewriteMergedAggs(e, index) }
	for _, it := range sel.Items {
		name := it.As
		if name == "" {
			if cr, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				name = cr.Column
			} else {
				name = sqlparser.FormatExpr(it.Expr, nil)
			}
		}
		residual.Items = append(residual.Items, sqlparser.SelectItem{Expr: rewrite(it.Expr), As: name})
	}
	if sel.Having != nil {
		residual.Having = rewrite(sel.Having)
	}
	for _, o := range sel.OrderBy {
		residual.OrderBy = append(residual.OrderBy, sqlparser.OrderItem{Expr: rewrite(o.Expr), Desc: o.Desc})
	}
	return residual, true
}

// selectAggregates reports whether the query has aggregate calls or a
// GROUP BY.
func selectAggregates(sel *sqlparser.Select) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil && sqlparser.HasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// rewriteMergedAggs replaces aggregate subtrees by their merged
// expressions (matched on canonical text), recursing structurally.
func rewriteMergedAggs(e sqlparser.Expr, index map[string]*aggPartial) sqlparser.Expr {
	if e == nil {
		return nil
	}
	if f, ok := e.(*sqlparser.FuncExpr); ok && sqlparser.AggregateFuncs[f.Name] {
		if pa, ok := index[sqlparser.FormatExpr(f, nil)]; ok {
			return pa.merged
		}
		return e
	}
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: x.Op,
			L: rewriteMergedAggs(x.L, index), R: rewriteMergedAggs(x.R, index)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, E: rewriteMergedAggs(x.E, index)}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{E: rewriteMergedAggs(x.E, index), Not: x.Not}
	case *sqlparser.InExpr:
		out := &sqlparser.InExpr{E: rewriteMergedAggs(x.E, index), Not: x.Not}
		for _, it := range x.List {
			out.List = append(out.List, rewriteMergedAggs(it, index))
		}
		return out
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{
			E:   rewriteMergedAggs(x.E, index),
			Not: x.Not,
			Lo:  rewriteMergedAggs(x.Lo, index),
			Hi:  rewriteMergedAggs(x.Hi, index),
		}
	case *sqlparser.FuncExpr:
		out := &sqlparser.FuncExpr{Name: x.Name, Distinct: x.Distinct, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, rewriteMergedAggs(a, index))
		}
		return out
	case *sqlparser.CaseExpr:
		out := &sqlparser.CaseExpr{Else: rewriteMergedAggs(x.Else, index)}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sqlparser.WhenClause{
				Cond:   rewriteMergedAggs(w.Cond, index),
				Result: rewriteMergedAggs(w.Result, index),
			})
		}
		return out
	default:
		return e
	}
}
