package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"time"

	"tip/internal/sql/ast"
	"tip/internal/types"
)

// selectPlan is a bound SELECT: its output schema and an executable
// closure. The closure may be run many times (correlated subqueries) with
// different outer rows on the runtime stack.
type selectPlan struct {
	outSchema Schema
	run       func(rt *runtime) (*Result, error)
}

// Run binds and executes a SELECT statement.
func Run(env *Env, sel *ast.Select) (*Result, error) {
	b := &binder{env: env}
	plan, err := b.bindSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	rt := &runtime{env: env}
	res, err := plan.run(rt)
	rt.flushMem() // the account's peak should include the tail charges
	return res, err
}

// source is one bound FROM item.
type source struct {
	binding string
	schema  Schema
	off     int    // slot offset within the full-width from row
	tbl     *Table // nil for derived tables
	// snap is the table version this statement reads (set with tbl);
	// every row and index access of the source goes through it.
	snap     *TableVersion
	leftJoin bool
	on       []pred      // LEFT JOIN condition conjuncts (bound to fromScope)
	pushed   []pred      // a derived table's compiled single-source filters
	table    *tableScan  // a table's compiled scan (bindScan)
	derived  *selectPlan // a derived table's plan
	// cols lists the columns a join level copies into its scratch row:
	// those some expression over the joined row reads (readColumns). nil
	// copies every column.
	cols []int
}

// scan hands the source's rows to emit in batches (a derived table's in
// one). The scan refills the batch once emit returns: emit may filter it
// in place and keep its (immutable) rows, never the slice itself.
func (s *source) scan(rt *runtime, emit func([]Row) error) error {
	if s.derived == nil {
		return s.table.run(rt, emit)
	}
	res, err := s.derived.run(rt)
	if err != nil {
		return err
	}
	return emitFiltered(rt, s.pushed, res.Rows, emit)
}

// put copies the columns of source row sr that the join reads into the
// full-width row dst.
func (s *source) put(dst, sr Row) {
	if s.cols == nil {
		copy(dst[s.off:], sr)
		return
	}
	for _, c := range s.cols {
		dst[s.off+c] = sr[c]
	}
}

// hashJoinCond is an equality conjunct usable as a hash-join condition at
// a join level: probe evaluates over the accumulated prefix, build over
// the newly joined source.
type hashJoinCond struct {
	probe cexpr // bound against fromScope; references sources < level
	build cexpr // bound against fromScope; references only source `level`
}

func (b *binder) bindSelect(sel *ast.Select, parent *bindScope) (*selectPlan, error) {
	if len(sel.SetOps) > 0 {
		return b.bindCompound(sel, parent)
	}
	// ---- FROM sources -------------------------------------------------
	var sources []*source
	width := 0
	seen := map[string]bool{}
	for _, ref := range sel.From {
		src, err := b.bindSource(ref, parent)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(src.binding)
		if seen[key] {
			return nil, fmt.Errorf("exec: duplicate table binding %s; use an alias", src.binding)
		}
		seen[key] = true
		src.off = width
		width += len(src.schema)
		sources = append(sources, src)
	}
	fromSchema := make(Schema, 0, width)
	for _, s := range sources {
		fromSchema = append(fromSchema, s.schema...)
	}
	fromScope := &bindScope{parent: parent, schema: fromSchema}

	var stRoot *OpStats
	if b.explain != nil {
		stRoot = b.note("select: %d source(s)", len(sources))
		b.explain.depth++
		defer func() { b.explain.depth-- }()
	}

	// LEFT JOIN conditions: validate that each ON references only its
	// own source and earlier ones, then compile against the full row.
	for i, ref := range sel.From {
		if !ref.LeftJoin {
			continue
		}
		if i == 0 {
			return nil, fmt.Errorf("exec: LEFT JOIN cannot be the first FROM item")
		}
		set, err := b.refSources(ref.On, sources, fromSchema)
		if err != nil {
			return nil, err
		}
		if set>>(i+1) != 0 {
			return nil, fmt.Errorf("exec: LEFT JOIN ON may only reference %s and earlier tables",
				sources[i].binding)
		}
		on, err := b.bindFilters(splitConjuncts(ref.On), fromScope)
		if err != nil {
			return nil, err
		}
		sources[i].leftJoin = true
		sources[i].on = on
	}

	// ---- WHERE conjunct placement --------------------------------------
	conjuncts := splitConjuncts(sel.Where)
	pushed := make([][]ast.Expr, len(sources)) // single-source filters
	levelConj := make([][]ast.Expr, len(sources))
	hashConds := make([]*hashJoinCond, len(sources))
	var zeroLevel []ast.Expr // conjuncts referencing no source
	var joinReads []ast.Expr // join conditions' probe sides read the joined row
	for _, c := range conjuncts {
		set, err := b.refSources(c, sources, fromSchema)
		if err != nil {
			return nil, err
		}
		switch bits.OnesCount64(set) {
		case 0:
			zeroLevel = append(zeroLevel, c)
		case 1:
			i := bits.TrailingZeros64(set)
			if sources[i].leftJoin {
				// WHERE filters on a left-joined table apply after
				// NULL padding; pushing them into the scan would keep
				// padded rows that the filter should remove.
				levelConj[i] = append(levelConj[i], c)
				continue
			}
			pushed[i] = append(pushed[i], c)
		default:
			level := 63 - bits.LeadingZeros64(set)
			// Try to use an equality conjunct as the hash-join condition
			// for its level (inner joins only).
			if hashConds[level] == nil && !sources[level].leftJoin {
				if hc, ok := b.tryHashCond(c, level, set, sources, fromSchema, fromScope); ok {
					hashConds[level] = hc
					joinReads = append(joinReads, c)
					continue
				}
			}
			levelConj[level] = append(levelConj[level], c)
		}
	}
	if len(sources) > 0 {
		levelConj[0] = append(levelConj[0], zeroLevel...)
		zeroLevel = nil
	}
	if len(sources) > 1 {
		readColumns(sel, append(joinReads, slices.Concat(levelConj...)...), sources, fromSchema)
	}

	// Compile scans with their pushed filters. An inner join level that
	// no equality took offers its conjuncts to its table's scan, whose
	// index may take one as a probe per accumulated row (bindScan). A
	// conjunct the index answers exactly leaves the level's filters: the
	// rows of its hits pass it, and a probe the index cannot take binds
	// it then (tableScan.fallbackFilters).
	for i, src := range sources {
		if src.derived != nil {
			var err error
			if src.pushed, err = b.bindFilters(pushed[i], &bindScope{parent: parent, schema: src.schema}); err != nil {
				return nil, err
			}
			continue
		}
		var join []ast.Expr
		if i > 0 && hashConds[i] == nil && !src.leftJoin {
			join = levelConj[i]
		}
		if err := b.bindScan(src, pushed[i], join, parent, fromScope); err != nil {
			return nil, err
		}
		if x := src.table.exact; x != nil {
			levelConj[i] = slices.DeleteFunc(levelConj[i], func(c ast.Expr) bool { return c == x.expr })
		}
	}
	// An unfiltered single table hands the coalesce operator exactly its
	// live rows, so the operator sizes its arrays once from their count.
	rowsHint := 0
	if len(sources) == 1 && sources[0].tbl != nil && len(pushed[0]) == 0 && len(levelConj[0]) == 0 {
		rowsHint = sources[0].snap.Rows.Len()
	}

	var joinStats []*OpStats
	if b.explain != nil {
		joinStats = make([]*OpStats, len(sources))
		for i := 1; i < len(sources); i++ {
			switch {
			case sources[i].leftJoin:
				joinStats[i] = b.note("join %s: left outer nested loop (%d ON conjunct(s), %d post filter(s))",
					sources[i].binding, len(sources[i].on), len(levelConj[i]))
			case hashConds[i] != nil:
				joinStats[i] = b.note("join %s: hash join (%d residual filter(s))",
					sources[i].binding, len(levelConj[i]))
			case sources[i].table != nil && sources[i].table.joined:
				exact := ""
				if sources[i].table.exact != nil {
					exact = ", exact overlaps"
				}
				joinStats[i] = b.note("join %s: period-index nested loop on %s%s (%d filter(s) re-checked)",
					sources[i].binding, sources[i].tbl.Meta.Columns[sources[i].table.col].Name, exact, len(levelConj[i]))
			default:
				joinStats[i] = b.note("join %s: nested loop (%d filter(s))",
					sources[i].binding, len(levelConj[i]))
			}
		}
	}

	// Compile per-level join filters against the full from schema.
	levelFilters := make([][]pred, len(sources))
	for i, cs := range levelConj {
		fs, err := b.bindFilters(cs, fromScope)
		if err != nil {
			return nil, err
		}
		levelFilters[i] = fs
	}
	var zeroFilters []pred
	if len(zeroLevel) > 0 { // FROM-less query with WHERE
		fs, err := b.bindFilters(zeroLevel, &bindScope{parent: parent, schema: nil})
		if err != nil {
			return nil, err
		}
		zeroFilters = fs
	}

	// ---- aggregation detection ------------------------------------------
	var aggSource []ast.Expr
	for _, item := range sel.Items {
		if !item.Star {
			aggSource = append(aggSource, item.Expr)
		}
	}
	if sel.Having != nil {
		aggSource = append(aggSource, sel.Having)
	}
	for _, o := range sel.OrderBy {
		aggSource = append(aggSource, o.Expr)
	}
	aggSpecs, err := b.collectAggs(aggSource)
	if err != nil {
		return nil, err
	}
	grouped := len(aggSpecs) > 0 || len(sel.GroupBy) > 0
	var cp *coalescePlan
	if grouped {
		for _, spec := range aggSpecs {
			if err := b.bindAgg(spec, fromScope); err != nil {
				return nil, err
			}
		}
		cp = b.tryCoalesce(sel, aggSpecs, fromSchema)
	}
	keys := "hash"
	if len(sel.GroupBy) > 0 && len(sources) == 1 && len(levelFilters[0]) == 0 {
		if k := cp.indexKeys(sources[0]); k != "" {
			keys = k
		}
	}
	// A global aggregate whose every aggregate is COUNT(*) reads no
	// column of its input: a scan or a last probing join level that needs
	// no filter counts its exact answer without fetching a row.
	if last := len(sources) - 1; cp != nil && cp.counts && last >= 0 && sources[last].tbl != nil {
		if ts := sources[last].table; len(levelFilters[last]) == 0 && (last == 0 || ts.joined) {
			ts.counts = true
		}
	}
	if grouped && b.env.PlanChoice != nil {
		switch {
		case cp.key == keyIndex:
			b.env.PlanChoice("coalesce.index")
			if cp.period {
				b.env.PlanChoice("coalesce.period")
			}
		case len(sel.GroupBy) > 0:
			b.env.PlanChoice("coalesce.hash")
		case cp.counts:
			b.env.PlanChoice("agg.count")
		}
	}
	var stAgg *OpStats
	if grouped && b.explain != nil {
		suffix := ""
		if len(sel.GroupBy) > 0 {
			suffix = "; coalesce: " + keys
			if cp.fused {
				suffix += ", length fused"
			}
		}
		stAgg = b.note("aggregate: %d group expr(s), %d aggregate(s)%s", len(sel.GroupBy), len(aggSpecs), suffix)
		if stAgg != nil {
			stAgg.reads = cp.period
		}
	}
	tail := b.newTail(sel, sel.Distinct)

	// ---- projection scope -----------------------------------------------
	projScope := fromScope
	if grouped {
		if sel.Distinct {
			return nil, fmt.Errorf("exec: DISTINCT with GROUP BY is not supported")
		}
		for _, item := range sel.Items {
			if item.Star {
				return nil, fmt.Errorf("exec: * is not allowed with GROUP BY or aggregates")
			}
		}
		groupKeyExprs, groupTypes, err := b.bindAll(sel.GroupBy, fromScope)
		if err != nil {
			return nil, err
		}
		cp.exprs = groupKeyExprs
		groupSchema := make(Schema, len(sel.GroupBy))
		groupKeys := make([]string, len(sel.GroupBy))
		for i, ge := range sel.GroupBy {
			groupKeys[i] = exprString(ge)
			groupSchema[i] = ColMeta{Type: groupTypes[i]}
			if cr, ok := ge.(*ast.ColumnRef); ok {
				if pos, err := fromSchema.Resolve(cr.Table, cr.Column); err == nil {
					groupSchema[i] = fromSchema[pos]
				}
			}
		}
		projScope = &bindScope{
			parent: parent,
			schema: groupSchema,
			agg:    &aggContext{specs: aggSpecs, base: len(sel.GroupBy), groupKeys: groupKeys},
		}
	}

	// ---- select list ------------------------------------------------------
	type projItem struct {
		name string
		ce   cexpr
		typ  *types.Type
	}
	var proj []projItem
	for _, item := range sel.Items {
		if item.Star {
			cols, err := expandStar(item.StarTable, fromSchema)
			if err != nil {
				return nil, err
			}
			for _, pos := range cols {
				i := pos
				proj = append(proj, projItem{
					name: fromSchema[pos].Name,
					ce:   func(rt *runtime) (types.Value, error) { return rt.at(0)[i], nil },
					typ:  fromSchema[pos].Type,
				})
			}
			continue
		}
		ce, t, err := b.bind(item.Expr, projScope)
		if err != nil {
			return nil, err
		}
		proj = append(proj, projItem{name: itemName(item), ce: ce, typ: t})
	}
	outSchema := make(Schema, len(proj))
	for i, p := range proj {
		outSchema[i] = ColMeta{Name: p.name, Type: p.typ}
	}

	// ---- HAVING ------------------------------------------------------------
	if sel.Having != nil && !grouped {
		return nil, fmt.Errorf("exec: HAVING requires GROUP BY or aggregates")
	}
	having, err := b.bindFilters(splitConjuncts(sel.Having), projScope)
	if err != nil {
		return nil, err
	}

	// ---- ORDER BY, LIMIT / OFFSET ------------------------------------------
	if err := tail.bind(b, sel, outSchema, projScope, parent); err != nil {
		return nil, err
	}

	cols, colTypes := outSchema.columns()

	run := func(rt *runtime) (*Result, error) {
		rootStart := stRoot.start()
		defer releaseScans(sources)

		tk, err := tail.heap(rt)
		if err != nil {
			return nil, err
		}
		// emit projects the row on top of the scope stack, with its
		// expression sort keys, into the top-K heap (reusing the row of
		// an evicted entry when there is one) or the out buffer.
		var out []Row
		emitted := 0
		emit := func(rt *runtime) error {
			emitted++
			var r Row
			if tk != nil {
				r = tk.spare()
			}
			if r == nil {
				r = rt.alloc(tail.rowWidth())
			}
			for i, p := range proj {
				v, err := p.ce(rt)
				if err != nil {
					return err
				}
				r[i] = v
			}
			if err := tail.evalKeys(rt, r); err != nil {
				return err
			}
			if tk != nil {
				return tk.offer(r)
			}
			out = append(out, r)
			return nil
		}

		// consume takes the join's output as joinSources produces it
		// (see there for who owns the rows). The coalesce operator and
		// projection copy values out of each row and never keep it.
		var (
			consume func(rows []Row) error
			cr      *coalesceRun
		)
		switch {
		case grouped:
			if cr, err = cp.start(rt, rowsHint); err != nil {
				return nil, err
			}
			defer cr.release()
			consume = func(rows []Row) error { return cr.add(rt, rows) }
		default:
			consume = func(rows []Row) error {
				if tk == nil {
					var err error
					if out, err = growRows(rt, out, len(rows), rowHeaderSize); err != nil {
						return err
					}
				}
				for _, fr := range rows {
					if err := rt.checkCancel(); err != nil {
						return err
					}
					rt.push(fr)
					err := emit(rt)
					rt.pop()
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
		// Under EXPLAIN ANALYZE the consumer's time is taken out of the
		// streamed last join level (a single source's scan takes it out
		// of its own line, see tableScan.run) and charged to the
		// aggregate, so each line still reports its own work.
		var consumeDur time.Duration
		if joinStats != nil {
			inner := consume
			consume = func(rows []Row) error {
				start := time.Now()
				err := inner(rows)
				consumeDur += time.Since(start)
				return err
			}
		}
		switch {
		case grouped && cp.key == keyIndex:
			// The operator reads the one table's version itself; the
			// aggregate's line takes its time.
			start := stAgg.start()
			if err := cr.read(rt); err != nil {
				return nil, err
			}
			if stAgg != nil {
				consumeDur = time.Since(start)
				stAgg.Entries += int64(cr.entries)
				stAgg.Fetched += int64(cr.fetched)
			}
		case len(sources) == 0:
			// Push an empty row so the FROM-less select still occupies
			// one scope level; outer references in a correlated WHERE
			// resolve at depth 1 and must find the outer row there.
			ok, err := evalFilters(rt, zeroFilters, Row{})
			if err != nil {
				return nil, err
			}
			if ok {
				if err := consume([]Row{{}}); err != nil {
					return nil, err
				}
			}
		default:
			if err := joinSources(rt, sources, width, hashConds, levelFilters, joinStats, consume); err != nil {
				return nil, err
			}
		}
		if consumeDur > 0 && len(sources) > 1 {
			joinStats[len(sources)-1].Nanos -= consumeDur.Nanoseconds()
		}
		aggStart := stAgg.start().Add(-consumeDur)

		if grouped {
			groupRows, err := cr.rows(rt)
			if err != nil {
				return nil, err
			}
			if tk == nil {
				if out, err = growRows(rt, out, len(groupRows), rowHeaderSize); err != nil {
					return nil, err
				}
			}
			for _, groupRow := range groupRows {
				keep, err := evalFilters(rt, having, groupRow)
				if err == nil && keep {
					rt.push(groupRow)
					err = emit(rt)
					rt.pop()
				}
				if err != nil {
					return nil, err
				}
			}
			stAgg.record(aggStart, emitted)
		}

		rows, err := tail.finish(rt, tk, out)
		if err != nil {
			return nil, err
		}
		stRoot.record(rootStart, len(rows))
		return &Result{Cols: cols, Types: colTypes, Rows: rows}, nil
	}

	return &selectPlan{outSchema: outSchema, run: run}, nil
}

// releaseScans returns the scratch of every table scan of sources.
func releaseScans(sources []*source) {
	for _, src := range sources {
		if src.table != nil {
			src.table.release()
		}
	}
}

// readColumns sets the cols of every source of a join: the columns
// that exprs (the level filters and join conditions), the select list, GROUP
// BY, HAVING, ORDER BY and LEFT JOIN ON read from the joined row. Pushed
// filters read the source row itself and do not count. A star, or a
// subquery (which may read any column as an outer reference), leaves
// every source copying all its columns.
func readColumns(sel *ast.Select, exprs []ast.Expr, sources []*source, fromSchema Schema) {
	all := false
	for _, item := range sel.Items {
		all = all || item.Star
		exprs = append(exprs, item.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	exprs = append(exprs, sel.Having)
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, ref := range sel.From {
		exprs = append(exprs, ref.On)
	}
	read := make([]bool, len(fromSchema))
	for _, e := range exprs {
		walkExpr(e, func(x ast.Expr) bool {
			switch n := x.(type) {
			case *ast.ColumnRef:
				// errNotFound is an outer reference or an output alias.
				if pos, err := fromSchema.Resolve(n.Table, n.Column); err == nil {
					read[pos] = true
				} else if err != errNotFound {
					all = true
				}
			case *ast.Subquery, *ast.Exists:
				all = true
			case *ast.InList:
				all = all || n.Subquery != nil
			}
			return !all
		})
	}
	if all {
		return
	}
	for _, s := range sources {
		cols := make([]int, 0, len(s.schema))
		for i := range s.schema {
			if read[s.off+i] {
				cols = append(cols, i)
			}
		}
		if len(cols) < len(s.schema) {
			s.cols = cols
		}
	}
}

// parentOnly returns a scope exposing only the outer chain (LIMIT and
// OFFSET cannot reference the current FROM).
func parentOnly(parent *bindScope) *bindScope {
	return &bindScope{parent: parent, schema: nil}
}

func itemName(item ast.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(*ast.ColumnRef); ok {
		return cr.Column
	}
	if c, ok := item.Expr.(*ast.Call); ok {
		return c.LowerName()
	}
	return exprString(item.Expr)
}

func expandStar(table string, schema Schema) ([]int, error) {
	var cols []int
	for i, c := range schema {
		if table == "" || strings.EqualFold(c.Table, table) {
			cols = append(cols, i)
		}
	}
	if len(cols) == 0 {
		if table != "" {
			return nil, fmt.Errorf("exec: unknown table %s in %s.*", table, table)
		}
		return nil, fmt.Errorf("exec: * with empty FROM")
	}
	return cols, nil
}

// bindAll compiles a list of expressions in one scope.
func (b *binder) bindAll(exprs []ast.Expr, sc *bindScope) ([]cexpr, []*types.Type, error) {
	out := make([]cexpr, len(exprs))
	typs := make([]*types.Type, len(exprs))
	for i, e := range exprs {
		ce, t, err := b.bind(e, sc)
		if err != nil {
			return nil, nil, err
		}
		out[i], typs[i] = ce, t
	}
	return out, typs, nil
}

// evalFilters requires every filter TRUE of row.
func evalFilters(rt *runtime, filters []pred, row Row) (bool, error) {
	for _, f := range filters {
		if ok, err := f(rt, row); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// splitConjuncts flattens the AND tree of a WHERE clause.
func splitConjuncts(e ast.Expr) []ast.Expr {
	if e == nil {
		return nil
	}
	if bin, ok := e.(*ast.Binary); ok && bin.Op == "AND" {
		return append(splitConjuncts(bin.L), splitConjuncts(bin.R)...)
	}
	return []ast.Expr{e}
}
