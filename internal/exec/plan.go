package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
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
	// A global aggregate whose every aggregate is COUNT(*) reads no
	// column of its input: it adds whole batches, and a scan or a last
	// probing join level that needs no filter counts its exact answer
	// without fetching a row. The row path stays the reference.
	countOnly := grouped && len(sel.GroupBy) == 0 &&
		!slices.ContainsFunc(aggSpecs, func(s *aggSpec) bool { return !s.star })
	var cp *coalescePlan
	if grouped {
		for _, spec := range aggSpecs {
			if err := b.bindAgg(spec, fromScope); err != nil {
				return nil, err
			}
		}
		cp = b.tryCoalesce(sel, aggSpecs, fromSchema)
	}
	if last := len(sources) - 1; countOnly && last >= 0 && sources[last].tbl != nil {
		if ts := sources[last].table; len(levelFilters[last]) == 0 && (last == 0 || ts.joined) {
			ts.counts = true
		}
	}
	if grouped && b.env.PlanChoice != nil {
		switch {
		case cp != nil:
			b.env.PlanChoice("coalesce.hash")
		case countOnly:
			b.env.PlanChoice("agg.count")
		default:
			b.env.PlanChoice("agg.generic")
		}
	}
	var stAgg, stDistinct, stSort, stLimit *OpStats
	if b.explain != nil {
		switch {
		case cp != nil:
			fused := ""
			if cp.fused {
				fused = ", length fused"
			}
			stAgg = b.note("aggregate: %d group expr(s), %d aggregate(s); coalesce: hash%s",
				len(sel.GroupBy), len(aggSpecs), fused)
		case grouped:
			stAgg = b.note("aggregate: %d group expr(s), %d aggregate(s)", len(sel.GroupBy), len(aggSpecs))
		}
		if sel.Distinct {
			stDistinct = b.note("distinct")
		}
		if len(sel.OrderBy) > 0 {
			if sel.Limit != nil && !sel.Distinct {
				stSort = b.note("sort: %d key(s) (top-k when limit+offset <= %d)", len(sel.OrderBy), topKMaxRows)
			} else {
				stSort = b.note("sort: %d key(s)", len(sel.OrderBy))
			}
		}
		if sel.Limit != nil || sel.Offset != nil {
			stLimit = b.note("limit/offset")
		}
	}

	// ---- projection scope -----------------------------------------------
	projScope := fromScope
	var groupKeyExprs []cexpr
	if grouped {
		if sel.Distinct {
			return nil, fmt.Errorf("exec: DISTINCT with GROUP BY is not supported")
		}
		for _, item := range sel.Items {
			if item.Star {
				return nil, fmt.Errorf("exec: * is not allowed with GROUP BY or aggregates")
			}
		}
		var groupTypes []*types.Type
		groupKeyExprs, groupTypes, err = b.bindAll(sel.GroupBy, fromScope)
		if err != nil {
			return nil, err
		}
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
	var having cexpr
	if sel.Having != nil {
		if !grouped {
			return nil, fmt.Errorf("exec: HAVING requires GROUP BY or aggregates")
		}
		having, _, err = b.bind(sel.Having, projScope)
		if err != nil {
			return nil, err
		}
	}

	// ---- ORDER BY -----------------------------------------------------------
	type orderSpec struct {
		outIdx int // >= 0: read the output row
		ce     cexpr
		desc   bool
	}
	var orders []orderSpec
	for _, o := range sel.OrderBy {
		spec := orderSpec{outIdx: -1, desc: o.Desc}
		switch n := o.Expr.(type) {
		case *ast.IntLit:
			if n.V < 1 || int(n.V) > len(proj) {
				return nil, fmt.Errorf("exec: ORDER BY position %d out of range", n.V)
			}
			spec.outIdx = int(n.V) - 1
		case *ast.ColumnRef:
			if n.Table == "" {
				if pos, err := outSchema.Resolve("", n.Column); err == nil {
					spec.outIdx = pos
				}
			}
		}
		if spec.outIdx < 0 {
			if sel.Distinct {
				return nil, fmt.Errorf("exec: ORDER BY %s must name an output column under DISTINCT", exprString(o.Expr))
			}
			ce, _, err := b.bind(o.Expr, projScope)
			if err != nil {
				return nil, err
			}
			spec.ce = ce
		}
		orders = append(orders, spec)
	}

	// ---- LIMIT / OFFSET --------------------------------------------------------
	var limitC, offsetC cexpr
	if sel.Limit != nil {
		if limitC, _, err = b.bind(sel.Limit, parentOnly(parent)); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil {
		if offsetC, _, err = b.bind(sel.Offset, parentOnly(parent)); err != nil {
			return nil, err
		}
	}

	distinct := sel.Distinct
	cols, colTypes := outSchema.columns()

	run := func(rt *runtime) (*Result, error) {
		var rootStart time.Time
		if stRoot != nil {
			rootStart = time.Now()
		}

		type outEntry struct {
			row  Row
			keys []types.Value
		}
		var out []outEntry

		// projectRow evaluates the select list (and sort keys) for the
		// row on top of the scope stack. reuseRow/reuseKeys, when
		// non-nil, supply recycled storage (the top-K freelist) instead
		// of fresh arena rows.
		projectRow := func(rt *runtime, reuseRow Row, reuseKeys []types.Value) (outEntry, error) {
			e := outEntry{row: reuseRow}
			if e.row == nil {
				e.row = rt.alloc(len(proj))
			}
			for i, p := range proj {
				v, err := p.ce(rt)
				if err != nil {
					return outEntry{}, err
				}
				e.row[i] = v
			}
			if len(orders) > 0 {
				e.keys = reuseKeys
				if e.keys == nil {
					e.keys = rt.alloc(len(orders))
				}
				for i, o := range orders {
					if o.outIdx >= 0 {
						e.keys[i] = e.row[o.outIdx]
						continue
					}
					v, err := o.ce(rt)
					if err != nil {
						return outEntry{}, err
					}
					e.keys[i] = v
				}
			}
			return e, nil
		}

		// Bounded top-K: when the statement sorts and limits (and does
		// not deduplicate), the answer is the stable-sorted first
		// LIMIT+OFFSET rows, so a fixed-size heap replaces full
		// materialisation + sort.SliceStable. LIMIT/OFFSET are bound
		// against the outer chain only, so evaluating them up front sees
		// the same scope stack the post-sort evaluation would.
		var tk *topkHeap
		if len(orders) > 0 && limitC != nil && !distinct {
			lim, err := evalCount(rt, limitC, "LIMIT")
			if err != nil {
				return nil, err
			}
			off := 0
			if offsetC != nil {
				if off, err = evalCount(rt, offsetC, "OFFSET"); err != nil {
					return nil, err
				}
			}
			if k := lim + off; k <= topKMaxRows {
				tk = newTopK(rt, k, func(a, b *topkEntry) (int, error) {
					for i, o := range orders {
						c, err := orderCompare(rt, a.keys[i], b.keys[i])
						if err != nil {
							return 0, err
						}
						if o.desc {
							c = -c
						}
						if c != 0 {
							return c, nil
						}
					}
					return 0, nil
				})
				if rt.env.PlanChoice != nil {
					rt.env.PlanChoice("sort.topk")
				}
			}
		}

		// emit routes one projected row to the collector in play: the
		// top-K heap (recycling evicted storage) or the out buffer.
		emitted := 0
		emit := func(rt *runtime) error {
			emitted++
			if tk != nil {
				row, keys := tk.spare()
				e, err := projectRow(rt, row, keys)
				if err != nil {
					return err
				}
				return tk.offer(e.row, e.keys)
			}
			e, err := projectRow(rt, nil, nil)
			if err != nil {
				return err
			}
			out = append(out, e)
			return nil
		}

		// consume takes the join's output as joinSources produces it
		// (see there for who owns the rows). The coalesce operator,
		// grouping and projection copy values out of each row and never
		// keep it.
		var (
			consume  func(rows []Row) error
			gt       *groupTable
			cr       *coalesceRun
			aggStart time.Time
		)
		switch {
		case cp != nil:
			cr = cp.start(rowsHint)
			consume = func(rows []Row) error { return cr.add(rt, rows) }
		case countOnly:
			gt = newGroupTable(nil, aggSpecs)
			consume = func(rows []Row) error {
				gt.count(len(rows))
				return nil
			}
		case grouped:
			gt = newGroupTable(groupKeyExprs, aggSpecs)
			consume = func(rows []Row) error {
				for _, fr := range rows {
					if err := gt.add(rt, fr); err != nil {
						return err
					}
				}
				return nil
			}
		default:
			consume = func(rows []Row) error {
				if tk == nil {
					var err error
					if out, err = growRows(rt, out, len(rows), 2*rowHeaderSize); err != nil {
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
		if len(sources) == 0 {
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
		} else if err := joinSources(rt, sources, width, hashConds, levelFilters, joinStats, consume); err != nil {
			return nil, err
		}
		if consumeDur > 0 && len(sources) > 1 {
			joinStats[len(sources)-1].Nanos -= consumeDur.Nanoseconds()
		}
		if stAgg != nil {
			aggStart = time.Now().Add(-consumeDur)
		}

		if grouped {
			var groupRows []Row
			var err error
			if cp != nil {
				groupRows, err = cr.rows(rt)
			} else {
				groupRows, err = gt.rows(rt)
			}
			if err != nil {
				return nil, err
			}
			for _, groupRow := range groupRows {
				rt.push(groupRow)
				if having != nil {
					hv, err := having(rt)
					if err != nil {
						rt.pop()
						return nil, err
					}
					keep, isNull, err := truth(hv)
					if err != nil {
						rt.pop()
						return nil, err
					}
					if isNull || !keep {
						rt.pop()
						continue
					}
				}
				eErr := emit(rt)
				rt.pop()
				if eErr != nil {
					return nil, eErr
				}
			}
			if stAgg != nil {
				stAgg.record(aggStart, emitted)
			}
		}

		if tk != nil {
			ents, err := tk.finish()
			if err != nil {
				return nil, err
			}
			rt.charge(int64(len(ents)) * 2 * rowHeaderSize)
			out = make([]outEntry, 0, len(ents))
			for i := range ents {
				out = append(out, outEntry{row: ents[i].row, keys: ents[i].keys})
			}
		}

		if distinct {
			var dStart time.Time
			if stDistinct != nil {
				dStart = time.Now()
			}
			seen := make(map[string]struct{}, len(out))
			kept := out[:0]
			for _, e := range out {
				if err := rt.checkCancel(); err != nil {
					return nil, err
				}
				rt.keybuf = rt.appendKey(rt.keybuf[:0], e.row)
				if _, dup := seen[string(rt.keybuf)]; dup {
					continue
				}
				seen[string(rt.keybuf)] = struct{}{}
				rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead)
				kept = append(kept, e)
			}
			out = kept
			if stDistinct != nil {
				stDistinct.record(dStart, len(out))
			}
		}

		if len(orders) > 0 && tk == nil {
			var sStart time.Time
			if stSort != nil {
				sStart = time.Now()
			}
			var sortErr error
			sort.SliceStable(out, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				if err := rt.checkCancel(); err != nil {
					sortErr = err
					return false
				}
				for k, o := range orders {
					c, err := orderCompare(rt, out[i].keys[k], out[j].keys[k])
					if err != nil {
						sortErr = err
						return false
					}
					if o.desc {
						c = -c
					}
					if c != 0 {
						return c < 0
					}
				}
				return false
			})
			if sortErr != nil {
				return nil, sortErr
			}
			if stSort != nil {
				stSort.record(sStart, len(out))
			}
		}

		var limStart time.Time
		if stLimit != nil {
			limStart = time.Now()
		}
		lo, hi := 0, len(out)
		if offsetC != nil {
			n, err := evalCount(rt, offsetC, "OFFSET")
			if err != nil {
				return nil, err
			}
			if n > len(out) {
				n = len(out)
			}
			lo = n
		}
		if limitC != nil {
			n, err := evalCount(rt, limitC, "LIMIT")
			if err != nil {
				return nil, err
			}
			if lo+n < hi {
				hi = lo + n
			}
		}

		if stLimit != nil {
			stLimit.record(limStart, hi-lo)
		}

		res := &Result{Cols: cols, Types: colTypes}
		if err := rt.grow(int64(hi-lo) * rowHeaderSize); err != nil {
			return nil, err
		}
		res.Rows = make([]Row, 0, hi-lo)
		for _, e := range out[lo:hi] {
			res.Rows = append(res.Rows, e.row)
		}
		if stRoot != nil {
			stRoot.record(rootStart, len(res.Rows))
		}
		return res, nil
	}

	return &selectPlan{outSchema: outSchema, run: run}, nil
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

// orderCompare orders values with NULLs sorting last (ascending).
func orderCompare(rt *runtime, a, b types.Value) (int, error) {
	switch {
	case a.Null && b.Null:
		return 0, nil
	case a.Null:
		return 1, nil
	case b.Null:
		return -1, nil
	}
	return a.Compare(b, rt.env.Now)
}

func evalCount(rt *runtime, ce cexpr, what string) (int, error) {
	v, err := ce(rt)
	if err != nil {
		return 0, err
	}
	if v.Null || v.T.Kind != types.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("exec: %s requires a non-negative integer", what)
	}
	return int(v.Int()), nil
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
