package exec

import (
	"fmt"
	"time"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// bindSource resolves one FROM item. Table sources leave exec nil — the
// planner compiles the scan later, once pushed-down filters are known.
func (b *binder) bindSource(ref ast.TableRef, parent *bindScope) (*source, error) {
	if ref.Subquery != nil {
		plan, err := b.bindSelect(ref.Subquery, parent)
		if err != nil {
			return nil, err
		}
		schema := make(Schema, len(plan.outSchema))
		for i, c := range plan.outSchema {
			schema[i] = ColMeta{Table: ref.Alias, Name: c.Name, Type: c.Type}
		}
		return &source{
			binding: ref.Alias,
			schema:  schema,
			exec: func(rt *runtime) ([]Row, error) {
				res, err := plan.run(rt)
				if err != nil {
					return nil, err
				}
				return res.Rows, nil
			},
		}, nil
	}
	tbl, ok := b.env.Lookup(ref.Table)
	if !ok {
		return nil, fmt.Errorf("exec: no table %s", ref.Table)
	}
	binding := ref.Binding()
	schema := make(Schema, len(tbl.Meta.Columns))
	for i, c := range tbl.Meta.Columns {
		schema[i] = ColMeta{Table: binding, Name: c.Name, Type: c.Type}
	}
	return &source{binding: binding, schema: schema, tbl: tbl, snap: b.env.Snapshot(ref.Table, tbl)}, nil
}

// bindScan compiles a table scan with its pushed-down filters, choosing a
// hash or period index when a filter permits. Index candidates are always
// re-checked against every filter, so conservative index results stay
// sound.
func (b *binder) bindScan(src *source, pushed []ast.Expr, parent *bindScope) (func(rt *runtime) ([]Row, error), error) {
	tbl, snap := src.tbl, src.snap
	if tbl == nil {
		return nil, fmt.Errorf("exec: internal: bindScan on derived table %s", src.binding)
	}
	scope := &bindScope{parent: parent, schema: src.schema}
	filters, _, err := b.bindAll(pushed, scope)
	if err != nil {
		return nil, err
	}
	src.pushed = filters // retained for the period-index join path

	// Index selection. A probe must not read the scanned table itself:
	// it is evaluated once, against the outer rows only.
	self := []*source{{schema: src.schema}}
	refsSelf := func(e ast.Expr) bool {
		set, err := b.refSources(e, self, src.schema)
		return err != nil || set != 0
	}
	type probePlan struct {
		kind  string // "hash" or "period"
		col   int
		probe cexpr // bound against the parent chain only
		lift  probeCast
	}
	var probe *probePlan
	for _, c := range pushed {
		kind, pairs := indexArgs(c)
		for _, try := range pairs {
			pos, ok := indexedColumn(try[0], src, kind)
			if !ok || refsSelf(try[1]) {
				continue
			}
			pc, pt, err := b.bind(try[1], parent)
			if err != nil {
				continue
			}
			// Hash keys are formatted values of the column's type, so only
			// a probe that converts to it implicitly can look up. A period
			// probe with no implicit edge keeps its own type: a narrower
			// temporal value still maps to intervals.
			cast, ok := b.implicitCast(pt, src.schema[pos].Type)
			if !ok && kind == "hash" {
				continue
			}
			probe = &probePlan{kind: kind, col: pos, probe: pc, lift: probeCast{cast: cast}}
			break
		}
		if probe != nil {
			break
		}
	}

	var stScan *OpStats
	switch {
	case b.explain == nil:
	case probe != nil:
		stScan = b.note("scan %s: %s index on %s (%d filter(s) re-checked)",
			src.binding, probe.kind, tbl.Meta.Columns[probe.col].Name, len(filters))
	default:
		stScan = b.note("scan %s: full scan (%d filter(s))", src.binding, len(filters))
	}
	if b.env.PlanChoice != nil {
		switch {
		case probe == nil:
			b.env.PlanChoice("scan.full")
		case probe.kind == "hash":
			b.env.PlanChoice("scan.hash")
		default:
			b.env.PlanChoice("scan.period")
		}
	}

	scan := func(rt *runtime, candidates []int) ([]Row, error) {
		// Size the output for the no-filter case up front; filtered scans
		// waste at most one slice that the append-growth path would have
		// allocated anyway.
		hint := snap.Rows.Len()
		if candidates != nil && len(candidates) < hint {
			hint = len(candidates)
		}
		// The output headers are a single upfront allocation sized by the
		// hint; charge fallibly so a scan hopelessly beyond the budget
		// fails before the make, not a batch later.
		if err := rt.grow(int64(hint) * rowHeaderSize); err != nil {
			return nil, err
		}
		out := make([]Row, 0, hint)
		consider := func(r Row) error {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			ok, err := evalFilters(rt, filters, r)
			if err != nil {
				return err
			}
			if ok {
				// MVCC slab rows are immutable (writers replace whole
				// rows), so the scan aliases them instead of copying.
				out = append(out, r)
			}
			return nil
		}
		if candidates != nil {
			for _, id := range candidates {
				if r, ok := snap.Rows.Get(id); ok {
					if err := consider(r); err != nil {
						return nil, err
					}
				}
			}
			return out, nil
		}
		var scanErr error
		snap.Rows.Scan(func(_ int, r Row) bool {
			scanErr = consider(r)
			return scanErr == nil
		})
		return out, scanErr
	}

	if probe == nil {
		return instrumentRows(stScan, func(rt *runtime) ([]Row, error) { return scan(rt, nil) }), nil
	}

	return instrumentRows(stScan, func(rt *runtime) ([]Row, error) {
		pv, err := probe.probe(rt)
		if err != nil {
			return nil, err
		}
		if pv.Null {
			return nil, nil // equality/overlap with NULL matches nothing
		}
		cv, ok := probe.lift.apply(rt, pv)
		if probe.kind == "hash" && ok {
			return scan(rt, snap.Hash[probe.col].Lookup(cv.Key(rt.env.Now), snap.Seq))
		}
		if probe.kind == "period" {
			if ids, ok := periodCandidates(rt, snap, probe.col, cv); ok {
				return scan(rt, ids)
			}
		}
		// A probe the cast rejects or the index cannot map scans fully.
		return scan(rt, nil)
	}), nil
}

// probeCast lifts an index probe to the indexed column's type along the
// implicit cast chosen at bind time, through its own memo; without a
// cast the probe passes through.
type probeCast struct {
	cast *blade.Cast
	memo blade.CastMemo
}

// apply converts the non-NULL v; ok is false when the cast rejects it,
// and v comes back unchanged.
func (p *probeCast) apply(rt *runtime, v types.Value) (types.Value, bool) {
	if p.cast == nil {
		return v, true
	}
	cv, err := p.memo.Apply(rt.env.Ctx(), p.cast, v)
	if err != nil {
		return v, false
	}
	return cv, true
}

// periodCandidates probes a period index with a temporal value; ok is
// false when the probe cannot be mapped to intervals.
func periodCandidates(rt *runtime, snap *TableVersion, col int, pv types.Value) ([]int, bool) {
	now := rt.env.Now
	ix := snap.Periods[col]
	switch obj := pv.Obj().(type) {
	case temporal.Element:
		return ix.SearchElement(obj, now), true
	case temporal.Period:
		iv, ok := obj.Bind(now)
		if !ok {
			return nil, true
		}
		return ix.Search(iv.Lo, iv.Hi), true
	case temporal.Chronon:
		return ix.Search(obj, obj), true
	case temporal.Instant:
		c := obj.Bind(now)
		return ix.Search(c, c), true
	default:
		return nil, false
	}
}

// refSources returns the bitmask of sources a conjunct references.
// Conjuncts containing subqueries conservatively reference every source.
func (b *binder) refSources(e ast.Expr, sources []*source, fromSchema Schema) (uint64, error) {
	if len(sources) > 64 {
		return 0, fmt.Errorf("exec: too many FROM items")
	}
	var mask uint64
	all := uint64(1)<<len(sources) - 1
	var resolveErr error
	walkExpr(e, func(x ast.Expr) bool {
		switch n := x.(type) {
		case *ast.ColumnRef:
			pos, err := fromSchema.Resolve(n.Table, n.Column)
			if err == errNotFound {
				return true // outer reference; constant for this query
			}
			if err != nil {
				resolveErr = err
				return false
			}
			for i, s := range sources {
				if pos >= s.off && pos < s.off+len(s.schema) {
					mask |= 1 << i
					break
				}
			}
		case *ast.Subquery, *ast.Exists:
			mask = all
			return false
		case *ast.InList:
			if n.Subquery != nil {
				mask = all
				return false
			}
		}
		return true
	})
	if resolveErr != nil {
		return 0, resolveErr
	}
	return mask, nil
}

// indexArgs returns the (column, probe) argument orders through which
// conjunct c could use an index: either side of col = x for a hash
// index; either side of overlaps(col, x), but only the container side of
// contains(col, x), for a period index — the contained side may be
// anywhere, even empty.
func indexArgs(c ast.Expr) (kind string, pairs [][2]ast.Expr) {
	switch n := c.(type) {
	case *ast.Binary:
		if n.Op == "=" {
			return "hash", [][2]ast.Expr{{n.L, n.R}, {n.R, n.L}}
		}
	case *ast.Call:
		if len(n.Args) != 2 {
			break
		}
		switch n.LowerName() {
		case "overlaps":
			return "period", [][2]ast.Expr{{n.Args[0], n.Args[1]}, {n.Args[1], n.Args[0]}}
		case "contains":
			return "period", [][2]ast.Expr{{n.Args[0], n.Args[1]}}
		}
	}
	return "", nil
}

// indexedColumn returns the position of e in the table source src when e
// is a column reference with an index of the given kind.
func indexedColumn(e ast.Expr, src *source, kind string) (int, bool) {
	cr, ok := e.(*ast.ColumnRef)
	if !ok {
		return 0, false
	}
	pos, err := src.schema.Resolve(cr.Table, cr.Column)
	if err != nil {
		return 0, false
	}
	if kind == "hash" {
		return pos, src.snap.Hash[pos] != nil
	}
	return pos, src.snap.Periods[pos] != nil
}

// tryPeriodJoin checks whether conjunct c can drive a period-index
// nested-loop join at the given level: a period-index conjunct (see
// indexArgs) over a period-indexed column of source `level` whose other
// side references only earlier sources.
func (b *binder) tryPeriodJoin(c ast.Expr, level int, set uint64, sources []*source, fromSchema Schema, fromScope *bindScope) (*periodJoinCond, bool) {
	src := sources[level]
	kind, pairs := indexArgs(c)
	if kind != "period" || src.tbl == nil {
		return nil, false
	}
	below := set &^ (uint64(1) << level)
	for _, try := range pairs {
		pos, ok := indexedColumn(try[0], src, kind)
		if !ok {
			continue
		}
		if otherSet, err := b.refSources(try[1], sources, fromSchema); err != nil || otherSet != below {
			continue
		}
		probe, pt, err := b.bind(try[1], fromScope)
		if err != nil {
			continue
		}
		cast, _ := b.implicitCast(pt, src.schema[pos].Type)
		return &periodJoinCond{probe: probe, col: pos, lift: probeCast{cast: cast}}, true
	}
	return nil, false
}

// tryHashCond checks whether conjunct c can drive a hash join at the
// given level: an equality whose sides partition into {sources < level}
// and {level}.
func (b *binder) tryHashCond(c ast.Expr, level int, set uint64, sources []*source, fromSchema Schema, fromScope *bindScope) (*hashJoinCond, bool) {
	bin, ok := c.(*ast.Binary)
	if !ok || bin.Op != "=" {
		return nil, false
	}
	lSet, err := b.refSources(bin.L, sources, fromSchema)
	if err != nil {
		return nil, false
	}
	rSet, err := b.refSources(bin.R, sources, fromSchema)
	if err != nil {
		return nil, false
	}
	levelBit := uint64(1) << level
	below := set &^ levelBit
	var probeE, buildE ast.Expr
	switch {
	case lSet == levelBit && rSet == below:
		buildE, probeE = bin.L, bin.R
	case rSet == levelBit && lSet == below:
		buildE, probeE = bin.R, bin.L
	default:
		return nil, false
	}
	probe, pt, err := b.bind(probeE, fromScope)
	if err != nil {
		return nil, false
	}
	build, bt, err := b.bind(buildE, fromScope)
	if err != nil {
		return nil, false
	}
	// Hash keys are formatted values, so equality across types (INT vs
	// FLOAT, say) would miss matches the comparison semantics find.
	// Only sides with the same static type hash-join; everything else
	// takes the nested loop.
	if pt != bt || pt == types.TNull {
		return nil, false
	}
	return &hashJoinCond{probe: probe, build: build}, true
}

// periodIndexJoin joins src into the accumulated rows by probing src's
// period index with each accumulated row's temporal value, handing each
// candidate pair to pair. Pushed single-table filters are re-applied
// here and pair applies the level filters (which include the
// originating overlaps/contains conjunct), so the conservative index
// candidates stay sound.
func periodIndexJoin(rt *runtime, acc []Row, src *source, pc *periodJoinCond, pair func(a, sr Row) error) error {
	for _, a := range acc {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		rt.push(a)
		pv, err := pc.probe(rt)
		rt.pop()
		if err != nil {
			return err
		}
		if pv.Null {
			continue
		}
		pv, _ = pc.lift.apply(rt, pv)
		ids, ok := periodCandidates(rt, src.snap, pc.col, pv)
		if !ok {
			// The probe value has no interval form; fall back to the
			// full source for this accumulated row.
			srcRows, err := src.exec(rt)
			if err != nil {
				return err
			}
			for _, sr := range srcRows {
				if err := pair(a, sr); err != nil {
					return err
				}
			}
			continue
		}
		for _, id := range ids {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			sr, live := src.snap.Rows.Get(id)
			if !live {
				continue
			}
			ok, err := evalFilters(rt, src.pushed, sr)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			if err := pair(a, sr); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkExpr visits e and its children pre-order until visit returns false.
// It does not descend into subqueries.
func walkExpr(e ast.Expr, visit func(ast.Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	switch n := e.(type) {
	case *ast.Unary:
		return walkExpr(n.X, visit)
	case *ast.Binary:
		return walkExpr(n.L, visit) && walkExpr(n.R, visit)
	case *ast.Call:
		for _, a := range n.Args {
			if !walkExpr(a, visit) {
				return false
			}
		}
	case *ast.Cast:
		return walkExpr(n.X, visit)
	case *ast.IsNull:
		return walkExpr(n.X, visit)
	case *ast.Between:
		return walkExpr(n.X, visit) && walkExpr(n.Lo, visit) && walkExpr(n.Hi, visit)
	case *ast.InList:
		if !walkExpr(n.X, visit) {
			return false
		}
		for _, item := range n.List {
			if !walkExpr(item, visit) {
				return false
			}
		}
	case *ast.Like:
		return walkExpr(n.X, visit) && walkExpr(n.Pattern, visit)
	case *ast.Case:
		if !walkExpr(n.Operand, visit) {
			return false
		}
		for _, w := range n.Whens {
			if !walkExpr(w.Cond, visit) || !walkExpr(w.Then, visit) {
				return false
			}
		}
		return walkExpr(n.Else, visit)
	}
	return true
}

// joinSources runs the left-deep join of one or more sources and hands
// every full-width row of its last level to emit. Earlier levels
// materialise their survivors into arena rows, which the next level
// re-reads; the last level streams. A single source hands over all its
// rows in one call, and they are the source's own rows (immutable slab
// rows or a derived table's result), which emit may keep. A join hands
// over each surviving pair as it is found, in a scratch row the next
// pair overwrites, which emit must copy to keep.
func joinSources(rt *runtime, sources []*source, width int, hashConds []*hashJoinCond, periodConds []*periodJoinCond, levelFilters [][]cexpr, levelStats []*OpStats, emit func(rows []Row) error) error {
	if len(sources) == 1 {
		// The from row IS the source row, so pass the scan's batch
		// through (filtering in place when level filters exist — srcRows
		// is owned by this call).
		srcRows, err := sources[0].exec(rt)
		if err != nil {
			return err
		}
		rows := srcRows
		if len(levelFilters[0]) > 0 {
			rows = srcRows[:0]
			for _, sr := range srcRows {
				if err := rt.checkCancel(); err != nil {
					return err
				}
				ok, err := evalFilters(rt, levelFilters[0], sr)
				if err != nil {
					return err
				}
				if ok {
					rows = append(rows, sr)
				}
			}
		}
		return emit(rows)
	}

	// One empty prefix row makes level 0 a nested loop like any other.
	acc := []Row{nil}
	last := len(sources) - 1
	// Candidate pairs merge into one scratch row; only survivors of a
	// level below the last are copied out (into the arena, batch.go), so
	// filtered-out pairs and every last-level pair allocate nothing.
	scratch := make(Row, width)
	scratchBatch := []Row{scratch}
	for level, src := range sources {
		var st *OpStats
		if level < len(levelStats) {
			st = levelStats[level]
		}
		var lvlStart time.Time
		if st != nil {
			lvlStart = time.Now()
		}

		// pair merges accumulated row a and source row sr into scratch
		// and, when the level's filters pass, keeps the result: in the
		// next level's input, or through emit at the last level.
		var next []Row
		kept := 0
		pair := func(a, sr Row) error {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			copy(scratch, a)
			copy(scratch[src.off:], sr)
			ok, err := evalFilters(rt, levelFilters[level], scratch)
			if err != nil || !ok {
				return err
			}
			kept++
			if level == last {
				return emit(scratchBatch)
			}
			m := rt.alloc(width)
			copy(m, scratch)
			rt.charge(rowHeaderSize)
			next = append(next, m)
			return nil
		}

		if periodConds[level] != nil && hashConds[level] == nil && !src.leftJoin {
			if err := periodIndexJoin(rt, acc, src, periodConds[level], pair); err != nil {
				return err
			}
		} else if err := joinLevel(rt, acc, src, hashConds[level], scratch, pair); err != nil {
			return err
		}
		if st != nil {
			st.record(lvlStart, kept)
		}
		acc = next
	}
	return nil
}

// joinLevel joins src into the accumulated rows without an index: an
// equality conjunct builds a hash table over src, anything else is a
// nested loop, and every pair goes through pair. A LEFT JOIN first tests
// its ON conjuncts in scratch and pairs each row nothing matched with a
// NULL row.
func joinLevel(rt *runtime, acc []Row, src *source, hc *hashJoinCond, scratch Row, pair func(a, sr Row) error) error {
	srcRows, err := src.exec(rt)
	if err != nil {
		return err
	}
	switch {
	case src.leftJoin:
		nulls := make(Row, len(src.schema))
		for i, cm := range src.schema {
			nulls[i] = types.NewNull(cm.Type)
		}
		for _, a := range acc {
			matched := false
			for _, sr := range srcRows {
				if err := rt.checkCancel(); err != nil {
					return err
				}
				copy(scratch, a)
				copy(scratch[src.off:], sr)
				ok, err := evalFilters(rt, src.on, scratch)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					if err := pair(a, sr); err != nil {
						return err
					}
				}
			}
			if !matched {
				// NULL-pad the right side; pair re-checks the WHERE
				// filters of this level against the padded row.
				if err := pair(a, nulls); err != nil {
					return err
				}
			}
		}
	case hc != nil:
		// Build side: the new source.
		buildMap := make(map[string][]Row, len(srcRows))
		tmp := make(Row, len(scratch))
		for _, sr := range srcRows {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			for i := range tmp {
				tmp[i] = types.Value{T: types.TNull, Null: true}
			}
			copy(tmp[src.off:], sr)
			rt.push(tmp)
			kv, err := hc.build(rt)
			rt.pop()
			if err != nil {
				return err
			}
			if kv.Null {
				continue
			}
			k := kv.Key(rt.env.Now)
			rt.charge(int64(len(k)) + rowHeaderSize + mapEntryOverhead)
			buildMap[k] = append(buildMap[k], sr)
		}
		for _, a := range acc {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			rt.push(a)
			kv, err := hc.probe(rt)
			rt.pop()
			if err != nil {
				return err
			}
			if kv.Null {
				continue
			}
			for _, sr := range buildMap[kv.Key(rt.env.Now)] {
				if err := pair(a, sr); err != nil {
					return err
				}
			}
		}
	default:
		for _, a := range acc {
			for _, sr := range srcRows {
				if err := pair(a, sr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
