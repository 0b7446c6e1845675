package exec

import (
	"fmt"
	"slices"
	"time"

	"tip/internal/blade"
	"tip/internal/index"
	"tip/internal/sql/ast"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// bindSource resolves one FROM item. The planner compiles a table's scan
// later, once pushed-down filters are known.
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
			derived: plan,
		}, nil
	}
	tbl, snap, ok := b.env.Tables.Table(ref.Table)
	if !ok {
		return nil, fmt.Errorf("exec: no table %s", ref.Table)
	}
	binding := ref.Binding()
	schema := make(Schema, len(tbl.Meta.Columns))
	for i, c := range tbl.Meta.Columns {
		schema[i] = ColMeta{Table: binding, Name: c.Name, Type: c.Type}
	}
	return &source{binding: binding, schema: schema, tbl: tbl, snap: snap}, nil
}

// bindScan compiles src.table, with its pushed-down filters, choosing a
// hash or period index when a filter permits. The rows a hash index
// finds are re-checked against every filter. A period index answers the
// builtin overlaps(Element, Element) exactly (periodLift), so that
// conjunct leaves the filters its rows are re-checked against; any other
// period conjunct stays, since its index rows are a superset.
//
// join holds the conjuncts of a join level over src and earlier sources,
// bound in fromScope. The first period conjunct among them that can
// probe src's index does so ahead of every pushed one, once per
// accumulated row, which joinSources pushes as the probe's outer row
// (ts.joined). ts.exact names it when the index answers it exactly, and
// the level's filters leave it out but for a probe the index cannot take
// (fallbackFilters); otherwise it stays among them.
func (b *binder) bindScan(src *source, pushed, join []ast.Expr, parent, fromScope *bindScope) error {
	tbl := src.tbl
	scope := &bindScope{parent: parent, schema: src.schema}
	filters, err := b.bindFilters(pushed, scope)
	if err != nil {
		return err
	}
	ts := &tableScan{snap: src.snap, filters: filters, residual: filters}

	// Index selection. A probe must not read the scanned table itself:
	// it is evaluated once per run, against the outer rows only.
	self := []*source{{schema: src.schema}}
	refsSelf := func(e ast.Expr) bool {
		set, err := b.refSources(e, self, src.schema)
		return err != nil || set != 0
	}
	conjs := pushed // Concat would allocate for every single-table scan
	if len(join) > 0 {
		conjs = slices.Concat(join, pushed)
	}
	for ci, c := range conjs {
		kind, call, uses := indexArgs(c)
		sc, onJoin := parent, ci < len(join)
		if onJoin {
			if kind != "period" {
				continue // an equality the hash join declined stays a filter
			}
			sc = fromScope
		}
		for _, u := range uses {
			pos, ok := indexedColumn(u.col, src, kind)
			if !ok || refsSelf(u.probe) {
				continue
			}
			pc, pt, err := b.bind(u.probe, sc)
			if err != nil {
				continue
			}
			if kind == "period" {
				var exact bool
				ts.lift, exact = b.periodLift(call, u.colArg, src.schema[pos].Type, pt)
				ts.contains = call.LowerName() == "contains"
				switch {
				case exact && onJoin:
					// A copy of b: holding b itself would move every
					// binder to the heap.
					ts.exact = &exactConj{expr: c, binder: *b, scope: fromScope}
				case exact:
					ts.residual = slices.Delete(slices.Clone(filters), ci-len(join), ci-len(join)+1)
				}
			} else {
				// Hash keys are formatted values of the column's type, so
				// only a probe that converts to it implicitly can look up.
				cast, ok := b.implicitCast(pt, src.schema[pos].Type)
				if !ok {
					continue
				}
				ts.lift = probeCast{cast: cast}
			}
			ts.kind, ts.col, ts.probe, ts.joined = kind, pos, pc, onJoin
			break
		}
		if ts.kind != "" {
			break
		}
	}

	switch {
	case b.explain == nil || ts.joined: // the join's line describes the probe
	case ts.kind == "":
		ts.st = b.note("scan %s: full scan (%d filter(s))", src.binding, len(filters))
	case len(ts.residual) < len(filters):
		ts.st = b.note("scan %s: period index on %s, exact overlaps (%d filter(s) re-checked)",
			src.binding, tbl.Meta.Columns[ts.col].Name, len(ts.residual))
	default:
		ts.st = b.note("scan %s: %s index on %s (%d filter(s) re-checked)",
			src.binding, ts.kind, tbl.Meta.Columns[ts.col].Name, len(filters))
	}
	if b.env.PlanChoice != nil {
		switch ts.kind {
		case "":
			b.env.PlanChoice("scan.full")
		case "hash":
			b.env.PlanChoice("scan.hash")
		default:
			b.env.PlanChoice("scan.period")
		}
	}
	src.table = ts
	return nil
}

// tableScan is a table's compiled scan: its filters, its index probe, if
// any, and the scratch of this call site, kept across the runs of one
// execution (a correlated subquery re-runs its scans per outer row, a
// period-join level its probe per accumulated row).
type tableScan struct {
	snap     *TableVersion
	filters  []pred // every pushed filter
	residual []pred // what an exact period search's rows are re-checked against
	st       *OpStats
	kind     string // "" for a full scan, else "hash" or "period"
	col      int
	probe    cexpr // bound against the parent chain, or a join level's fromScope
	lift     probeCast
	contains bool
	joined   bool         // the probe reads a join level's accumulated row (joinSources)
	exact    *exactConj   // joined: the level conjunct the index answers exactly, if any
	scratch  *scanScratch // from scanScratches, nil until a run needs it
	room     int          // batch rows charged to the statement
	// counts is set when the consumer is a count-only aggregate
	// (countRows): a run, or a last join level's probe, that leaves no
	// filter counts instead of reading.
	counts bool
}

// scanScratch is a table scan's working memory, kept in scanScratches
// between statements: the batch buffer and the period search's answer.
// Each scan takes its own, so a subquery's search never clears ids an
// outer scan is still reading.
type scanScratch struct {
	buf  []Row
	hits index.Hits
}

var scanScratches scratchPool[scanScratch]

// take returns the scan's scratch, taking one from scanScratches on
// first use in a run.
func (ts *tableScan) take() *scanScratch {
	if ts.scratch == nil {
		ts.scratch = scanScratches.get()
	}
	return ts.scratch
}

// release returns the scan's scratch to scanScratches once its run is
// over: nothing of it is read after. The rows it charged stay charged,
// so a correlated subquery's next run takes a buffer it has paid for.
// A bitset holds a search's marks until its next search clears them,
// so an abandoned read's marks do not reach the next user.
func (ts *tableScan) release() {
	if sc := ts.scratch; sc != nil {
		clear(sc.buf[:min(ts.room, cap(sc.buf))]) // the slab rows of this run
		ts.scratch = nil
		scanScratches.put(sc, int64(cap(sc.buf))*rowHeaderSize)
	}
}

// run hands emit the candidates' rows that pass the filters, or counts
// them when the consumer only counts and no filter is left. Under EXPLAIN
// ANALYZE it counts them and leaves the consumer's time out of its own.
func (ts *tableScan) run(rt *runtime, emit func([]Row) error) error {
	if ts.st != nil {
		start, rows, consume := time.Now(), 0, emit
		emit = func(batch []Row) error {
			rows += len(batch)
			consumed := time.Now()
			defer func() { start = start.Add(time.Since(consumed)) }()
			return consume(batch)
		}
		defer func() { ts.st.record(start, rows) }()
	}
	c, err := ts.candidates(rt)
	switch {
	case err != nil:
		return err
	case ts.counts && len(c.fs) == 0:
		return countRows(rt, c.size(true), emit)
	}
	return ts.read(rt, &c, emit)
}

// candidates evaluates the index probe, if any, and returns a cursor over
// the rows it selects: the hash lookup's ids, or the period search's hits
// re-checked against the filters the index does not answer; else, with no
// index or a probe it cannot take, every row against every filter. SELECT
// and, through MatchingRows, UPDATE and DELETE choose their rows here.
func (ts *tableScan) candidates(rt *runtime) (cursor, error) {
	c := cursor{rows: ts.snap.Rows, fs: ts.filters}
	if ts.kind == "" {
		return c, nil
	}
	pv, err := ts.probe(rt)
	if err != nil || pv.Null {
		c.ids = []int{} // equality/overlap with NULL matches nothing
		return c, err
	}
	cv, ok := ts.lift.apply(rt, pv)
	switch {
	case !ok:
	case ts.kind == "hash":
		if c.ids = ts.snap.Indexes[ts.col].Hash.Lookup(cv.Key(rt.env.Now)); c.ids == nil {
			c.ids = []int{} // nil ids would read the whole table
		}
	case periodCandidates(rt, ts.snap.Indexes[ts.col].Period, cv, ts.contains, &ts.take().hits):
		c.hits, c.fs = &ts.scratch.hits, ts.residual
	}
	return c, nil
}

// cursor walks candidate rows — ids, hits, or, when both are nil, every
// slot of rows — and yields the live ones that pass fs.
type cursor struct {
	rows *storage.Version
	ids  []int
	hits *index.Hits
	fs   []pred
	at   int // the next position in ids, or the next slot
	id   int // the row next yielded, and its id
	row  Row
	err  error
}

// next advances to the next row the cursor yields, polling cancel per
// live candidate. It is false at the end, or on an error, left in err.
func (c *cursor) next(rt *runtime) bool {
	for {
		var ok bool
		switch {
		case c.hits != nil:
			c.id, ok = c.hits.Next()
		case c.ids != nil:
			if ok = c.at < len(c.ids); ok {
				c.id = c.ids[c.at]
			}
		default:
			c.id, ok = c.at, c.at < c.rows.Capacity()
		}
		c.at++
		if !ok {
			return false
		}
		if c.row, ok = c.rows.Get(c.id); !ok {
			continue
		}
		if c.err = rt.checkCancel(); c.err != nil {
			return false
		}
		if ok, c.err = evalFilters(rt, c.fs, c.row); ok || c.err != nil {
			return ok
		}
	}
}

// size is the number of candidates: a bound on the rows the cursor yields,
// and their count when fs is empty, since a version's indexes mark only
// its live rows. drain counts a period search's hits by clearing them.
func (c *cursor) size(drain bool) int {
	switch {
	case c.hits != nil && drain:
		return c.hits.Drain()
	case c.hits != nil:
		return c.hits.Len()
	case c.ids != nil:
		return len(c.ids)
	}
	return c.rows.Len()
}

// read hands emit the rows c yields in batches of at most BatchRows. The
// batch buffer is sized for c's candidates, split evenly over the fewest
// batches, so a point read does not pay for a whole batch; the
// statement is charged for it as for a fresh one.
func (ts *tableScan) read(rt *runtime, c *cursor, emit func([]Row) error) error {
	n := c.size(false)
	batches := max(1, (n+BatchRows-1)/BatchRows)
	want := (n + batches - 1) / batches
	if ts.room < want {
		if err := rt.grow(int64(want-ts.room) * rowHeaderSize); err != nil {
			return err
		}
		ts.room = want
	}
	sc := ts.take()
	sc.buf = slices.Grow(sc.buf[:0], want)
	buf := sc.buf[:0:want]
	for c.next(rt) {
		// MVCC slab rows are immutable (writers replace whole rows), so
		// the scan aliases them instead of copying.
		if buf = append(buf, c.row); len(buf) == cap(buf) {
			if err := emit(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if c.err != nil || len(buf) == 0 {
		return c.err
	}
	return emit(buf)
}

// countRows hands a count-only consumer — a global aggregate whose every
// aggregate is COUNT(*), which reads nothing but the length of each
// batch — n rows that no filter needs to see, as batches of nil rows.
// It polls cancel once for the lot.
func countRows(rt *runtime, n int, emit func([]Row) error) error {
	if err := rt.checkCancel(); err != nil {
		return err
	}
	for ; n > 0; n -= BatchRows {
		if err := emit(nilRows[:min(n, BatchRows)]); err != nil {
			return err
		}
	}
	return nil
}

// nilRows backs countRows's batches. Nothing writes it: a batch is
// filtered in place only under filters, and a counted one has none.
var nilRows = make([]Row, BatchRows)

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

// periodLift binds how a probe of type pt reaches the period index on a
// column of type ct for the index conjunct call, the column being its
// argument colArg. When call resolves to the builtin overlaps(Element,
// Element), the index answers it exactly: the probe is lifted by that
// routine's own cast, and exact is true. Anything else — contains, a
// user overload of overlaps — stays among the re-checked filters, and
// the probe is lifted to the column's type where an implicit cast exists
// (a narrower temporal value keeps its own type: it still maps to
// intervals).
func (b *binder) periodLift(call *ast.Call, colArg int, ct, pt *types.Type) (lift probeCast, exact bool) {
	if elem, ok := b.env.Reg.LookupType("Element"); ok && call.LowerName() == "overlaps" {
		argTypes := []*types.Type{ct, pt}
		if colArg == 1 {
			argTypes[0], argTypes[1] = pt, ct
		}
		res, err := b.env.Reg.Resolve("overlaps", argTypes)
		if err == nil && res.Routine.Params[0] == elem && res.Routine.Params[1] == elem {
			return probeCast{cast: res.Casts[1-colArg]}, true
		}
	}
	cast, _ := b.implicitCast(pt, ct)
	return probeCast{cast: cast}, false
}

// periodCandidates marks in h the rows of the period index ix whose
// value overlaps the temporal probe v at the statement's NOW —
// rt.env.Now, the NOW every routine of the statement sees. It returns
// false when the index cannot give the conjunct's rows: v has no interval
// form, or it binds empty under contains (every element contains the
// empty one, overlapping or not).
func periodCandidates(rt *runtime, ix *index.Period, v types.Value, contains bool, h *index.Hits) bool {
	now := rt.env.Now
	ivs := rt.ivs[:0]
	switch obj := v.Obj().(type) {
	case temporal.Element:
		ivs = obj.AppendBound(ivs, now)
	case temporal.Period:
		if iv, ok := obj.Bind(now); ok {
			ivs = append(ivs, iv)
		}
	case temporal.Chronon:
		ivs = append(ivs, temporal.Interval{Lo: obj, Hi: obj})
	case temporal.Instant:
		c := obj.Bind(now)
		ivs = append(ivs, temporal.Interval{Lo: c, Hi: c})
	default:
		return false
	}
	rt.ivs = ivs
	if contains && len(ivs) == 0 {
		return false
	}
	ix.Overlapping(h, ivs, now)
	return true
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

// indexUse is one way a conjunct could drive an index: col = probe for
// a hash index, or a period call with col as argument colArg.
type indexUse struct {
	col, probe ast.Expr
	colArg     int
}

// indexArgs returns the ways conjunct c could use an index, and for a
// period index the call: either side of col = x for a hash index; either
// side of overlaps(col, x), but only the container side of contains(col,
// x), for a period index — the contained side may be anywhere, even
// empty.
func indexArgs(c ast.Expr) (kind string, call *ast.Call, uses []indexUse) {
	switch n := c.(type) {
	case *ast.Binary:
		if n.Op == "=" {
			return "hash", nil, []indexUse{{n.L, n.R, 0}, {n.R, n.L, 1}}
		}
	case *ast.Call:
		if len(n.Args) != 2 {
			break
		}
		switch n.LowerName() {
		case "overlaps":
			return "period", n, []indexUse{{n.Args[0], n.Args[1], 0}, {n.Args[1], n.Args[0], 1}}
		case "contains":
			return "period", n, []indexUse{{n.Args[0], n.Args[1], 0}}
		}
	}
	return "", nil, nil
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
		return pos, src.snap.Indexes[pos].Hash != nil
	}
	return pos, src.snap.Indexes[pos].Period != nil
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
// every full-width row of its last level to emit. Level 0's survivors
// are its source's own rows, which are immutable and exactly the prefix
// of a joined row, so level 1 reads them in place; later levels below
// the last materialise their survivors into arena rows, which the next
// level re-reads; the last level streams. A single source passes its scan's
// batches through, filtered in place (see source.scan for what emit may
// keep). A join hands over each surviving pair as it is found, in a scratch row
// the next pair overwrites, which emit must copy to keep; a last level
// that counts its pairs hands over nil rows (countRows). The scratch
// row holds only the columns some expression over the joined row reads
// (source.cols); the others stay zero Values, which no operator accepts,
// so a column wrongly left out fails loudly instead of reading a stale
// value. A level whose scan probes per accumulated row (tableScan.joined)
// pairs the rows of its index hits under its filters, and every row,
// when the index cannot take the probe, under fallbackFilters.
func joinSources(rt *runtime, sources []*source, width int, hashConds []*hashJoinCond, levelFilters [][]pred, levelStats []*OpStats, emit func(rows []Row) error) error {
	if len(sources) == 1 {
		return sources[0].scan(rt, func(batch []Row) error { return emitFiltered(rt, levelFilters[0], batch, emit) })
	}

	// Level 0's filters read no column of the row (a conjunct on source
	// 0 alone is pushed into its scan), so they test its narrow rows.
	var acc []Row
	if err := sources[0].scan(rt, func(batch []Row) error {
		return emitFiltered(rt, levelFilters[0], batch, func(kept []Row) (err error) {
			if acc, err = growRows(rt, acc, len(kept), rowHeaderSize); err == nil {
				acc = append(acc, kept...)
			}
			return err
		})
	}); err != nil {
		return err
	}
	last := len(sources) - 1
	// Candidate pairs merge into one scratch row; only survivors of a
	// level between the first and the last are copied out (into the
	// arena, batch.go), so filtered-out pairs and every last-level pair
	// allocate nothing.
	scratch := make(Row, width)
	scratchBatch := []Row{scratch}
	for level := 1; level <= last; level++ {
		src := sources[level]
		var st *OpStats
		if level < len(levelStats) {
			st = levelStats[level]
		}
		lvlStart := st.start()

		// begin starts the pairs of accumulated row a: its columns go
		// into scratch once, not once per pair.
		begin := func(a Row) { copy(scratch[:src.off], a) }
		// pair puts source row sr beside them and, when the level's
		// filters pass, keeps the result: in the next level's input, or
		// through emit at the last level.
		var next []Row
		kept, fs := 0, levelFilters[level]
		pair := func(sr Row) error {
			if err := rt.checkCancel(); err != nil {
				return err
			}
			src.put(scratch, sr)
			ok, err := evalFilters(rt, fs, scratch)
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

		// A probing level runs its scan's probe with each accumulated
		// row a as the outer row: a is pushed for the probe and popped
		// before the cursor walks, since the scan's filters bind one
		// scope level below it.
		if ts := src.table; ts != nil && ts.joined {
			for _, a := range acc {
				if err := rt.checkCancel(); err != nil {
					return err
				}
				rt.push(a)
				c, err := ts.candidates(rt)
				rt.pop()
				if err != nil {
					return err
				}
				if fs = levelFilters[level]; c.hits == nil && c.ids == nil && ts.exact != nil {
					if fs, err = ts.fallbackFilters(fs); err != nil {
						return err
					}
				}
				if ts.counts && len(c.fs) == 0 && len(fs) == 0 {
					n := c.size(true)
					kept += n
					if err := countRows(rt, n, emit); err != nil {
						return err
					}
					continue
				}
				begin(a)
				for c.next(rt) {
					if err := pair(c.row); err != nil {
						return err
					}
				}
				if c.err != nil {
					return c.err
				}
			}
		} else if err := joinLevel(rt, acc, src, hashConds[level], scratch, begin, pair); err != nil {
			return err
		}
		st.record(lvlStart, kept)
		acc = next
	}
	return nil
}

// exactConj is a join level's conjunct that its scan's index answers
// exactly, which the level's filters leave out. The rows of a probe the
// index cannot take (one its cast rejects), which are every row, must
// pass it too; only those need it, so it is bound for the first of them.
type exactConj struct {
	expr    ast.Expr
	binder  binder
	scope   *bindScope
	filters []pred // the level's filters and expr, once bound
}

// fallbackFilters returns a joined level's filters fs with its exact
// conjunct beside them.
func (ts *tableScan) fallbackFilters(fs []pred) ([]pred, error) {
	x := ts.exact
	if x.filters == nil {
		p, err := x.binder.bindFilters([]ast.Expr{x.expr}, x.scope)
		if err != nil {
			return nil, err
		}
		x.filters = append(slices.Clip(fs), p...)
	}
	return x.filters, nil
}

// joinLevel joins src into the accumulated rows without an index: an
// equality conjunct builds a hash table over src, anything else is a
// nested loop, and every pair goes through pair. A LEFT JOIN first tests
// its ON conjuncts in scratch and pairs each row nothing matched with a
// NULL row.
func joinLevel(rt *runtime, acc []Row, src *source, hc *hashJoinCond, scratch Row, begin func(a Row), pair func(sr Row) error) error {
	// Gather src's rows, never the scan's batch slice.
	var srcRows []Row
	if err := src.scan(rt, func(batch []Row) (err error) {
		if srcRows, err = growRows(rt, srcRows, len(batch), rowHeaderSize); err == nil {
			srcRows = append(srcRows, batch...)
		}
		return err
	}); err != nil {
		return err
	}
	switch {
	case src.leftJoin:
		nulls := make(Row, len(src.schema))
		for i, cm := range src.schema {
			nulls[i] = types.NewNull(cm.Type)
		}
		for _, a := range acc {
			begin(a)
			matched := false
			for _, sr := range srcRows {
				if err := rt.checkCancel(); err != nil {
					return err
				}
				src.put(scratch, sr)
				ok, err := evalFilters(rt, src.on, scratch)
				if err != nil {
					return err
				}
				if ok {
					matched = true
					if err := pair(sr); err != nil {
						return err
					}
				}
			}
			if !matched {
				// NULL-pad the right side; pair re-checks the WHERE
				// filters of this level against the padded row.
				if err := pair(nulls); err != nil {
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
			begin(a)
			for _, sr := range buildMap[kv.Key(rt.env.Now)] {
				if err := pair(sr); err != nil {
					return err
				}
			}
		}
	default:
		for _, a := range acc {
			begin(a)
			for _, sr := range srcRows {
				if err := pair(sr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// emitFiltered hands emit the rows of batch that pass fs, filtering the
// batch in place.
func emitFiltered(rt *runtime, fs []pred, batch []Row, emit func([]Row) error) error {
	if len(fs) == 0 {
		return emit(batch)
	}
	kept := batch[:0]
	for _, r := range batch {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		ok, err := evalFilters(rt, fs, r)
		if err != nil {
			return err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return emit(kept)
}
