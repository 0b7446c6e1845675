package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tip/internal/blade"
	"tip/internal/index"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// The coalesce operator: the executor's one grouping operator, which
// runs every GROUP BY and every aggregate — the paper's §5 centrepiece,
//
//	SELECT k..., group_union(valid) FROM ... GROUP BY k...
//
// among them. It does all of its per-row work in one pass: it gives the
// row a group ordinal from a typed key, bumps the group's COUNTs,
// appends the bound periods of every group_union argument, tagged with
// the ordinal, to one flat interval array, and steps the group's state
// of every other aggregate (caState: SUM, AVG, MIN, MAX, any other blade
// aggregate, DISTINCT, an expression argument or one needing a cast).
// Once the input ends, a counting sort gathers each group's intervals
// and one linear merge per group builds the group's Element — or, when
// the projection is length(group_union(x)), sums the merged lengths
// straight into a Span and builds no Element. One row per group comes
// out in first-encounter order; with no GROUP BY there is exactly one
// group, even over no input. The working arrays outlive the execution in
// a pool (coalesceRuns), so a repeated statement allocates little beyond
// its answer.
//
// The operator consumes the rows the scan or the join hands it and keys
// them through a map (add): a VARCHAR column by its string, any other key
// by its encoded bytes. A global aggregate whose every aggregate is
// COUNT(*) reads no row at all: it adds whole batches (counts). When the
// one group column has a hash index in the one table the query reads in
// full, the operator reads that version itself and takes each row's
// group from its slot (indexKeys, read), and, beyond that, may take the
// intervals from a period index instead of the rows (readPeriods,
// unseen).

type coalesceAggKind int

const (
	caCount  coalesceAggKind = iota // COUNT(*) or COUNT(col): the group's counts
	caUnion                         // the group's Element
	caLength                        // length(group_union(col)): the Element's length
	caState                         // any other aggregate: a state per group
)

// coalesceAggSpec is how the operator evaluates one aggSpec: col is the
// fromSchema position of a COUNT's or group_union's argument, -1 for
// COUNT(*), typ the type of a group_union's value (Element, or Span when
// its length is fused), and spec the call site a caState steps.
type coalesceAggSpec struct {
	kind coalesceAggKind
	col  int
	typ  *types.Type
	spec *aggSpec
}

// unions reports whether the aggregate keeps intervals.
func (a coalesceAggSpec) unions() bool { return a.kind == caUnion || a.kind == caLength }

// coalesceKey says how the operator maps a row's group to its ordinal.
type coalesceKey int

const (
	keyEncoded coalesceKey = iota // any key: the encoded bytes of its values (appendKey)
	keyString                     // one VARCHAR column: the row's own string
	keyIndex                      // one column with a hash index: the row's slot (indexKeys)
	keyNone                       // no GROUP BY: one group
)

// coalescePlan is the bound operator: group keys, how they key, and the
// aggregate specs.
type coalescePlan struct {
	// exprs are the group expressions; groupCols their fromSchema
	// positions when every one is a column, else nil.
	exprs     []cexpr
	groupCols []int
	key       coalesceKey
	aggs      []coalesceAggSpec
	fused     bool       // some length(group_union(x)) is summed in the merge
	counts    bool       // no GROUP BY, and every aggregate is COUNT(*)
	scan      *tableScan // under keyIndex, the scan whose version the operator reads
	// period is set, under keyIndex, when every group_union reads its
	// intervals from its column's period index (readPeriods).
	period bool
}

// tryCoalesce builds the operator's plan for a grouped query. A
// group_union over a column whose type is exactly the aggregate's
// Element parameter keeps its intervals in the flat array; one that is
// the argument of length(...), where that call resolves to the blade's
// length(Element) without a cast, is fused: the spec's fused type is
// length's result type, and its slot holds the length, which bindCall
// reads for that length call.
func (b *binder) tryCoalesce(sel *ast.Select, aggSpecs []*aggSpec, fromSchema Schema) *coalescePlan {
	cp := &coalescePlan{key: keyEncoded}
	column := func(e ast.Expr) (int, bool) {
		cr, ok := e.(*ast.ColumnRef)
		if !ok {
			return 0, false
		}
		pos, err := fromSchema.Resolve(cr.Table, cr.Column)
		return pos, err == nil
	}
	for _, ge := range sel.GroupBy {
		pos, ok := column(ge)
		if !ok {
			cp.groupCols = nil
			break
		}
		cp.groupCols = append(cp.groupCols, pos)
	}
	switch {
	case len(sel.GroupBy) == 0:
		cp.key = keyNone
		cp.counts = !slices.ContainsFunc(aggSpecs, func(s *aggSpec) bool { return !s.star })
	case len(cp.groupCols) == 1 && fromSchema[cp.groupCols[0]].Type == types.TString:
		cp.key = keyString
	}
	elem, _ := b.env.Reg.LookupType("Element")
	lengthOf := lengthArgs(sel)
	for _, spec := range aggSpecs {
		a := coalesceAggSpec{kind: caState, col: -1, spec: spec}
		var pos int
		col := !spec.star && !spec.distinct
		if col {
			pos, col = column(spec.call.Args[0])
		}
		switch {
		case spec.star:
			a.kind = caCount
		case col && spec.name == "count":
			a.kind, a.col = caCount, pos
		case col && spec.name == "group_union" && spec.agg != nil && spec.agg.Param == elem && spec.cast == nil:
			a.kind, a.col, a.typ = caUnion, pos, spec.typ
			if lengthOf[spec.call] {
				res, err := b.env.Reg.Resolve("length", []*types.Type{spec.typ})
				if err == nil && res.Routine.Params[0] == elem && res.Casts[0] == nil {
					a.kind, a.typ, spec.fused = caLength, res.Routine.Result, res.Routine.Result
					cp.fused = true
				}
			}
		}
		cp.aggs = append(cp.aggs, a)
	}
	return cp
}

// indexKeys gives the rows of the plan's one source their groups from
// the hash index on its one group column, in the version the scan reads:
// the operator reads that version itself (read), numbers the index's
// keys once per execution and then reads each row's group by its slot
// id, with no hashing per row. It applies when the scan reads every row
// through its own filters, since numbering costs the whole index, and
// hands each survivor on (no join-level filter drops one after the
// scan), and when the column is not a UDT, whose hash key may depend on
// the NOW a writer formatted it at. With no filter, when every other
// aggregate is COUNT(*) and every group_union argument has a period
// index, the intervals come from those indexes (cp.period): the slot
// pass then fetches a row only to open its group. It returns what
// EXPLAIN names as the groups' and intervals' source, or "" when the
// plan keeps its map.
func (cp *coalescePlan) indexKeys(src *source) string {
	ts := src.table
	if ts == nil || ts.kind != "" || len(cp.groupCols) != 1 {
		return ""
	}
	col := cp.groupCols[0]
	if src.snap.Indexes[col].Hash == nil || src.schema[col].Type.Kind == types.KindUDT {
		return ""
	}
	cp.key, cp.scan = keyIndex, ts
	keys := "hash index on " + src.tbl.Meta.Columns[col].Name
	var periods []string
	cp.period = len(ts.filters) == 0
	for _, a := range cp.aggs {
		switch {
		case a.kind == caCount && a.col < 0:
		case a.unions() && src.snap.Indexes[a.col].Period != nil:
			if name := src.tbl.Meta.Columns[a.col].Name; !slices.Contains(periods, name) {
				periods = append(periods, name)
			}
		default:
			cp.period = false
		}
	}
	if cp.period = cp.period && len(periods) > 0; cp.period {
		keys += ", period index on " + strings.Join(periods, ", ")
	}
	return keys
}

// lengthArgs returns the calls the select list, HAVING and ORDER BY
// apply length(...) to directly.
func lengthArgs(sel *ast.Select) map[*ast.Call]bool {
	out := map[*ast.Call]bool{}
	visit := func(x ast.Expr) bool {
		if c, ok := x.(*ast.Call); ok && len(c.Args) == 1 && !c.Distinct && c.LowerName() == "length" {
			if arg, ok := c.Args[0].(*ast.Call); ok {
				out[arg] = true
			}
		}
		return true
	}
	for _, item := range sel.Items {
		walkExpr(item.Expr, visit)
	}
	walkExpr(sel.Having, visit)
	for _, o := range sel.OrderBy {
		walkExpr(o.Expr, visit)
	}
	return out
}

// coalesceRun is one execution of a coalescePlan: the state it builds as
// rows stream in. Its arrays outlive the execution in coalesceRuns, so
// the next one finds them sized; none of them reaches the result, which
// holds the projection's copies of the group rows' values and the
// aggregates' own Elements and Spans.
type coalesceRun struct {
	cp   *coalescePlan
	strs map[string]int32 // group key → ordinal, but under keyIndex
	// Under keyIndex slot maps a slot to the number of its key in the
	// index walk, -1 for a slot the index does not post, until the slot
	// pass has read the slot, and to its row's group after; ord maps a
	// key number to its ordinal, -1 until seen.
	slot, ord []int32
	null      int32         // the NULL key's ordinal, -1 until seen
	key       []types.Value // under keyEncoded, the row's group values
	vals      []types.Value // group values, one per group expression per group
	accs      []coalesceAcc // one per aggregate
	n         int32         // groups so far
	hint      int           // rows the input will hand over, 0 if unknown
	// entries and fetched count, under cp.period, the index entries read
	// and the rows whose values were read (EXPLAIN ANALYZE).
	entries, fetched int
	// rows's working arrays: the group rows and their cells, the
	// counting sort's run ends and its copy of the intervals.
	out     []Row
	cells   []types.Value
	end     []int32
	grouped []temporal.Interval
}

// coalesceAcc is one aggregate's state over every group: a COUNT's
// per-group counts; a group_union's per-group "saw a non-NULL input"
// flags and its flat interval array with each interval's group ordinal
// (room is the interval entries charged so far); or a caState's inputs
// taken per group, its per-group states, nil until a group's first
// input, and under DISTINCT the inputs seen, keyed by group and value.
type coalesceAcc struct {
	cnt    []int64
	saw    []bool
	ivs    []temporal.Interval
	ivg    []int32
	room   int
	states []blade.AggState
	seen   map[string]struct{}
}

// coalesceRuns keeps finished runs for later executions. Each execution
// takes a run of its own, so two coalesce operators live at once in one
// statement (a grouped subquery in a grouped query's HAVING, run while
// the outer operator's group rows are read) never share one.
var coalesceRuns scratchPool[coalesceRun]

// start takes a run for one execution of cp. Under keyIndex it numbers
// the index's keys first.
func (cp *coalescePlan) start(rt *runtime, hint int) (*coalesceRun, error) {
	r := coalesceRuns.get()
	r.cp, r.null, r.n, r.hint, r.vals = cp, -1, 0, hint, r.vals[:0]
	r.entries, r.fetched = 0, 0
	r.key = slices.Grow(r.key[:0], len(cp.exprs))[:len(cp.exprs)]
	r.accs = slices.Grow(r.accs[:0], len(cp.aggs))[:len(cp.aggs)]
	for i := range r.accs {
		a := &r.accs[i]
		a.cnt, a.saw, a.ivs, a.ivg, a.room = a.cnt[:0], a.saw[:0], a.ivs[:0], a.ivg[:0], 0
		a.states = a.states[:0]
	}
	switch cp.key {
	case keyIndex:
		return r, r.numberKeys(rt)
	case keyNone:
		r.newGroup(rt, nil)
	default:
		if r.strs == nil {
			r.strs = make(map[string]int32)
		}
	}
	return r, nil
}

// numberKeys numbers the keys of the group column's hash index in the
// version the scan reads, and maps every slot the index posts to its
// key's number.
func (r *coalesceRun) numberKeys(rt *runtime) error {
	snap := r.cp.scan.snap
	slots := snap.Rows.Capacity()
	var err error
	if r.slot, err = reuse(rt, r.slot, slots, 4); err != nil {
		return err
	}
	r.slot = r.slot[:slots]
	for i := range r.slot {
		r.slot[i] = -1
	}
	var k int32
	snap.Indexes[r.cp.groupCols[0]].Hash.Each(func(_ string, ids []int) {
		for _, id := range ids {
			r.slot[id] = k
		}
		k++
	})
	if r.ord, err = reuse(rt, r.ord, int(k), 4); err != nil {
		return err
	}
	r.ord = r.ord[:k]
	for i := range r.ord {
		r.ord[i] = -1
	}
	return nil
}

// add folds a batch of from rows into their groups. It keeps nothing of
// a row but copies of its group values and of the aggregates' inputs, so
// join scratch rows are safe. Under cp.counts it reads only the batch's
// length, as its rows may be nil (countRows).
func (r *coalesceRun) add(rt *runtime, rows []Row) error {
	if r.cp.counts {
		for ai := range r.accs {
			r.accs[ai].cnt[0] += int64(len(rows))
		}
		return nil
	}
	n := max(r.hint, len(rows))
	for _, fr := range rows {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		g, err := r.ordinal(rt, fr)
		if err != nil {
			return err
		}
		if err := r.fold(rt, g, fr, n); err != nil {
			return err
		}
	}
	return nil
}

// fold adds row fr to group g's aggregates, but for the group_unions
// the period index feeds. A group_union's interval arrays are sized for
// n entries on first use.
func (r *coalesceRun) fold(rt *runtime, g int32, fr Row, n int) error {
	for ai, a := range r.cp.aggs {
		acc := &r.accs[ai]
		switch {
		case a.kind == caCount:
			if a.col < 0 || !fr[a.col].Null {
				acc.cnt[g]++
			}
			continue
		case a.kind == caState:
			if err := acc.step(rt, a.spec, g, fr); err != nil {
				return err
			}
			continue
		case r.cp.period:
			continue
		}
		v := fr[a.col]
		if v.Null {
			continue
		}
		acc.saw[g] = true
		if acc.room == 0 {
			// One period per row is the common case: size the arrays
			// for the input's rows, when known, else the first batch.
			// The budget is checked before they are taken.
			if err := rt.grow(int64(n) * (intervalSize + 4)); err != nil {
				return err
			}
			acc.room = n
			acc.ivs, acc.ivg = slices.Grow(acc.ivs, n), slices.Grow(acc.ivg, n)
		}
		at := len(acc.ivs)
		acc.ivs = v.Obj().(temporal.Element).AppendBound(acc.ivs, rt.env.Now)
		for range acc.ivs[at:] {
			acc.ivg = append(acc.ivg, g)
		}
		// The interval array is the operator's dominant buffer; its
		// growth past the entries charged (and the ordinal array's,
		// in lockstep) is charged as a doubling array's, so a giant
		// coalesce hits its budget mid-input.
		if len(acc.ivs) > acc.room {
			grown := max(acc.room, len(acc.ivs)-acc.room)
			acc.room += grown
			rt.charge(int64(grown) * (intervalSize + 4))
		}
	}
	return nil
}

// step folds row fr's input to a caState aggregate into group g: the
// argument, unless NULL or, under DISTINCT, seen before in the group,
// counts, and then steps the group's state, made on its first input,
// through the call site's implicit cast. A state is charged as one Value.
func (acc *coalesceAcc) step(rt *runtime, spec *aggSpec, g int32, fr Row) error {
	rt.push(fr)
	v, err := spec.arg(rt)
	rt.pop()
	if err != nil || v.Null {
		return err // aggregates skip NULL input
	}
	if spec.distinct {
		rt.keybuf = rt.appendValueKey(append(strconv.AppendInt(rt.keybuf[:0], int64(g), 10), '|'), v)
		if _, dup := acc.seen[string(rt.keybuf)]; dup {
			return nil
		}
		if acc.seen == nil {
			acc.seen = make(map[string]struct{})
		}
		acc.seen[string(rt.keybuf)] = struct{}{}
		rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead)
	}
	acc.cnt[g]++
	if spec.newState == nil {
		return nil
	}
	if spec.cast != nil {
		if v, err = spec.memo.Apply(rt.env.Ctx(), spec.cast, v); err != nil {
			return err
		}
	}
	st := acc.states[g]
	if st == nil {
		st = spec.newState()
		acc.states[g] = st
		rt.charge(valueSize)
	}
	return st.Step(rt.env.Ctx(), v)
}

// read runs the operator under keyIndex over the version its scan
// reads, in place of the scan's batches: one pass over the live slots
// in slot order, through the scan's filters, gives each row its group
// from its slot and folds it in; under cp.period the intervals then
// come from the period indexes. The slot pass is the scan's line under
// EXPLAIN ANALYZE.
func (r *coalesceRun) read(rt *runtime) error {
	ts := r.cp.scan
	start, rows := ts.st.start(), 0
	c, err := ts.candidates(rt)
	if err != nil {
		return err
	}
	n := max(r.hint, BatchRows)
	for c.next(rt) {
		g, err := r.slotOrdinal(rt, c.id, c.row)
		if err != nil {
			return err
		}
		r.slot[c.id] = g
		if err := r.fold(rt, g, c.row, n); err != nil {
			return err
		}
		rows++
	}
	if c.err != nil {
		return c.err
	}
	ts.st.record(start, rows)
	if !r.cp.period {
		return nil
	}
	for ai, a := range r.cp.aggs {
		if a.unions() {
			if err := r.readPeriods(rt, &r.accs[ai], ts.snap.Indexes[a.col].Period); err != nil {
				return err
			}
		}
	}
	return r.unseen(rt)
}

// readPeriods fills one group_union's interval array from the period
// index ix on its column, in one pass over the index's live entries:
// each entry, bound at the statement's NOW, goes to the group of its
// row's slot, and marks the group as holding a non-NULL input whether
// it binds or not. The pass reads the log, not the index's search form,
// so a version no search has read is never sorted for the operator. The
// arrays are charged up front for every live entry, the most that can
// bind.
func (r *coalesceRun) readPeriods(rt *runtime, acc *coalesceAcc, ix *index.Period) error {
	n := ix.Len()
	if err := rt.grow(int64(n) * (intervalSize + 4)); err != nil {
		return err
	}
	acc.room = n
	ivs, ivg := slices.Grow(acc.ivs[:0], n), slices.Grow(acc.ivg[:0], n)
	saw, slot := acc.saw, r.slot
	var err error
	ix.Bound(rt.env.Now, func(id int, iv temporal.Interval, ok bool) bool {
		r.entries++
		if id >= len(slot) || slot[id] < 0 {
			err = fmt.Errorf("exec: coalesce: the period index holds slot %d, which has no row", id)
			return false
		}
		g := slot[id]
		saw[g] = true
		if ok {
			ivs, ivg = append(ivs, iv), append(ivg, g)
		}
		err = rt.checkCancel()
		return err == nil
	})
	acc.ivs, acc.ivg = ivs, ivg
	return err
}

// unseen settles, under cp.period, the groups no index entry reached:
// their rows hold NULL or the empty element (the index keeps every
// period an element can hold), and a group with any non-NULL input
// answers the empty element, not NULL. One more pass over the live
// slots fetches the rows of those groups alone.
func (r *coalesceRun) unseen(rt *runtime) error {
	open := false
	for ai, a := range r.cp.aggs {
		open = open || a.unions() && slices.Contains(r.accs[ai].saw, false)
	}
	if !open {
		return nil
	}
	c, err := r.cp.scan.candidates(rt)
	if err != nil {
		return err
	}
	for c.next(rt) {
		g, fetched := r.slot[c.id], false
		for ai, a := range r.cp.aggs {
			if acc := &r.accs[ai]; a.unions() && !acc.saw[g] {
				fetched = true
				acc.saw[g] = !c.row[a.col].Null
			}
		}
		if fetched {
			r.fetched++
		}
	}
	return c.err
}

// slotOrdinal returns, under keyIndex, the group of row fr in slot id:
// its key's number, renumbered in first-encounter order. A row the index
// does not post must have a NULL key. It reads fr only to open a group
// or to check a NULL key.
func (r *coalesceRun) slotOrdinal(rt *runtime, id int, fr Row) (int32, error) {
	if k := r.slot[id]; k >= 0 {
		g := r.ord[k]
		if g < 0 {
			g = r.newGroup(rt, fr)
			r.ord[k] = g
			r.fetched++
		}
		return g, nil
	}
	r.fetched++
	if !fr[r.cp.groupCols[0]].Null {
		return 0, fmt.Errorf("exec: coalesce: the hash index holds no key for row %d", id)
	}
	if r.null < 0 {
		r.null = r.newGroup(rt, fr)
	}
	return r.null, nil
}

// ordinal returns the group of row fr, opening it on first sight.
func (r *coalesceRun) ordinal(rt *runtime, fr Row) (int32, error) {
	cp := r.cp
	switch cp.key {
	case keyNone:
		return 0, nil
	case keyString:
		v := fr[cp.groupCols[0]]
		if v.Null {
			if r.null < 0 {
				r.null = r.newGroup(rt, fr)
			}
			return r.null, nil
		}
		g, ok := r.strs[v.S]
		if !ok {
			g = r.newGroup(rt, fr)
			r.strs[v.S] = g
		}
		return g, nil
	}
	rt.push(fr)
	for i, ge := range cp.exprs {
		v, err := ge(rt)
		if err != nil {
			rt.pop()
			return 0, err
		}
		r.key[i] = v
	}
	rt.pop()
	rt.keybuf = rt.appendKey(rt.keybuf[:0], r.key)
	g, ok := r.strs[string(rt.keybuf)]
	if !ok {
		g = r.newGroup(rt, fr)
		r.strs[string(rt.keybuf)] = g
		rt.charge(int64(len(rt.keybuf)))
	}
	return g, nil
}

// newGroup opens the next group with fr's group value under keyString
// and keyIndex, else with the values ordinal evaluated.
func (r *coalesceRun) newGroup(rt *runtime, fr Row) int32 {
	if k := r.cp.key; k == keyString || k == keyIndex {
		r.vals = append(r.vals, fr[r.cp.groupCols[0]])
	} else {
		r.vals = append(r.vals, r.key...)
	}
	for ai, a := range r.cp.aggs {
		acc := &r.accs[ai]
		switch {
		case a.unions():
			acc.saw = append(acc.saw, false)
		case a.kind == caState:
			acc.cnt, acc.states = append(acc.cnt, 0), append(acc.states, nil)
		default:
			acc.cnt = append(acc.cnt, 0)
		}
	}
	rt.charge(mapEntryOverhead + int64(len(r.key))*valueSize + int64(len(r.accs))*8)
	r.n++
	return r.n - 1
}

// rows finishes the aggregates and returns one group row ([group
// values..., aggregate values...]) per group in first-encounter order.
// The rows are the run's own, read until release. NULL inputs are
// skipped, a group with no non-NULL input yields NULL (COUNT yields 0),
// and a group whose inputs bind to no intervals yields the empty element
// (length zero).
func (r *coalesceRun) rows(rt *runtime) ([]Row, error) {
	n, w := int(r.n), len(r.cp.exprs)
	width := w + len(r.cp.aggs)
	var err error
	if r.out, err = reuse(rt, r.out, n, rowHeaderSize); err != nil {
		return nil, err
	}
	if r.cells, err = reuse(rt, r.cells, n*width, valueSize); err != nil {
		return nil, err
	}
	out, cells := r.out[:n], r.cells[:n*width]
	r.cells = cells
	for g := range out {
		out[g] = cells[g*width : (g+1)*width : (g+1)*width]
		copy(out[g], r.vals[g*w:(g+1)*w])
	}
	var grouped []temporal.Interval
	var end []int32
	for ai, a := range r.cp.aggs {
		acc, col := &r.accs[ai], w+ai
		switch {
		case a.kind == caCount || a.kind == caState && a.spec.name == "count":
			for g, c := range acc.cnt {
				out[g][col] = types.NewInt(c)
			}
			continue
		case a.kind == caState:
			for g, st := range acc.states {
				if st == nil { // no non-NULL input
					out[g][col] = types.NewNull(a.spec.typ)
				} else if out[g][col], err = st.Final(rt.env.Ctx()); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Counting sort by group: after the placement pass, end[g] is
		// where group g's run ends and group g+1's begins.
		if end == nil {
			if r.end, err = reuse(rt, r.end, n, 4); err != nil {
				return nil, err
			}
			end = r.end[:n]
		}
		clear(end)
		for _, g := range acc.ivg {
			end[g]++
		}
		var sum int32
		for g, c := range end {
			end[g] = sum
			sum += c
		}
		if cap(grouped) < len(acc.ivs) {
			if r.grouped, err = reuse(rt, r.grouped, len(acc.ivs), intervalSize); err != nil {
				return nil, err
			}
			grouped = r.grouped
		}
		grouped = grouped[:len(acc.ivs)]
		for i, g := range acc.ivg {
			grouped[end[g]] = acc.ivs[i]
			end[g]++
		}
		var lo int32
		for g := range out {
			if err := rt.checkCancel(); err != nil {
				return nil, err
			}
			run := grouped[lo:end[g]]
			lo = end[g]
			switch {
			case !acc.saw[g]:
				out[g][col] = types.NewNull(a.typ)
			case a.kind == caLength:
				sortByLo(run)
				out[g][col] = types.NewUDT(a.typ, temporal.LengthOfSorted(run))
			default:
				sortByLo(run)
				// The element's own period slice, a merged copy of the
				// run, escapes into the result; the run stays scratch.
				rt.charge(int64(len(run)) * intervalSize)
				out[g][col] = types.NewUDT(a.typ, temporal.ElementOfIntervals(run))
			}
		}
	}
	return out, nil
}

// release returns the run to coalesceRuns once its group rows are no
// longer read, unless it holds more than maxPooledScratch bytes. The
// values it holds are cleared first, so the pool keeps none of the
// statement's strings or answers alive.
func (r *coalesceRun) release() {
	bytes := int64(cap(r.key)+cap(r.vals)+cap(r.cells))*valueSize + int64(cap(r.out))*rowHeaderSize +
		int64(cap(r.slot)+cap(r.ord)+cap(r.end))*4 + int64(cap(r.grouped))*intervalSize +
		int64(len(r.strs))*mapEntryOverhead
	for _, a := range r.accs[:cap(r.accs)] {
		bytes += int64(cap(a.cnt))*8 + int64(cap(a.saw)) + int64(cap(a.ivs))*intervalSize + int64(cap(a.ivg))*4 +
			int64(cap(a.states))*8 + int64(len(a.seen))*mapEntryOverhead
		clear(a.states)
		clear(a.seen)
	}
	clear(r.key)
	clear(r.vals)
	clear(r.cells)
	clear(r.strs)
	r.cp = nil
	coalesceRuns.put(r, bytes)
}

// sortByLo sorts one group's run of intervals by Lo. Typical runs are a
// handful of intervals (rows per group times periods per element),
// already nearly sorted because each element's own periods arrive in
// order, so a direct insertion sort beats the generic sort's dispatch;
// genuinely large groups take the generic sort.
func sortByLo(run []temporal.Interval) {
	if len(run) > 48 {
		slices.SortFunc(run, func(a, b temporal.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		return
	}
	for x := 1; x < len(run); x++ {
		iv := run[x]
		y := x
		for y > 0 && run[y-1].Lo > iv.Lo {
			run[y] = run[y-1]
			y--
		}
		run[y] = iv
	}
}
