package exec

import (
	"cmp"
	"slices"

	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Specialised coalesce operator for grouped temporal aggregation — the
// executor's streaming path for the paper's §5 centrepiece,
//
//	SELECT k..., group_union(valid) FROM ... GROUP BY k...
//
// The operator consumes the scan's or the join's rows as they arrive
// and does all of its per-row work in one pass: it gives the row a group
// ordinal from a typed key, bumps the group's COUNTs, and appends the
// bound periods of every group_union argument, tagged with the ordinal,
// to one flat interval array. Once the input ends, a counting sort
// gathers each group's intervals and one linear merge per group builds
// the group's Element — or, when the projection is length(group_union(x)),
// sums the merged lengths straight into a Span and builds no Element.
// One row per group comes out in first-encounter order, like the generic
// operator's.
//
// The operator binds only when every aggregate is COUNT(*), COUNT(col)
// or non-DISTINCT group_union(col) over plain column references, at
// least one group_union is present, and every group_union argument's
// static type is exactly the aggregate's Element parameter (no implicit
// cast); anything else takes the generic accumulator path, which remains
// the semantics reference.

type coalesceAggKind int

const (
	caCount  coalesceAggKind = iota
	caUnion                  // the group's Element
	caLength                 // length(group_union(col)): the Element's length
)

// coalesceAggSpec mirrors one aggSpec the operator evaluates; col is the
// fromSchema position of the argument, -1 for COUNT(*), and typ the type
// of a group_union's value (Element, or Span when its length is fused).
type coalesceAggSpec struct {
	kind coalesceAggKind
	col  int
	typ  *types.Type
}

// coalesceKey says how the operator maps a row's group to its ordinal.
type coalesceKey int

const (
	keyEncoded coalesceKey = iota // any key: the encoded bytes (appendKeyCols)
	keyString                     // one VARCHAR column: the row's own string
)

// coalescePlan is the bound operator: group columns, how they key, and
// the aggregate specs.
type coalescePlan struct {
	groupCols []int
	key       coalesceKey
	aggs      []coalesceAggSpec
	fused     bool // some length(group_union(x)) is summed in the merge
}

// tryCoalesce checks whether the grouped query is eligible for the
// specialised coalesce operator. nil means the generic path runs. A
// group_union that is the argument of length(...), where that call
// resolves to the blade's length(Element) without a cast, is fused: the
// spec's fused type is length's result type, and its slot holds the
// length, which bindCall reads for that length call.
func (b *binder) tryCoalesce(sel *ast.Select, aggSpecs []*aggSpec, fromSchema Schema) *coalescePlan {
	elem, ok := b.env.Reg.LookupType("Element")
	if !ok || len(sel.GroupBy) == 0 || sel.Distinct {
		return nil
	}
	cp := &coalescePlan{}
	for _, ge := range sel.GroupBy {
		cr, ok := ge.(*ast.ColumnRef)
		if !ok {
			return nil
		}
		pos, err := fromSchema.Resolve(cr.Table, cr.Column)
		if err != nil {
			return nil
		}
		cp.groupCols = append(cp.groupCols, pos)
	}
	if len(cp.groupCols) == 1 && fromSchema[cp.groupCols[0]].Type == types.TString {
		cp.key = keyString
	}
	lengthOf := lengthArgs(sel)
	fused := make([]*types.Type, len(aggSpecs))
	union := false
	for i, spec := range aggSpecs {
		if spec.name == "count" && spec.star {
			cp.aggs = append(cp.aggs, coalesceAggSpec{kind: caCount, col: -1})
			continue
		}
		if spec.distinct {
			return nil
		}
		cr, ok := spec.call.Args[0].(*ast.ColumnRef)
		if !ok {
			return nil
		}
		pos, err := fromSchema.Resolve(cr.Table, cr.Column)
		if err != nil {
			return nil
		}
		switch spec.name {
		case "count":
			cp.aggs = append(cp.aggs, coalesceAggSpec{kind: caCount, col: pos})
		case "group_union":
			if spec.agg == nil || spec.agg.Param != elem || spec.cast != nil {
				return nil
			}
			a := coalesceAggSpec{kind: caUnion, col: pos, typ: spec.typ}
			if lengthOf[spec.call] {
				res, err := b.env.Reg.Resolve("length", []*types.Type{spec.typ})
				if err == nil && res.Routine.Params[0] == elem && res.Casts[0] == nil {
					a.kind, a.typ, fused[i] = caLength, res.Routine.Result, res.Routine.Result
					cp.fused = true
				}
			}
			cp.aggs = append(cp.aggs, a)
			union = true
		default:
			return nil
		}
	}
	if !union {
		return nil
	}
	for i, spec := range aggSpecs {
		spec.fused = fused[i]
	}
	return cp
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
// rows stream in. It belongs to that execution alone; of it, only the
// group values escape into the result.
type coalesceRun struct {
	cp   *coalescePlan
	strs map[string]int32 // group key → ordinal
	null int32            // the NULL key's ordinal under keyString, -1 until seen
	vals []types.Value    // group values, len(groupCols) per group
	accs []coalesceAcc    // one per aggregate
	n    int32            // groups so far
	hint int              // rows the input will hand over, 0 if unknown
}

// coalesceAcc is one aggregate's state over every group: a COUNT's
// per-group counts, or a group_union's per-group "saw a non-NULL input"
// flags and its flat interval array with each interval's group ordinal.
type coalesceAcc struct {
	cnt []int64
	saw []bool
	ivs []temporal.Interval
	ivg []int32
}

func (cp *coalescePlan) start(hint int) *coalesceRun {
	return &coalesceRun{cp: cp, strs: make(map[string]int32), null: -1, accs: make([]coalesceAcc, len(cp.aggs)), hint: hint}
}

// add folds a batch of from rows into their groups. It keeps nothing of
// a row but copies of its group values, so join scratch rows are safe.
func (r *coalesceRun) add(rt *runtime, rows []Row) error {
	now := rt.env.Now
	for _, fr := range rows {
		if err := rt.checkCancel(); err != nil {
			return err
		}
		g := r.ordinal(rt, fr)
		for ai, a := range r.cp.aggs {
			acc := &r.accs[ai]
			if a.kind == caCount {
				if a.col < 0 || !fr[a.col].Null {
					acc.cnt[g]++
				}
				continue
			}
			v := fr[a.col]
			if v.Null {
				continue
			}
			acc.saw[g] = true
			if acc.ivs == nil {
				// One period per row is the common case: size the arrays
				// for the input's rows, when known, else the first batch.
				// The budget is checked before the make.
				n := max(r.hint, len(rows))
				if err := rt.grow(int64(n) * (intervalSize + 4)); err != nil {
					return err
				}
				acc.ivs = make([]temporal.Interval, 0, n)
				acc.ivg = make([]int32, 0, n)
			}
			at, c := len(acc.ivs), cap(acc.ivs)
			acc.ivs = v.Obj().(temporal.Element).AppendBound(acc.ivs, now)
			for range acc.ivs[at:] {
				acc.ivg = append(acc.ivg, g)
			}
			// The interval array is the operator's dominant buffer; its
			// growth (and the ordinal array's, in lockstep) is charged as
			// it happens, so a giant coalesce hits its budget mid-input.
			if grown := cap(acc.ivs) - c; grown > 0 {
				rt.charge(int64(grown) * (intervalSize + 4))
			}
		}
	}
	return nil
}

// ordinal returns the group of row fr, opening it on first sight.
func (r *coalesceRun) ordinal(rt *runtime, fr Row) int32 {
	if r.cp.key == keyEncoded {
		rt.keybuf = rt.appendKeyCols(rt.keybuf[:0], fr, r.cp.groupCols)
		g, ok := r.strs[string(rt.keybuf)]
		if !ok {
			g = r.newGroup(rt, fr)
			r.strs[string(rt.keybuf)] = g
			rt.charge(int64(len(rt.keybuf)))
		}
		return g
	}
	v := fr[r.cp.groupCols[0]]
	if v.Null {
		if r.null < 0 {
			r.null = r.newGroup(rt, fr)
		}
		return r.null
	}
	g, ok := r.strs[v.S]
	if !ok {
		g = r.newGroup(rt, fr)
		r.strs[v.S] = g
	}
	return g
}

// newGroup opens the next group with fr's group values.
func (r *coalesceRun) newGroup(rt *runtime, fr Row) int32 {
	for _, c := range r.cp.groupCols {
		r.vals = append(r.vals, fr[c])
	}
	for ai, a := range r.cp.aggs {
		if a.kind == caCount {
			r.accs[ai].cnt = append(r.accs[ai].cnt, 0)
		} else {
			r.accs[ai].saw = append(r.accs[ai].saw, false)
		}
	}
	rt.charge(mapEntryOverhead + int64(len(r.cp.groupCols))*valueSize + int64(len(r.accs))*8)
	r.n++
	return r.n - 1
}

// rows finishes the aggregates and returns one group row ([group
// values..., aggregate values...]) per group in first-encounter order —
// the layout and order the generic operator produces. Semantics match
// the generic accumulators exactly: NULL inputs are skipped, a group
// with no non-NULL input yields NULL, and a group whose inputs bind to
// no intervals yields the empty element (length zero).
func (r *coalesceRun) rows(rt *runtime) ([]Row, error) {
	n, w := int(r.n), len(r.cp.groupCols)
	if err := rt.grow(int64(n) * rowHeaderSize); err != nil {
		return nil, err
	}
	out := make([]Row, n)
	for g := range out {
		out[g] = rt.alloc(w + len(r.cp.aggs))
		copy(out[g], r.vals[g*w:(g+1)*w])
	}
	var grouped []temporal.Interval
	var end []int32
	for ai, a := range r.cp.aggs {
		acc, col := &r.accs[ai], w+ai
		if a.kind == caCount {
			for g, c := range acc.cnt {
				out[g][col] = types.NewInt(c)
			}
			continue
		}
		// Counting sort by group: after the placement pass, end[g] is
		// where group g's run ends and group g+1's begins.
		if cap(end) < n {
			if err := rt.grow(int64(n) * 4); err != nil {
				return nil, err
			}
			end = make([]int32, n)
		}
		end = end[:n]
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
			if err := rt.grow(int64(len(acc.ivs)) * intervalSize); err != nil {
				return nil, err
			}
			grouped = make([]temporal.Interval, len(acc.ivs))
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
				// The element's own period slice escapes into the result.
				rt.charge(int64(len(run)) * intervalSize)
				out[g][col] = types.NewUDT(a.typ, temporal.ElementOfIntervals(run))
			}
		}
	}
	return out, nil
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
