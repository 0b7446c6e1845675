package exec

import (
	"slices"
	"sync"

	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Specialised coalesce operator for grouped temporal aggregation — the
// executor's columnar fast path for the paper's §5 centerpiece,
//
//	SELECT k..., group_union(valid) FROM ... GROUP BY k...
//
// Instead of running one accumulator per (group, aggregate) with
// per-row interface dispatch, the operator works in three flat passes:
//
//  1. assign every input row a group ordinal by hashing its grouping key
//     into a map from key to first-encounter ordinal;
//  2. extract the period columns of every group_union argument into one
//     (group, lo, hi) array, sort it by (group, lo), and coalesce each
//     group's run with a single linear normalize pass;
//  3. emit one output row per group in first-encounter order, exactly
//     like the generic operator.
//
// The operator binds only when every aggregate is COUNT(*), COUNT(col)
// or non-DISTINCT group_union(col) over plain column references, at
// least one group_union is present, and every group_union argument's
// static type is exactly the aggregate's Element parameter (no implicit
// cast); anything else takes the generic accumulator path, which remains
// the semantics reference.

type coalesceAggKind int

const (
	caCount coalesceAggKind = iota
	caUnion
)

// coalesceAggSpec mirrors one aggSpec the fast path can evaluate
// columnarly; col is the fromSchema position of the argument, -1 for
// COUNT(*).
type coalesceAggSpec struct {
	kind coalesceAggKind
	col  int
}

// coalescePlan is the bound fast path: group columns, aggregate specs
// and the Element type group_union yields.
type coalescePlan struct {
	groupCols []int
	aggs      []coalesceAggSpec
	elem      *types.Type
}

// tryCoalesce checks whether the grouped query is eligible for the
// specialised coalesce operator. nil means the generic path runs.
func (b *binder) tryCoalesce(sel *ast.Select, aggSpecs []*aggSpec, fromSchema Schema) *coalescePlan {
	elem, ok := b.env.Reg.LookupType("Element")
	if !ok || len(sel.GroupBy) == 0 || sel.Distinct {
		return nil
	}
	cp := &coalescePlan{elem: elem}
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
	union := false
	for _, spec := range aggSpecs {
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
			cp.aggs = append(cp.aggs, coalesceAggSpec{kind: caUnion, col: pos})
			union = true
		default:
			return nil
		}
	}
	if !union {
		return nil
	}
	return cp
}

// coalesceScratch holds every working buffer of one coalesce execution.
// The buffers are resized (and re-zeroed where required) on reuse and
// nothing in them escapes into results — output rows live in the row
// arena and output elements allocate their own period slices — so the
// instances recycle through a pool to keep the hot path off the heap.
type coalesceScratch struct {
	ord     []int32
	first   []int32
	cnt64   []int64
	ivs     []temporal.Interval
	ivg     []int32
	grouped []temporal.Interval
	cnt     []int32
	fill    []int32
	saw     []bool
}

var coalesceScratchPool = sync.Pool{New: func() any { return new(coalesceScratch) }}

// footprint is the scratch's resident byte size (slice capacities).
// Charged to the statement at acquisition: a pooled scratch's reused
// capacity is real memory held for the statement's whole run, whether
// or not this run allocated it.
func (sc *coalesceScratch) footprint() int64 {
	return int64(cap(sc.ord))*4 + int64(cap(sc.first))*4 + int64(cap(sc.cnt64))*8 +
		int64(cap(sc.ivs))*intervalSize + int64(cap(sc.ivg))*4 +
		int64(cap(sc.grouped))*intervalSize +
		int64(cap(sc.cnt))*4 + int64(cap(sc.fill))*4 + int64(cap(sc.saw))
}

// i32buf returns buf resized to n (contents undefined), growing only
// when the capacity is exhausted.
func i32buf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// run executes the fast path over the materialised from rows, returning
// one group row ([group values..., aggregate values...]) per group in
// first-encounter order — the layout and order the generic operator
// produces.
func (cp *coalescePlan) run(rt *runtime, fromRows []Row) ([]Row, error) {
	n := len(fromRows)
	if n == 0 {
		return nil, nil
	}
	groupByN := len(cp.groupCols)
	sc := coalesceScratchPool.Get().(*coalesceScratch)
	defer coalesceScratchPool.Put(sc)

	// The pooled scratch's resident capacity is charged fallibly up
	// front; every growth site below charges its delta.
	if err := rt.grow(sc.footprint()); err != nil {
		return nil, err
	}

	// Pass 1: group ordinals. first[g] is the group's first input row.
	if cap(sc.ord) < n {
		rt.charge(int64(n) * 4)
	}
	ord := i32buf(sc.ord, n)
	sc.ord = ord
	first := sc.first[:0]
	m := make(map[string]int32, 64)
	for i, fr := range fromRows {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		rt.keybuf = rt.appendKeyCols(rt.keybuf[:0], fr, cp.groupCols)
		g, ok := m[string(rt.keybuf)]
		if !ok {
			g = int32(len(first))
			rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead + 4)
			m[string(rt.keybuf)] = g
			first = append(first, int32(i))
		}
		ord[i] = g
	}
	sc.first = first
	numGroups := len(first)

	// Pass 2: aggregates, each over the flat (row -> group) mapping.
	aggVals := make([][]types.Value, len(cp.aggs))
	for ai, a := range cp.aggs {
		switch a.kind {
		case caCount:
			if cap(sc.cnt64) < numGroups {
				sc.cnt64 = make([]int64, numGroups)
			}
			cnt := sc.cnt64[:numGroups]
			for g := range cnt {
				cnt[g] = 0
			}
			for i, fr := range fromRows {
				if err := rt.checkCancel(); err != nil {
					return nil, err
				}
				if a.col < 0 || !fr[a.col].Null {
					cnt[ord[i]]++
				}
			}
			rt.charge(int64(numGroups) * valueSize)
			vs := make([]types.Value, numGroups)
			for g, c := range cnt {
				vs[g] = types.NewInt(c)
			}
			aggVals[ai] = vs
		case caUnion:
			vs, err := unionColumnar(rt, sc, fromRows, ord, numGroups, a.col, cp.elem)
			if err != nil {
				return nil, err
			}
			aggVals[ai] = vs
		}
	}

	// Pass 3: emission.
	if err := rt.grow(int64(numGroups) * rowHeaderSize); err != nil {
		return nil, err
	}
	out := make([]Row, numGroups)
	for g := 0; g < numGroups; g++ {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		row := rt.alloc(groupByN + len(cp.aggs))
		fr := fromRows[first[g]]
		for j, c := range cp.groupCols {
			row[j] = fr[c]
		}
		for ai := range cp.aggs {
			row[groupByN+ai] = aggVals[ai][g]
		}
		out[g] = row
	}
	return out, nil
}

// unionColumnar evaluates one group_union aggregate columnarly: bind
// every non-NULL element's intervals into one flat (group, lo, hi)
// array, sort by (group, lo), and normalize each group's run in a
// single linear pass. Semantics match the generic elementSetAgg
// exactly: NULL inputs are skipped, a group with no non-NULL input
// yields NULL, and a group whose inputs bind to no intervals yields the
// empty element. Every non-NULL value holds an Element: tryCoalesce
// admits only arguments of exactly the Element type elem.
func unionColumnar(rt *runtime, sc *coalesceScratch, fromRows []Row, ord []int32, numGroups, col int, elem *types.Type) ([]types.Value, error) {
	// Collect raw (unsorted, unmerged) interval bindings per row along
	// with their group ordinals. Normalisation happens once per group
	// below, so skipping each element's own canonicalisation
	// (AppendBound vs Bind) changes nothing.
	now := rt.env.Now
	ivs := sc.ivs[:0]
	ivg := sc.ivg[:0]
	if cap(sc.saw) < numGroups {
		sc.saw = make([]bool, numGroups)
	}
	saw := sc.saw[:numGroups]
	for g := range saw {
		saw[g] = false
	}
	cnt := i32buf(sc.cnt, numGroups+1)
	sc.cnt = cnt
	for g := range cnt {
		cnt[g] = 0
	}
	ivsCap := cap(ivs)
	for i, fr := range fromRows {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		v := fr[col]
		if v.Null {
			continue
		}
		el := v.Obj().(temporal.Element)
		g := ord[i]
		saw[g] = true
		at := len(ivs)
		ivs = el.AppendBound(ivs, now)
		// The interval array is the coalesce's dominant buffer; charge
		// its capacity growth (the parallel group-ordinal array grows in
		// lockstep) so a giant coalesce hits its budget mid-collection.
		if c := cap(ivs); c != ivsCap {
			rt.charge(int64(c-ivsCap) * (intervalSize + 4))
			ivsCap = c
		}
		for range ivs[at:] {
			ivg = append(ivg, g)
		}
		cnt[g+1] += int32(len(ivs) - at)
	}
	sc.ivs, sc.ivg = ivs, ivg
	// Counting sort by group: one linear placement pass instead of a
	// comparison sort over every interval, then an ordinary sort of each
	// group's (small) run by Lo.
	for g := 0; g < numGroups; g++ {
		cnt[g+1] += cnt[g]
	}
	grouped := sc.grouped
	if cap(grouped) < len(ivs) {
		if err := rt.grow(int64(len(ivs)) * intervalSize); err != nil {
			return nil, err
		}
		grouped = make([]temporal.Interval, len(ivs))
	}
	grouped = grouped[:len(ivs)]
	sc.grouped = grouped
	fill := i32buf(sc.fill, numGroups)
	sc.fill = fill
	for g := range fill {
		fill[g] = 0
	}
	for i, iv := range ivs {
		g := ivg[i]
		grouped[cnt[g]+fill[g]] = iv
		fill[g]++
	}
	rt.charge(int64(numGroups) * valueSize)
	out := make([]types.Value, numGroups)
	for g := 0; g < numGroups; g++ {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		if !saw[g] {
			out[g] = types.NewNull(elem)
			continue
		}
		run := grouped[cnt[g]:cnt[g+1]]
		// Typical runs are a handful of intervals (rows per group times
		// periods per element), already nearly sorted because each
		// element's own periods arrive in order — a direct insertion sort
		// beats the generic sort's dispatch there, with a fallback for
		// genuinely large groups.
		if len(run) <= 48 {
			for x := 1; x < len(run); x++ {
				iv := run[x]
				y := x
				for y > 0 && run[y-1].Lo > iv.Lo {
					run[y] = run[y-1]
					y--
				}
				run[y] = iv
			}
		} else {
			slices.SortFunc(run, func(a, b temporal.Interval) int {
				switch {
				case a.Lo < b.Lo:
					return -1
				case a.Lo > b.Lo:
					return 1
				default:
					return 0
				}
			})
		}
		// The element's own period slice escapes into the result row.
		rt.charge(int64(len(run)) * intervalSize)
		out[g] = types.NewUDT(elem, temporal.ElementOfIntervals(run))
	}
	return out, nil
}
