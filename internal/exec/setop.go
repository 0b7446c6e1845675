package exec

import (
	"fmt"
	"slices"

	"tip/internal/blade"
	"tip/internal/sql/ast"
)

// Compound selects: UNION [ALL], EXCEPT and INTERSECT chains, applied
// left-associatively with SQL set semantics (duplicates eliminated
// except under UNION ALL). Each output column has the operands' common
// type (see unify), and an operand's rows are lifted to it before they
// combine. The trailing ORDER BY may reference output columns by name or
// position; it and LIMIT/OFFSET apply to the combination through the
// output tail every SELECT ends in (tail.go).

func (b *binder) bindCompound(sel *ast.Select, parent *bindScope) (*selectPlan, error) {
	core := *sel
	core.SetOps, core.OrderBy, core.Limit, core.Offset = nil, nil, nil, nil
	left, err := b.bindSelect(&core, parent)
	if err != nil {
		return nil, err
	}
	// parts[0] is the left operand; each later part combines with the
	// rows so far.
	type part struct {
		op   string
		all  bool
		plan *selectPlan
		lift func(rt *runtime, rows []Row) error
		st   *OpStats
	}
	outSchema := slices.Clone(left.outSchema)
	parts := []part{{plan: left}}
	for _, sp := range sel.SetOps {
		var st *OpStats
		if b.explain != nil {
			op := sp.Op
			if sp.All {
				op += " ALL"
			}
			st = b.note("set operation: %s", op)
		}
		plan, err := b.bindSelect(sp.Sel, parent)
		if err != nil {
			return nil, err
		}
		if len(plan.outSchema) != len(left.outSchema) {
			return nil, fmt.Errorf("exec: %s operands have %d and %d columns",
				sp.Op, len(left.outSchema), len(plan.outSchema))
		}
		for c := range outSchema {
			if outSchema[c].Type, err = b.unify(setColumn(outSchema, c), outSchema[c].Type, plan.outSchema[c].Type); err != nil {
				return nil, err
			}
		}
		parts = append(parts, part{op: sp.Op, all: sp.All, plan: plan, st: st})
	}
	for i := range parts {
		if parts[i].lift, err = b.liftRows(parts[i].plan.outSchema, outSchema); err != nil {
			return nil, err
		}
	}

	tail := b.newTail(sel, false)
	if err := tail.bind(b, sel, outSchema, nil, parent); err != nil {
		return nil, err
	}

	cols, colTypes := outSchema.columns()
	run := func(rt *runtime) (*Result, error) {
		var rows []Row
		for _, p := range parts {
			pStart := p.st.start()
			rres, err := p.plan.run(rt)
			if err != nil {
				return nil, err
			}
			if err := p.lift(rt, rres.Rows); err != nil {
				return nil, err
			}
			switch {
			case p.op == "":
				rows = rres.Rows
			case p.op == "UNION" && p.all:
				rt.charge(int64(len(rres.Rows)) * rowHeaderSize)
				rows = append(rows, rres.Rows...)
			case p.op == "UNION":
				rows, err = dedup(rt, append(rows, rres.Rows...))
			default: // EXCEPT keeps the rows the right side lacks, INTERSECT the others
				right := keySet(rt, rres.Rows)
				var kept, deduped []Row
				if deduped, err = dedup(rt, rows); err == nil {
					for _, r := range deduped {
						rt.keybuf = rt.appendKey(rt.keybuf[:0], r)
						if _, hit := right[string(rt.keybuf)]; hit == (p.op == "INTERSECT") {
							kept = append(kept, r)
						}
					}
					rows = kept
				}
			}
			if err != nil {
				return nil, err
			}
			p.st.record(pStart, len(rows))
		}
		rows, err := tail.run(rt, rows)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: cols, Types: colTypes, Rows: rows}, nil
	}
	return &selectPlan{outSchema: outSchema, run: run}, nil
}

func setColumn(schema Schema, c int) string {
	return fmt.Sprintf("set operation column %d (%s)", c+1, schema[c].Name)
}

// liftRows returns the in-place conversion of an operand's rows from its
// column types to the compound's, each column through its own memo.
// Operand rows are fresh projection rows, so writing them is safe.
func (b *binder) liftRows(from, to Schema) (func(rt *runtime, rows []Row) error, error) {
	casts := make([]*blade.Cast, len(from))
	memos := make([]blade.CastMemo, len(from))
	for c := range from {
		var ok bool
		if casts[c], ok = b.implicitCast(from[c].Type, to[c].Type); !ok {
			return nil, mixError(setColumn(to, c), from[c].Type, to[c].Type)
		}
	}
	return func(rt *runtime, rows []Row) error {
		for _, r := range rows {
			for c, cast := range casts {
				if cast == nil || r[c].Null {
					continue
				}
				v, err := memos[c].Apply(rt.env.Ctx(), cast, r[c])
				if err != nil {
					return err
				}
				r[c] = v
			}
		}
		return nil
	}, nil
}

// dedup removes duplicate rows by key, preserving first occurrence, for
// the set operations and SELECT DISTINCT alike. Key bytes build into the
// runtime's reused buffer; only first occurrences allocate their map key
// string.
func dedup(rt *runtime, rows []Row) ([]Row, error) {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		rt.keybuf = rt.appendKey(rt.keybuf[:0], r)
		if _, dup := seen[string(rt.keybuf)]; dup {
			continue
		}
		seen[string(rt.keybuf)] = struct{}{}
		rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead + rowHeaderSize)
		out = append(out, r)
	}
	return out, nil
}

// keySet builds the key set of rows.
func keySet(rt *runtime, rows []Row) map[string]struct{} {
	set := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		rt.keybuf = rt.appendKey(rt.keybuf[:0], r)
		if _, dup := set[string(rt.keybuf)]; !dup {
			rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead)
			set[string(rt.keybuf)] = struct{}{}
		}
	}
	return set
}
