package exec

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"tip/internal/blade"
	"tip/internal/sql/ast"
)

// Compound selects: UNION [ALL], EXCEPT and INTERSECT chains, applied
// left-associatively with SQL set semantics (duplicates eliminated
// except under UNION ALL). Each output column has the operands' common
// type (see unify), and an operand's rows are lifted to it before they
// combine. The trailing ORDER BY may reference output columns by name or
// position; LIMIT/OFFSET apply to the combination.

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

	// ORDER BY binds against the leftmost operand's output columns.
	type orderSpec struct {
		idx  int
		desc bool
	}
	var orders []orderSpec
	for _, o := range sel.OrderBy {
		spec := orderSpec{idx: -1, desc: o.Desc}
		switch n := o.Expr.(type) {
		case *ast.IntLit:
			if n.V < 1 || int(n.V) > len(left.outSchema) {
				return nil, fmt.Errorf("exec: ORDER BY position %d out of range", n.V)
			}
			spec.idx = int(n.V) - 1
		case *ast.ColumnRef:
			if n.Table == "" {
				if pos, err := outSchema.Resolve("", n.Column); err == nil {
					spec.idx = pos
				}
			}
		}
		if spec.idx < 0 {
			return nil, fmt.Errorf("exec: compound ORDER BY must name an output column or position")
		}
		orders = append(orders, spec)
	}
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

	cols, colTypes := outSchema.columns()
	run := func(rt *runtime) (*Result, error) {
		var rows []Row
		for _, p := range parts {
			var pStart time.Time
			if p.st != nil {
				pStart = time.Now()
			}
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
			if p.st != nil {
				p.st.record(pStart, len(rows))
			}
		}
		// Bounded top-K over the combined rows: the set-operation parts
		// are materialised either way, but a small LIMIT still skips the
		// full sort and bounds the surviving buffer.
		sorted := false
		if len(orders) > 0 && limitC != nil {
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
				tk := newTopK(rt, k, func(a, b *topkEntry) (int, error) {
					for _, o := range orders {
						cmp, err := orderCompare(rt, a.row[o.idx], b.row[o.idx])
						if err != nil {
							return 0, err
						}
						if o.desc {
							cmp = -cmp
						}
						if cmp != 0 {
							return cmp, nil
						}
					}
					return 0, nil
				})
				if rt.env.PlanChoice != nil {
					rt.env.PlanChoice("sort.topk")
				}
				for _, r := range rows {
					if err := rt.checkCancel(); err != nil {
						return nil, err
					}
					if err := tk.offer(r, nil); err != nil {
						return nil, err
					}
				}
				ents, err := tk.finish()
				if err != nil {
					return nil, err
				}
				rows = rows[:0]
				for i := range ents {
					rows = append(rows, ents[i].row)
				}
				sorted = true
			}
		}
		if len(orders) > 0 && !sorted {
			var sortErr error
			sort.SliceStable(rows, func(i, j int) bool {
				if sortErr != nil {
					return false
				}
				if err := rt.checkCancel(); err != nil {
					sortErr = err
					return false
				}
				for _, o := range orders {
					cmp, err := orderCompare(rt, rows[i][o.idx], rows[j][o.idx])
					if err != nil {
						sortErr = err
						return false
					}
					if o.desc {
						cmp = -cmp
					}
					if cmp != 0 {
						return cmp < 0
					}
				}
				return false
			})
			if sortErr != nil {
				return nil, sortErr
			}
		}
		lo, hi := 0, len(rows)
		if offsetC != nil {
			n, err := evalCount(rt, offsetC, "OFFSET")
			if err != nil {
				return nil, err
			}
			if n > hi {
				n = hi
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
		return &Result{Cols: cols, Types: colTypes, Rows: rows[lo:hi]}, nil
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

// dedup removes duplicate rows by key, preserving first occurrence. Key
// bytes build into the runtime's reused buffer; only first occurrences
// allocate their map key string.
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
