package engine

import (
	"fmt"
	"strings"

	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// DML execution: INSERT, UPDATE, DELETE with NOT NULL enforcement,
// implicit assignment casts, index maintenance and effect recording.
//
// Each statement opens a TableWriter over the version it pinned of its
// table (its latest one, under the table's lock, or its transaction's
// own), applies every row change to the writer, and ends it with
// endWrite, which hands the new version to the commit step or keeps it
// in the transaction. Any error drops the writer, so readers never
// observe a partial statement and failed statements leave no trace. On
// a durable database each row change is also recorded in the
// statement's group (s.fx).
//
// UPDATE and DELETE find their rows as a single-table SELECT does
// (exec.MatchingRows), every id before the writer opens, so a row the
// statement writes is never visited again.

func (s *Session) insert(st *ast.Insert, params map[string]types.Value) (*exec.Result, error) {
	key := strings.ToLower(st.Table)
	tbl, v, ok := s.Table(key)
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	// Map the column list to positions (nil list means all columns in
	// table order).
	cols := make([]int, 0, len(tbl.Meta.Columns))
	if st.Columns == nil {
		for i := range tbl.Meta.Columns {
			cols = append(cols, i)
		}
	} else {
		for _, name := range st.Columns {
			pos, ok := tbl.Meta.ColumnIndex(name)
			if !ok {
				return nil, fmt.Errorf("engine: no column %s in table %s", name, st.Table)
			}
			cols = append(cols, pos)
		}
	}

	env := s.env(params)
	var incoming []exec.Row
	if st.Query != nil {
		res, err := exec.Run(env, st.Query)
		if err != nil {
			return nil, err
		}
		incoming = res.Rows
	} else {
		for _, rowExprs := range st.Rows {
			row := make(exec.Row, len(rowExprs))
			for i, e := range rowExprs {
				v, err := exec.EvalConst(env, e)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			incoming = append(incoming, row)
		}
	}

	// Last cancel point: once the writer opens, the statement runs to
	// completion (or is dropped wholesale), so cancellation can never
	// leave a partial insert.
	if err := env.CancelErr(); err != nil {
		return nil, err
	}
	now := s.Now()
	ctx := env.Ctx()
	w := v.NewWriter()
	for _, in := range incoming {
		if len(in) != len(cols) {
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(in), len(cols))
		}
		row := make(exec.Row, len(tbl.Meta.Columns))
		for i, col := range tbl.Meta.Columns {
			row[i] = types.NewNull(col.Type)
		}
		for i, pos := range cols {
			cv, err := s.db.reg.ImplicitConvert(ctx, in[i], tbl.Meta.Columns[pos].Type)
			if err != nil {
				return nil, fmt.Errorf("engine: column %s: %w", tbl.Meta.Columns[pos].Name, err)
			}
			row[pos] = cv
		}
		for i, col := range tbl.Meta.Columns {
			if col.NotNull && row[i].Null {
				return nil, fmt.Errorf("engine: column %s is NOT NULL", col.Name)
			}
		}
		id := w.Insert(row)
		if err := w.IndexRow(id, row, now); err != nil {
			return nil, err
		}
		if s.fx != nil {
			*s.fx = appendPut(*s.fx, tbl.Meta.Name, id, row)
		}
	}
	if err := s.endWrite(key, tbl, w); err != nil {
		return nil, err
	}
	return &exec.Result{Affected: len(incoming)}, nil
}

func (s *Session) update(st *ast.Update, params map[string]types.Value) (*exec.Result, error) {
	key := strings.ToLower(st.Table)
	tbl, v, ok := s.Table(key)
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	env := s.env(params)
	type setter struct {
		pos int
		e   exec.RowExpr
	}
	setters := make([]setter, len(st.Set))
	for i, a := range st.Set {
		pos, ok := tbl.Meta.ColumnIndex(a.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no column %s in table %s", a.Column, st.Table)
		}
		ce, err := exec.CompileRowExpr(env, st.Table, a.Value)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{pos: pos, e: ce}
	}

	// Last cancel point: once the writer opens, the update commits or is
	// dropped wholesale.
	ids, err := exec.MatchingRows(env, st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	now := s.Now()
	ctx := env.Ctx()
	w := v.NewWriter()
	for _, id := range ids {
		old, ok := w.Get(id)
		if !ok {
			continue
		}
		row := make(exec.Row, len(old))
		copy(row, old)
		for _, set := range setters {
			v, err := set.e(env, old)
			if err != nil {
				return nil, err
			}
			cv, err := s.db.reg.ImplicitConvert(ctx, v, tbl.Meta.Columns[set.pos].Type)
			if err != nil {
				return nil, fmt.Errorf("engine: column %s: %w", tbl.Meta.Columns[set.pos].Name, err)
			}
			if tbl.Meta.Columns[set.pos].NotNull && cv.Null {
				return nil, fmt.Errorf("engine: column %s is NOT NULL", tbl.Meta.Columns[set.pos].Name)
			}
			row[set.pos] = cv
		}
		w.UnindexRow(id, old, now)
		if _, err := w.Update(id, row); err != nil {
			return nil, err
		}
		if err := w.IndexRow(id, row, now); err != nil {
			return nil, err
		}
		if s.fx != nil {
			*s.fx = appendPut(*s.fx, tbl.Meta.Name, id, row)
		}
	}
	if err := s.endWrite(key, tbl, w); err != nil {
		return nil, err
	}
	return &exec.Result{Affected: len(ids)}, nil
}

func (s *Session) deleteRows(st *ast.Delete, params map[string]types.Value) (*exec.Result, error) {
	key := strings.ToLower(st.Table)
	tbl, v, ok := s.Table(key)
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	env := s.env(params)
	ids, err := exec.MatchingRows(env, st.Table, st.Where) // the last cancel point
	if err != nil {
		return nil, err
	}
	now := s.Now()
	w := v.NewWriter()
	for _, id := range ids {
		old, err := w.Delete(id)
		if err != nil {
			return nil, err
		}
		w.UnindexRow(id, old, now)
		if s.fx != nil {
			*s.fx = appendDelete(*s.fx, tbl.Meta.Name, id)
		}
	}
	if err := s.endWrite(key, tbl, w); err != nil {
		return nil, err
	}
	return &exec.Result{Affected: len(ids)}, nil
}
