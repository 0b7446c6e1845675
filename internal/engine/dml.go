package engine

import (
	"fmt"
	"strings"

	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/txn"
	"tip/internal/types"
)

// DML execution: INSERT, UPDATE, DELETE with NOT NULL enforcement,
// implicit assignment casts, index maintenance and undo logging.
//
// Each statement opens a TableWriter over the table's latest version
// (the pinned snapshot of a written table is the latest version, since
// the snapshot is captured after the write lock is held), applies every
// row change to the writer, and publishes atomically with Commit. Any
// error discards the writer, so readers never observe a partial
// statement and failed statements leave no trace. Undo entries are
// buffered and flushed to the open transaction only after Commit — a
// discarded writer must not leave undo entries addressing rows that
// were never published.

func (s *Session) insert(st *ast.Insert, params map[string]types.Value) (*exec.Result, error) {
	tbl, ok := s.db.tables[strings.ToLower(st.Table)]
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
	// completion (or discards wholesale), so cancellation can never
	// leave a partial insert.
	if err := env.CancelErr(); err != nil {
		return nil, err
	}
	now := s.Now()
	ctx := env.Ctx()
	w := s.beginWrite(tbl)
	var undo []txn.Entry
	for _, in := range incoming {
		if len(in) != len(cols) {
			w.Discard()
			return nil, fmt.Errorf("engine: INSERT has %d values for %d columns", len(in), len(cols))
		}
		row := make(exec.Row, len(tbl.Meta.Columns))
		for i, col := range tbl.Meta.Columns {
			row[i] = types.NewNull(col.Type)
		}
		for i, pos := range cols {
			cv, err := s.db.reg.ImplicitConvert(ctx, in[i], tbl.Meta.Columns[pos].Type)
			if err != nil {
				w.Discard()
				return nil, fmt.Errorf("engine: column %s: %w", tbl.Meta.Columns[pos].Name, err)
			}
			row[pos] = cv
		}
		for i, col := range tbl.Meta.Columns {
			if col.NotNull && row[i].Null {
				w.Discard()
				return nil, fmt.Errorf("engine: column %s is NOT NULL", col.Name)
			}
		}
		id := w.Insert(row)
		if err := w.IndexRow(id, row, now); err != nil {
			w.Discard()
			return nil, err
		}
		undo = append(undo, txn.Entry{Op: txn.OpInsert, Table: tbl.Meta.Name, RowID: id})
	}
	w.Commit()
	s.logUndo(undo)
	return &exec.Result{Affected: len(incoming)}, nil
}

func (s *Session) update(st *ast.Update, params map[string]types.Value) (*exec.Result, error) {
	tbl, ok := s.db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	env := s.env(params)
	schema := exec.TableSchema(tbl)
	var where exec.RowExpr
	var err error
	if st.Where != nil {
		if where, err = exec.CompileRowExpr(env, schema, st.Where); err != nil {
			return nil, err
		}
	}
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
		ce, err := exec.CompileRowExpr(env, schema, a.Value)
		if err != nil {
			return nil, err
		}
		setters[i] = setter{pos: pos, e: ce}
	}

	ids, err := s.matchingRows(tbl, env, where)
	if err != nil {
		return nil, err
	}
	// Last cancel point: the WHERE scan above polls the token per row;
	// once the writer opens, the update commits or discards wholesale.
	if err := env.CancelErr(); err != nil {
		return nil, err
	}
	now := s.Now()
	ctx := env.Ctx()
	w := s.beginWrite(tbl)
	var undo []txn.Entry
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
				w.Discard()
				return nil, err
			}
			cv, err := s.db.reg.ImplicitConvert(ctx, v, tbl.Meta.Columns[set.pos].Type)
			if err != nil {
				w.Discard()
				return nil, fmt.Errorf("engine: column %s: %w", tbl.Meta.Columns[set.pos].Name, err)
			}
			if tbl.Meta.Columns[set.pos].NotNull && cv.Null {
				w.Discard()
				return nil, fmt.Errorf("engine: column %s is NOT NULL", tbl.Meta.Columns[set.pos].Name)
			}
			row[set.pos] = cv
		}
		w.UnindexRow(id, old, now)
		if _, err := w.Update(id, row); err != nil {
			w.Discard()
			return nil, err
		}
		if err := w.IndexRow(id, row, now); err != nil {
			w.Discard()
			return nil, err
		}
		undo = append(undo, txn.Entry{Op: txn.OpUpdate, Table: tbl.Meta.Name, RowID: id, Old: old})
	}
	w.Commit()
	s.logUndo(undo)
	return &exec.Result{Affected: len(ids)}, nil
}

func (s *Session) deleteRows(st *ast.Delete, params map[string]types.Value) (*exec.Result, error) {
	tbl, ok := s.db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	env := s.env(params)
	var where exec.RowExpr
	var err error
	if st.Where != nil {
		if where, err = exec.CompileRowExpr(env, exec.TableSchema(tbl), st.Where); err != nil {
			return nil, err
		}
	}
	ids, err := s.matchingRows(tbl, env, where)
	if err != nil {
		return nil, err
	}
	// Last cancel point before the writer opens (see update).
	if err := env.CancelErr(); err != nil {
		return nil, err
	}
	now := s.Now()
	w := s.beginWrite(tbl)
	var undo []txn.Entry
	for _, id := range ids {
		old, err := w.Delete(id)
		if err != nil {
			w.Discard()
			return nil, err
		}
		w.UnindexRow(id, old, now)
		undo = append(undo, txn.Entry{Op: txn.OpDelete, Table: tbl.Meta.Name, RowID: id, Old: old})
	}
	w.Commit()
	s.logUndo(undo)
	return &exec.Result{Affected: len(ids)}, nil
}

// logUndo flushes a committed statement's buffered undo entries to the
// open transaction, if any.
func (s *Session) logUndo(undo []txn.Entry) {
	if s.tx == nil {
		return
	}
	for _, e := range undo {
		s.tx.Log(e)
	}
}

// matchingRows collects the ids of rows satisfying the (optional) WHERE
// predicate against the statement's pinned snapshot, before any
// mutation begins. For a written table the pinned snapshot is the
// latest version (captured under the write lock), so the id set is
// exact.
func (s *Session) matchingRows(tbl *exec.Table, env *exec.Env, where exec.RowExpr) ([]int, error) {
	var ids []int
	var scanErr error
	var ticks uint32
	s.snaps[strings.ToLower(tbl.Meta.Name)].Rows.Scan(func(id int, r exec.Row) bool {
		if ticks++; ticks&(exec.BatchRows-1) == 0 {
			if scanErr = env.CancelErr(); scanErr != nil {
				return false
			}
		}
		if where != nil {
			v, err := where(env, r)
			if err != nil {
				scanErr = err
				return false
			}
			keep, isNull, err := exec.Truth(v)
			if err != nil {
				scanErr = err
				return false
			}
			if isNull || !keep {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	return ids, scanErr
}
