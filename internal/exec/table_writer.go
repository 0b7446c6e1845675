package exec

import (
	"fmt"

	"tip/internal/index"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// TableWriter builds the next version of a table: a copy-on-write slab
// builder for the rows plus the matching index maintenance, all staged
// so a statement either publishes atomically (Commit) or leaves no
// trace (Discard). The caller must hold the table's write lock for the
// writer's whole lifetime; exactly one of Commit or Discard must end
// it.
//
// Hash index changes are the one part that touches shared state before
// Commit: postings are added/killed in the shared cores stamped with
// this writer's unpublished sequence, which no reader snapshot can see
// yet. Discard physically reverts them from a journal. Row and period
// index changes are builder-local until Commit.
type TableWriter struct {
	t       *Table
	base    *TableVersion
	seq     uint64
	horizon uint64
	rows    *storage.Builder
	periods map[int]*index.PeriodBuilder
	hashOps []hashOp
	done    bool
}

type hashOp struct {
	add bool
	col int
	key string
	id  int
}

// BeginWrite starts a writer over the table's latest version with the
// given version-clock sequence and horizon (the oldest sequence any
// open transaction or pinned statement snapshot could read at). The
// horizon must be below seq: Discard can only revert postings the
// writer's own index maintenance has not reclaimed.
func (t *Table) BeginWrite(seq, horizon uint64) *TableWriter {
	base := t.Snapshot()
	return &TableWriter{
		t:       t,
		base:    base,
		seq:     seq,
		horizon: horizon,
		rows:    base.Rows.NewBuilder(seq, horizon),
		periods: make(map[int]*index.PeriodBuilder),
	}
}

// Base returns the version this writer builds on.
func (w *TableWriter) Base() *TableVersion { return w.base }

// Seq returns the writer's version-clock sequence.
func (w *TableWriter) Seq() uint64 { return w.seq }

// Get returns a row of the writer's working state.
func (w *TableWriter) Get(id int) (storage.Row, bool) { return w.rows.Get(id) }

// Insert stores a row, returning its id.
func (w *TableWriter) Insert(r storage.Row) int { return w.rows.Insert(r) }

// InsertAt revives a tombstoned slot (rollback's undo of a delete).
func (w *TableWriter) InsertAt(id int, r storage.Row) error { return w.rows.InsertAt(id, r) }

// Delete tombstones a row, returning its former content.
func (w *TableWriter) Delete(id int) (storage.Row, error) { return w.rows.Delete(id) }

// Update replaces a row's content, returning the former content.
func (w *TableWriter) Update(id int, r storage.Row) (storage.Row, error) {
	return w.rows.Update(id, r)
}

func (w *TableWriter) periodBuilder(pos int) *index.PeriodBuilder {
	b, ok := w.periods[pos]
	if !ok {
		b = index.NewPeriodBuilder(w.base.Periods[pos])
		w.periods[pos] = b
	}
	return b
}

// IndexRow adds a row to every index of the table. Hash keys are
// formatted at now, matching lookup-side key formatting.
func (w *TableWriter) IndexRow(id int, row Row, now temporal.Chronon) error {
	for pos, ix := range w.base.Hash {
		if !row[pos].Null {
			key := row[pos].Key(now)
			ix.Add(key, id, w.seq, w.horizon)
			w.hashOps = append(w.hashOps, hashOp{add: true, col: pos, key: key, id: id})
		}
	}
	for pos := range w.base.Periods {
		if err := AddPeriodEntries(w.periodBuilder(pos), row[pos], id); err != nil {
			return err
		}
	}
	return nil
}

// UnindexRow removes a row from every index of the table.
func (w *TableWriter) UnindexRow(id int, row Row, now temporal.Chronon) {
	for pos, ix := range w.base.Hash {
		if !row[pos].Null {
			key := row[pos].Key(now)
			ix.Remove(key, id, w.seq, w.horizon)
			w.hashOps = append(w.hashOps, hashOp{add: false, col: pos, key: key, id: id})
		}
	}
	for pos := range w.base.Periods {
		w.periodBuilder(pos).Remove(id)
	}
}

// Commit publishes the writer's state as the table's latest version.
func (w *TableWriter) Commit() {
	if w.done {
		return
	}
	w.done = true
	nv := &TableVersion{
		Seq:     w.seq,
		Rows:    w.rows.Commit(),
		Hash:    w.base.Hash,
		Periods: w.base.Periods,
	}
	if len(w.periods) > 0 {
		nv.Periods = make(map[int]*index.Period, len(w.base.Periods))
		for pos, ix := range w.base.Periods {
			nv.Periods[pos] = ix
		}
		for pos, b := range w.periods {
			nv.Periods[pos] = b.Commit()
		}
	}
	w.t.Install(nv)
}

// Discard abandons the writer: the staged hash-index postings are
// physically reverted (newest first); everything else was never
// visible outside the writer.
func (w *TableWriter) Discard() {
	if w.done {
		return
	}
	w.done = true
	for i := len(w.hashOps) - 1; i >= 0; i-- {
		op := w.hashOps[i]
		ix := w.base.Hash[op.col]
		if op.add {
			ix.UndoAdd(op.key, op.id, w.seq)
		} else {
			ix.UndoRemove(op.key, op.id, w.seq)
		}
	}
}

// AddPeriodEntries indexes a temporal value's periods into a period
// index builder (shared by the DML path and bulk index builds).
func AddPeriodEntries(b *index.PeriodBuilder, v types.Value, id int) error {
	if v.Null {
		return nil
	}
	switch obj := v.Obj().(type) {
	case temporal.Element:
		b.AddElement(obj, id)
	case temporal.Period:
		b.AddPeriod(obj, id)
	case temporal.Chronon:
		b.AddPeriod(obj.Period(), id)
	case temporal.Instant:
		b.AddPeriod(temporal.Period{Start: obj, End: obj}, id)
	default:
		return fmt.Errorf("exec: PERIOD index cannot index %s values", v.T)
	}
	return nil
}
