package exec

import (
	"fmt"
	"maps"

	"tip/internal/index"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// TableWriter builds the next version of a table: a copy-on-write slab
// builder for the rows plus the matching index maintenance, so a
// statement either yields a whole new version (Commit) or leaves no
// trace (Discard). The caller holds the table's write lock for the
// writer's lifetime and publishes the version or keeps it private to a
// transaction.
//
// Hash index changes are the one part that touches shared state before
// publication: postings are added/killed in the shared cores stamped
// with this writer's unpublished sequence, which no reader snapshot can
// see yet. Discard reverts them from a journal — also after Commit, for
// a transaction's ROLLBACK. Row and period index changes are
// builder-local.
type TableWriter struct {
	*storage.Builder // the rows: Get, Insert, Put, Delete, Update
	base             *TableVersion
	seq              uint64
	horizon          uint64
	periods          map[int]*index.PeriodBuilder
	hashOps          []hashOp
}

type hashOp struct {
	add bool
	col int
	key string
	id  int
}

// NewWriter starts a writer over version v with the given version-clock
// sequence and horizon (the oldest sequence a pinned statement snapshot
// or an unpublished posting could still need). The horizon must be
// below seq: Discard can only revert postings the writer's own index
// maintenance has not reclaimed.
func (v *TableVersion) NewWriter(seq, horizon uint64) *TableWriter {
	return &TableWriter{
		Builder: v.Rows.NewBuilder(seq, horizon),
		base:    v,
		seq:     seq,
		horizon: horizon,
		periods: make(map[int]*index.PeriodBuilder),
	}
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

// Commit returns the writer's state as the table's next version. The
// writer keeps only its posting journal afterwards.
func (w *TableWriter) Commit() *TableVersion {
	nv := &TableVersion{
		Seq:     w.seq,
		Rows:    w.Builder.Commit(),
		Hash:    w.base.Hash,
		Periods: w.base.Periods,
	}
	if len(w.periods) > 0 {
		nv.Periods = maps.Clone(w.base.Periods)
		for pos, b := range w.periods {
			nv.Periods[pos] = b.Commit()
		}
	}
	w.Builder, w.periods = nil, nil
	return nv
}

// Discard reverts the writer's hash-index postings, newest first;
// everything else never left the writer. It may follow Commit, as long
// as the committed version was never published, and runs once.
func (w *TableWriter) Discard() {
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
