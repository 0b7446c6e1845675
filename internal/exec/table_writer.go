package exec

import (
	"fmt"
	"slices"

	"tip/internal/index"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// TableWriter builds the next version of a table: a copy-on-write slab
// builder for the rows plus a copy-on-write builder for each index, so a
// statement either yields a whole new version (Commit) or, dropped,
// leaves no trace. The caller holds the table's write lock for the
// writer's lifetime and publishes the version or keeps it private to a
// transaction.
type TableWriter struct {
	storage.Builder // the rows: Get, Insert, Put, Delete, Update
	base            *TableVersion
	cols            []columnBuilder // by column position; nil until an index changes
}

// columnBuilder builds the next versions of one column's indexes.
type columnBuilder struct {
	hash   index.HashBuilder
	period index.PeriodBuilder
}

// NewWriter starts a writer over version v. Its row builder takes the
// sequence after v's as both its sequence and its horizon, so a slot an
// earlier version freed is reused at once: a reader fetches rows and
// index entries from the version it pinned, so a reused slot never
// shows it a wrong row.
func (v *TableVersion) NewWriter() *TableWriter {
	seq := v.Rows.Seq() + 1
	return &TableWriter{Builder: *v.Rows.NewBuilder(seq, seq), base: v}
}

// builders returns the index builders, starting them on first use.
func (w *TableWriter) builders() []columnBuilder {
	if w.cols == nil {
		w.cols = make([]columnBuilder, len(w.base.Indexes))
		for pos, ci := range w.base.Indexes {
			w.cols[pos].hash = index.NewHashBuilder(ci.Hash)
			if ci.Period != nil {
				w.cols[pos].period = *index.NewPeriodBuilder(ci.Period)
			}
		}
	}
	return w.cols
}

// IndexRow adds a row to every index of the table. Hash keys are
// formatted at now, matching lookup-side key formatting.
func (w *TableWriter) IndexRow(id int, row Row, now temporal.Chronon) error {
	for pos, ci := range w.base.Indexes {
		if ci.Hash != nil && !row[pos].Null {
			w.builders()[pos].hash.Add(row[pos].Key(now), id)
		}
		if ci.Period != nil {
			if err := AddPeriodEntries(&w.builders()[pos].period, row[pos], id); err != nil {
				return err
			}
		}
	}
	return nil
}

// UnindexRow removes a row from every index of the table.
func (w *TableWriter) UnindexRow(id int, row Row, now temporal.Chronon) {
	for pos, ci := range w.base.Indexes {
		if ci.Hash != nil && !row[pos].Null {
			w.builders()[pos].hash.Remove(row[pos].Key(now), id)
		}
		if ci.Period != nil {
			w.builders()[pos].period.Remove(id)
		}
	}
}

// Commit returns the writer's state as the table's next version. The
// writer must not be used afterwards.
func (w *TableWriter) Commit() *TableVersion {
	nv := &TableVersion{Rows: w.Builder.Commit(), Indexes: w.base.Indexes}
	if w.cols != nil {
		nv.Indexes = slices.Clone(w.base.Indexes)
		for pos := range nv.Indexes {
			ci, b := &nv.Indexes[pos], &w.cols[pos]
			if ci.Hash != nil {
				ci.Hash = b.hash.Commit()
			}
			if ci.Period != nil {
				ci.Period = b.period.Commit()
			}
		}
	}
	return nv
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
