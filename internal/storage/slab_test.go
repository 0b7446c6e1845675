package storage

import (
	"testing"

	"tip/internal/types"
)

func row(vals ...int64) Row {
	r := make(Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

// commit1 runs one single-statement "writer" against the latest
// version: seq advances by one and, with no open transactions, the
// horizon equals the new seq.
func commit1(v *Version, f func(b *Builder)) *Version {
	seq := v.Seq() + 1
	b := v.NewBuilder(seq, seq)
	f(b)
	return b.Commit()
}

func TestSlabInsertGetDelete(t *testing.T) {
	var id1, id2 int
	v := commit1(NewVersion(), func(b *Builder) {
		id1 = b.Insert(row(1))
		id2 = b.Insert(row(2))
	})
	if v.Len() != 2 {
		t.Fatalf("len = %d", v.Len())
	}
	r, ok := v.Get(id1)
	if !ok || r[0].Int() != 1 {
		t.Error("Get after insert")
	}
	v = commit1(v, func(b *Builder) {
		old, err := b.Delete(id1)
		if err != nil || old[0].Int() != 1 {
			t.Errorf("Delete = %v, %v", old, err)
		}
		if _, err := b.Delete(id1); err == nil {
			t.Error("double delete should fail")
		}
	})
	if _, ok := v.Get(id1); ok {
		t.Error("Get after delete")
	}
	if v.Len() != 1 {
		t.Errorf("len after delete = %d", v.Len())
	}
	if r, ok := v.Get(id2); !ok || r[0].Int() != 2 {
		t.Error("sibling row disturbed")
	}
	if _, ok := v.Get(-1); ok {
		t.Error("negative id")
	}
	if _, ok := v.Get(99); ok {
		t.Error("out-of-range id")
	}
}

func TestSlabUpdate(t *testing.T) {
	var id int
	v := commit1(NewVersion(), func(b *Builder) {
		id = b.Insert(row(1))
	})
	v = commit1(v, func(b *Builder) {
		old, err := b.Update(id, row(10))
		if err != nil || old[0].Int() != 1 {
			t.Fatalf("Update = %v, %v", old, err)
		}
		if _, err := b.Update(99, row(1)); err == nil {
			t.Error("update of missing row should fail")
		}
	})
	r, _ := v.Get(id)
	if r[0].Int() != 10 {
		t.Error("update not applied")
	}
}

// TestSlabPut places rows at given ids the way replay does: over a
// live row, into a dead slot, and past the last slot, where the skipped
// slots become free and a later insert reuses them first.
func TestSlabPut(t *testing.T) {
	var id int
	v := commit1(NewVersion(), func(b *Builder) {
		id = b.Insert(row(1))
		if old, ok := b.Put(id, row(2)); !ok || old[0].Int() != 1 {
			t.Errorf("Put over a live row = %v, %v", old, ok)
		}
	})
	v = commit1(v, func(b *Builder) {
		if _, err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	})
	v = commit1(v, func(b *Builder) {
		if _, ok := b.Put(id, row(3)); ok {
			t.Error("Put into a dead slot reported a replaced row")
		}
		b.Put(chunkSize+2, row(4))
	})
	if r, ok := v.Get(id); !ok || r[0].Int() != 3 {
		t.Errorf("revived row = %v, %v", r, ok)
	}
	if r, ok := v.Get(chunkSize + 2); !ok || r[0].Int() != 4 {
		t.Errorf("row past the tail = %v, %v", r, ok)
	}
	if v.Len() != 2 || v.Capacity() != chunkSize+3 {
		t.Fatalf("len=%d cap=%d, want 2 and %d", v.Len(), v.Capacity(), chunkSize+3)
	}
	if _, ok := v.Get(1); ok {
		t.Error("a skipped slot is live")
	}
	v = commit1(v, func(b *Builder) {
		if got := b.Insert(row(5)); got != 1 {
			t.Errorf("insert after a gap took slot %d, want the first skipped slot 1", got)
		}
	})
}

func TestSlabScanOrderAndEarlyStop(t *testing.T) {
	v := commit1(NewVersion(), func(b *Builder) {
		for i := int64(0); i < 10; i++ {
			b.Insert(row(i))
		}
		if _, err := b.Delete(3); err != nil {
			t.Fatal(err)
		}
	})
	var seen []int64
	v.Scan(func(_ int, r Row) bool {
		seen = append(seen, r[0].Int())
		return len(seen) < 5
	})
	if len(seen) != 5 {
		t.Fatalf("early stop failed: %v", seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Error("scan out of id order")
		}
	}
	for _, x := range seen {
		if x == 3 {
			t.Error("deleted row visited")
		}
	}
}

// TestSlabChurnBounded is the regression test for the old
// Heap.Compact tombstone leak: a delete/insert churn loop must reuse
// slots once the horizon passes, keeping capacity bounded
// rather than growing one slot per churn round.
func TestSlabChurnBounded(t *testing.T) {
	v := commit1(NewVersion(), func(b *Builder) {
		for i := int64(0); i < 100; i++ {
			b.Insert(row(i))
		}
	})
	for round := 0; round < 1000; round++ {
		v = commit1(v, func(b *Builder) {
			var victim int = -1
			v.Scan(func(id int, _ Row) bool {
				victim = id
				return false
			})
			if _, err := b.Delete(victim); err != nil {
				t.Fatal(err)
			}
		})
		v = commit1(v, func(b *Builder) {
			b.Insert(row(int64(round)))
		})
	}
	if v.Len() != 100 {
		t.Fatalf("len after churn = %d", v.Len())
	}
	// Each round's tombstone is behind the horizon by the time the
	// next round inserts, so capacity may exceed the live count by at
	// most a round's worth of slack, not the 1000 rounds of churn.
	if v.Capacity() > 110 {
		t.Fatalf("capacity grew without bound: cap=%d live=%d", v.Capacity(), v.Len())
	}
}

// TestSlabHorizonBlocksReuse pins a horizon below the freeing sequence
// and checks the slot is not reused until the horizon passes it.
func TestSlabHorizonBlocksReuse(t *testing.T) {
	var id int
	v := commit1(NewVersion(), func(b *Builder) {
		id = b.Insert(row(1))
	})
	v = commit1(v, func(b *Builder) { // seq 2 frees the slot
		if _, err := b.Delete(id); err != nil {
			t.Fatal(err)
		}
	})
	// A reader pinned at seq 1 holds the horizon at 1: no reuse.
	b := v.NewBuilder(3, 1)
	if got := b.Insert(row(2)); got == id {
		t.Fatal("slot reused under a pinned horizon")
	}
	v2 := b.Commit()
	// With the reader gone the horizon passes the free stamp.
	b = v2.NewBuilder(4, 4)
	if got := b.Insert(row(3)); got != id {
		t.Fatalf("slot not reused after horizon passed: got %d want %d", got, id)
	}
}

// TestSlabStaleFreeEntry checks that a slot Put revives leaves the free
// list: replay places a row in a slot the live database reused, and no
// stale entry may later hand that live slot to another row, whether
// the entry sat at the head of the list or behind others.
func TestSlabStaleFreeEntry(t *testing.T) {
	v := commit1(NewVersion(), func(b *Builder) {
		for i := int64(0); i < 4; i++ {
			b.Insert(row(i))
		}
	})
	v = commit1(v, func(b *Builder) { // queues 0, 1, 2 in that order
		for id := 0; id < 3; id++ {
			if _, err := b.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	v = commit1(v, func(b *Builder) {
		b.Put(0, row(10)) // the head of the list
		b.Put(2, row(12)) // behind slot 1
	})
	v = commit1(v, func(b *Builder) {
		if got := b.Insert(row(11)); got != 1 {
			t.Errorf("first insert took slot %d, want the one free slot 1", got)
		}
		if got := b.Insert(row(14)); got != 4 {
			t.Errorf("second insert took slot %d, want a new slot 4", got)
		}
	})
	for id, want := range []int64{10, 11, 12, 3, 14} {
		if r, ok := v.Get(id); !ok || r[0].Int() != want {
			t.Errorf("slot %d = %v, %v; want %d", id, r, ok, want)
		}
	}
}

// TestSlabSnapshotImmutable checks a pinned version is untouched by
// every kind of successor mutation, including slot reuse and tail
// appends into the shared chunk.
func TestSlabSnapshotImmutable(t *testing.T) {
	v1 := commit1(NewVersion(), func(b *Builder) {
		for i := int64(0); i < 10; i++ {
			b.Insert(row(i))
		}
	})
	v := commit1(v1, func(b *Builder) {
		if _, err := b.Delete(2); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Update(3, row(300)); err != nil {
			t.Fatal(err)
		}
		b.Insert(row(100)) // tail append into the shared chunk
	})
	v = commit1(v, func(b *Builder) {
		b.Insert(row(200)) // reuses slot 2
	})
	if got, _ := v.Get(3); got[0].Int() != 300 {
		t.Error("successor missing update")
	}
	if v.Len() != 11 {
		t.Errorf("successor len = %d", v.Len())
	}
	if v.Capacity() != 11 {
		t.Errorf("successor capacity = %d (freed slot not reused)", v.Capacity())
	}
	// The pinned snapshot still sees the original world.
	if v1.Len() != 10 || v1.Capacity() != 10 {
		t.Fatalf("snapshot counts changed: len=%d cap=%d", v1.Len(), v1.Capacity())
	}
	for i := int64(0); i < 10; i++ {
		r, ok := v1.Get(int(i))
		if !ok || r[0].Int() != i {
			t.Fatalf("snapshot row %d = %v, %v", i, r, ok)
		}
	}
	if _, ok := v1.Get(10); ok {
		t.Error("snapshot sees successor's tail append")
	}
	var n int
	v1.Scan(func(_ int, _ Row) bool { n++; return true })
	if n != 10 {
		t.Errorf("snapshot scan visited %d rows", n)
	}
}

// TestSlabDiscard drops a builder without committing and checks the
// base version is unaffected even after in-place tail appends.
func TestSlabDiscard(t *testing.T) {
	v := commit1(NewVersion(), func(b *Builder) {
		b.Insert(row(1))
	})
	b := v.NewBuilder(2, 2)
	b.Insert(row(2))
	if _, err := b.Delete(0); err != nil {
		t.Fatal(err)
	}
	// Discard: builder dropped without Commit.
	if v.Len() != 1 || v.Capacity() != 1 {
		t.Fatalf("base changed after discard: len=%d cap=%d", v.Len(), v.Capacity())
	}
	if r, ok := v.Get(0); !ok || r[0].Int() != 1 {
		t.Error("base row changed after discard")
	}
	// A fresh builder over the same base works normally.
	v2 := commit1(v, func(b *Builder) {
		b.Insert(row(3))
	})
	if r, ok := v2.Get(1); !ok || r[0].Int() != 3 {
		t.Error("post-discard insert wrong")
	}
}

func TestSlabChunkBoundary(t *testing.T) {
	const n = chunkSize*2 + 7
	v := commit1(NewVersion(), func(b *Builder) {
		for i := int64(0); i < n; i++ {
			b.Insert(row(i))
		}
	})
	if v.Len() != n || v.Capacity() != n {
		t.Fatalf("len=%d cap=%d", v.Len(), v.Capacity())
	}
	for _, id := range []int{0, chunkSize - 1, chunkSize, 2*chunkSize - 1, 2 * chunkSize, n - 1} {
		r, ok := v.Get(id)
		if !ok || r[0].Int() != int64(id) {
			t.Fatalf("row %d = %v, %v", id, r, ok)
		}
	}
	var count int
	v.Scan(func(id int, r Row) bool {
		if r[0].Int() != int64(id) {
			t.Fatalf("scan row %d = %d", id, r[0].Int())
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d", count)
	}
}
