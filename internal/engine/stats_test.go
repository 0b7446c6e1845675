package engine_test

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEngineStatementMetrics(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, s, `SELECT * FROM t`)
	mustExec(t, s, `SELECT * FROM t`)
	mustExec(t, s, `UPDATE t SET a = a + 1 WHERE a = 1`)
	mustExec(t, s, `DELETE FROM t WHERE a = 4`)
	if _, err := s.Exec(`SELECT nope FROM t`, nil); err == nil {
		t.Fatal("bad query should fail")
	}

	snap := db.Metrics().Snapshot()
	get := func(name string) float64 {
		t.Helper()
		v, ok := snap.Get(name)
		if !ok {
			t.Fatalf("metric %s missing from snapshot:\n%s", name, snap.Text())
		}
		return v
	}
	if get("stmt.select") != 3 { // 2 good + 1 failing select
		t.Errorf("stmt.select = %v, want 3", get("stmt.select"))
	}
	if get("stmt.insert") != 1 || get("stmt.update") != 1 || get("stmt.delete") != 1 {
		t.Errorf("DML counters wrong: insert=%v update=%v delete=%v",
			get("stmt.insert"), get("stmt.update"), get("stmt.delete"))
	}
	if get("stmt.ddl") != 1 {
		t.Errorf("stmt.ddl = %v, want 1", get("stmt.ddl"))
	}
	if get("stmt.errors") != 1 {
		t.Errorf("stmt.errors = %v, want 1", get("stmt.errors"))
	}
	if get("rows.read") != 6 { // two selects over three rows
		t.Errorf("rows.read = %v, want 6", get("rows.read"))
	}
	if get("rows.written") != 4 { // 3 inserted + 1 updated + 0 deleted
		t.Errorf("rows.written = %v, want 4", get("rows.written"))
	}
	if get("table.t.reads") != 3 || get("table.t.writes") != 3 {
		t.Errorf("table ops wrong: reads=%v writes=%v",
			get("table.t.reads"), get("table.t.writes"))
	}
}

func TestPlanCacheMetrics(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `SELECT * FROM t`)        // miss
	mustExec(t, s, `SELECT * FROM t`)        // hit
	mustExec(t, s, `SELECT * FROM t`)        // hit
	mustExec(t, s, `CREATE TABLE u (b INT)`) // DDL bumps generation
	mustExec(t, s, `SELECT * FROM t`)        // stale entry evicted, miss

	snap := db.Metrics().Snapshot()
	hits, _ := snap.Get("plancache.hits")
	misses, _ := snap.Get("plancache.misses")
	evict, _ := snap.Get("plancache.evictions")
	rate, _ := snap.Get("plancache.hit_rate")
	if hits != 2 {
		t.Errorf("plancache.hits = %v, want 2", hits)
	}
	if evict != 1 {
		t.Errorf("plancache.evictions = %v, want 1", evict)
	}
	if misses == 0 {
		t.Error("plancache.misses should be nonzero")
	}
	if want := hits / (hits + misses); rate != want {
		t.Errorf("plancache.hit_rate = %v, want %v", rate, want)
	}
}

func TestWALMetrics(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	snap := db.Metrics().Snapshot()
	appends, _ := snap.Get("wal.appends")
	bytes, _ := snap.Get("wal.bytes")
	if appends != 3 {
		t.Errorf("wal.appends = %v, want 3", appends)
	}
	if bytes <= 0 {
		t.Errorf("wal.bytes = %v, want > 0", bytes)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	var mu sync.Mutex
	var logged []string
	db.SetSlowQueryLog(1*time.Nanosecond, func(msg string) {
		mu.Lock()
		logged = append(logged, msg)
		mu.Unlock()
	})
	// Any statement takes longer than 1ns, so this must be logged even
	// though it would not be sampled.
	mustExec(t, s, `INSERT INTO t VALUES (42)`)
	mu.Lock()
	n := len(logged)
	var first string
	if n > 0 {
		first = logged[0]
	}
	mu.Unlock()
	if n == 0 {
		t.Fatal("slow query was not logged")
	}
	if !strings.Contains(first, "INSERT INTO t VALUES (42)") {
		t.Errorf("log line missing statement text: %q", first)
	}
	for _, phase := range []string{"total=", "parse=", "lock=", "exec=", "wal="} {
		if !strings.Contains(first, phase) {
			t.Errorf("log line missing %s breakdown: %q", phase, first)
		}
	}

	// Every statement of a script is logged under its own text.
	if _, err := s.ExecScript(`INSERT INTO t VALUES (7); SELECT a FROM t`, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	script := append([]string(nil), logged[n:]...)
	n = len(logged)
	mu.Unlock()
	if len(script) != 2 || !strings.HasSuffix(script[0], ": INSERT INTO t VALUES (7)") ||
		!strings.HasSuffix(script[1], ": SELECT a FROM t") {
		t.Errorf("script statements logged as %q, want one line per statement", script)
	}

	// Disabling stops logging.
	db.SetSlowQueryLog(0, nil)
	mustExec(t, s, `INSERT INTO t VALUES (43)`)
	mu.Lock()
	after := len(logged)
	mu.Unlock()
	if after != n {
		t.Errorf("slow log grew after being disabled: %d -> %d", n, after)
	}
}

func TestLatencyHistogramsSampled(t *testing.T) {
	db, s := newDB(t)
	// The slow-query log forces a trace on every statement; an hour is a
	// threshold nothing reaches, so nothing is logged.
	db.SetSlowQueryLog(time.Hour, func(string) { t.Error("slow log fired") })
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (1)`)
	}
	snap := db.Metrics().Snapshot()
	cnt, ok := snap.Get("stmt.insert.latency.count")
	if !ok || cnt != 10 {
		t.Errorf("stmt.insert.latency.count = %v (ok=%v), want 10", cnt, ok)
	}
	if p50, _ := snap.Get("stmt.insert.latency.p50"); p50 <= 0 {
		t.Errorf("stmt.insert.latency.p50 = %v, want > 0", p50)
	}
	if lw, _ := snap.Get("lock.wait.count"); lw == 0 {
		t.Error("lock.wait histogram empty with every statement traced")
	}
}
