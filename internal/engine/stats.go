package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/obs"
	"tip/internal/sql/ast"
)

// Engine observability. Every Database carries an obs.Registry and a
// small set of pre-resolved counters so the hot path never takes the
// registry lock. The instrumentation is unconditional and has two tiers:
//
//   - Counters (statements by kind, errors, rows, plan cache, WAL,
//     per-table ops) are pure atomic increments with no clock reads and
//     run on every statement.
//   - Phase traces (parse/lock/exec/WAL durations feeding the latency
//     and lock-wait histograms and the slow-query log) cost several
//     clock reads, so they are sampled: one statement in traceSample is
//     traced, except while the slow-query log is enabled, which forces
//     tracing on every statement so no slow query can dodge the log.

// traceSample is the statement-trace sampling interval; must be a power
// of two. One in traceSample statements pays the clock reads.
const traceSample = 16

// Statement kind indices for the per-kind counters and histograms.
const (
	kSelect = iota
	kInsert
	kUpdate
	kDelete
	kDDL
	kTxn
	kOther
	nKinds
)

var kindNames = [nKinds]string{"select", "insert", "update", "delete", "ddl", "txn", "other"}

// stmtKind classifies a statement for the per-kind metrics.
func stmtKind(stmt ast.Statement) int {
	switch stmt.(type) {
	case *ast.Select:
		return kSelect
	case *ast.Insert:
		return kInsert
	case *ast.Update:
		return kUpdate
	case *ast.Delete:
		return kDelete
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		return kDDL
	case *ast.Begin, *ast.Commit, *ast.Rollback:
		return kTxn
	default:
		return kOther
	}
}

// tableOps is the per-table operation counter pair.
type tableOps struct {
	reads  *obs.Counter
	writes *obs.Counter
}

// obsState is the engine's observability state: the registry plus
// pre-resolved handles for everything the statement path touches.
type obsState struct {
	reg *obs.Registry

	slowNs  atomic.Int64 // slow-query threshold; 0 disables the log
	slowLog atomic.Value // func(string)

	stmts       [nKinds]*obs.Counter
	lats        [nKinds]*obs.Histogram
	errors      *obs.Counter
	cancelled   *obs.Counter
	timeouts    *obs.Counter
	memExceeded *obs.Counter
	panics      *obs.Counter
	rowsRead    *obs.Counter
	rowsWrit    *obs.Counter

	pcHits      *obs.Counter
	pcMisses    *obs.Counter
	pcEvictions *obs.Counter

	walAppends  *obs.Counter
	walBytes    *obs.Counter
	walFailures *obs.Counter
	walFsyncs   *obs.Counter
	walFsyncLat *obs.Histogram

	lockWait *obs.Histogram

	tables  sync.Map // lower-cased table name -> *tableOps
	planner sync.Map // planner choice label -> *obs.Counter
}

func newObsState() *obsState {
	o := &obsState{reg: obs.NewRegistry()}
	for k := 0; k < nKinds; k++ {
		o.stmts[k] = o.reg.Counter("stmt." + kindNames[k])
		o.lats[k] = o.reg.Histogram("stmt." + kindNames[k] + ".latency")
	}
	o.errors = o.reg.Counter("stmt.errors")
	o.cancelled = o.reg.Counter("stmt.cancelled")
	o.timeouts = o.reg.Counter("stmt.timeout")
	o.memExceeded = o.reg.Counter("stmt.mem_exceeded")
	o.panics = o.reg.Counter("stmt.panics")
	o.rowsRead = o.reg.Counter("rows.read")
	o.rowsWrit = o.reg.Counter("rows.written")
	o.pcHits = o.reg.Counter("plancache.hits")
	o.pcMisses = o.reg.Counter("plancache.misses")
	o.pcEvictions = o.reg.Counter("plancache.evictions")
	o.walAppends = o.reg.Counter("wal.appends")
	o.walBytes = o.reg.Counter("wal.bytes")
	o.walFailures = o.reg.Counter("wal.failures")
	o.walFsyncs = o.reg.Counter("wal.fsyncs")
	o.walFsyncLat = o.reg.Histogram("wal.fsync.latency")
	o.lockWait = o.reg.Histogram("lock.wait")
	o.reg.RegisterFunc("plancache.hit_rate", func() float64 {
		h, m := float64(o.pcHits.Load()), float64(o.pcMisses.Load())
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	})
	return o
}

// shouldTrace decides whether this statement pays for phase timing.
func (o *obsState) shouldTrace(seq uint64) bool {
	if o.slowNs.Load() > 0 {
		return true
	}
	return seq&(traceSample-1) == 0
}

// tableOf returns the per-table counters for a lower-cased table name.
func (o *obsState) tableOf(name string) *tableOps {
	if t, ok := o.tables.Load(name); ok {
		return t.(*tableOps)
	}
	t := &tableOps{
		reads:  o.reg.Counter("table." + name + ".reads"),
		writes: o.reg.Counter("table." + name + ".writes"),
	}
	actual, _ := o.tables.LoadOrStore(name, t)
	return actual.(*tableOps)
}

// planChoice bumps the counter for one operator the planner picked
// (e.g. "scan.period" or "coalesce.hash"), surfacing plan selection as
// "planner.<choice>" metrics. It is handed to the executor as the
// Env.PlanChoice hook.
func (o *obsState) planChoice(choice string) {
	if c, ok := o.planner.Load(choice); ok {
		c.(*obs.Counter).Inc()
		return
	}
	c := o.reg.Counter("planner." + choice)
	actual, _ := o.planner.LoadOrStore(choice, c)
	actual.(*obs.Counter).Inc()
}

// Metrics exposes the engine's metrics registry.
func (db *Database) Metrics() *obs.Registry { return db.obs.reg }

// SetSlowQueryLog logs every statement slower than threshold through
// logf, with a parse/lock/exec/WAL phase breakdown. While enabled,
// every statement is phase-timed (sampling is bypassed). A zero
// threshold or nil logf disables the log.
func (db *Database) SetSlowQueryLog(threshold time.Duration, logf func(msg string)) {
	if threshold <= 0 || logf == nil {
		db.obs.slowNs.Store(0)
		return
	}
	db.obs.slowLog.Store(logf)
	db.obs.slowNs.Store(threshold.Nanoseconds())
}

// obsFinish closes a statement's trace (when one is active): it feeds
// the per-kind latency and lock-wait histograms and the slow-query log.
func (s *Session) obsFinish(stmt ast.Statement, sql string) {
	if !s.tr.Active {
		return
	}
	total := s.tr.End()
	o := s.db.obs
	o.lats[stmtKind(stmt)].Observe(total.Nanoseconds())
	o.lockWait.Observe(s.tr.Lock.Nanoseconds())
	if ns := o.slowNs.Load(); ns > 0 && total.Nanoseconds() >= ns {
		if v := o.slowLog.Load(); v != nil {
			v.(func(string))(fmt.Sprintf("slow query (%s, peak_mem=%dB): %s",
				s.tr.Phases(total), s.mem.Peak(), sql))
		}
	}
}
