// Package engine is the TIP-enabled database system: the façade that ties
// the SQL front end, the blade registry, the catalog, row storage,
// indexes, and transactions into a usable embedded DBMS — the stand-in for
// the Informix server the TIP DataBlade plugs into.
//
// A Database owns the shared state; Sessions execute statements. A
// Session is single-goroutine state (one per client connection); the
// Database is safe for any number of concurrent sessions. Locking is
// two-level: a catalog lock guards the schema, the table registry and
// the WAL handle, and every table carries its own writer mutex. DDL
// takes the catalog lock exclusively; DML and queries share the catalog
// lock and lock only the tables the statement writes, acquired in
// sorted name order so disjoint-table statements run in parallel and
// same-table statements cannot deadlock; reads pin immutable table
// versions instead of locking (see locks.go).
// Each session keeps an LRU cache of parsed statements keyed by SQL
// text, revalidated against a catalog generation counter that every DDL
// bumps, so the hot repeated-statement path skips the parser.
//
// Transactions are undo-logged and roll back row-level changes; the
// transaction's begin time fixes the interpretation of NOW for all its
// statements (Clifford-style transaction-time NOW), and a session may
// override NOW for what-if evaluation (SET NOW = ...). When the WAL is
// enabled, state-changing statements are appended after they apply; see
// Exec for the failure contract.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/catalog"
	"tip/internal/exec"
	"tip/internal/index"
	"tip/internal/obs"
	"tip/internal/sql/ast"
	"tip/internal/sql/parse"
	"tip/internal/temporal"
	"tip/internal/txn"
	"tip/internal/types"
)

// Database is one TIP-enabled database instance.
type Database struct {
	// mu is the catalog lock: it guards cat, the tables/locks maps and
	// the wal handle. Statements that only bind rows hold it shared and
	// serialise on per-table locks instead; DDL holds it exclusively.
	mu     sync.RWMutex
	gen    atomic.Uint64 // catalog generation; bumped by every DDL
	reg    *blade.Registry
	cat    *catalog.Catalog
	tables map[string]*exec.Table // lower-cased name
	locks  map[string]*sync.Mutex // per-table locks, same keys as tables
	tm     *txn.Manager
	wal    *wal      // nil unless EnableWAL was called
	obs    *obsState // metrics registry + statement instrumentation

	// MVCC state: vclock is the version clock stamping every writer
	// statement (the in-memory extension of the WAL epoch/seq pair —
	// see DESIGN.md), hz tracks which old sequences open transactions
	// and in-flight statement snapshots still reach.
	vclock atomic.Uint64
	hz     *horizonTracker

	// Durability state. epoch is the current durability epoch (stamped
	// on snapshots and WAL frames; bumped by Checkpoint) and walSeq the
	// last WAL frame sequence number; both are guarded by mu and fed by
	// Load/ReplayWAL at recovery. ckpt is the checkpoint gate: writers
	// hold it shared across apply+log, Checkpoint exclusively across
	// epoch-bump+snapshot+truncate, so no statement lands in the
	// snapshot while its WAL frame carries the new epoch (which would
	// double-apply it at recovery).
	epoch        uint64
	walSeq       uint64
	walBase      uint64 // seq preceding the oldest frame still in the log (guarded by mu)
	ckpt         sync.RWMutex
	syncPolicy   atomic.Int32 // SyncPolicy; see SetDurability
	syncInterval atomic.Int64 // SyncGrouped fsync cadence, nanoseconds

	// readOnly marks a replica: loggable statements from ordinary
	// sessions fail with ErrReadOnly; see SetReadOnly.
	readOnly atomic.Bool

	// mem is the engine-wide memory account: the parent of every
	// session's statement account, so Used() sums the intermediate
	// state of all in-flight statements. See mem.go.
	mem exec.MemAccount
}

// New creates an empty in-memory database using the given registry (which
// must already hold every blade the schema needs).
func New(reg *blade.Registry) *Database {
	db := &Database{
		reg:    reg,
		cat:    catalog.New(),
		tables: make(map[string]*exec.Table),
		locks:  make(map[string]*sync.Mutex),
		tm:     txn.NewManager(),
		obs:    newObsState(),
		hz:     newHorizonTracker(),
	}
	db.syncInterval.Store(int64(2 * time.Millisecond))
	// Durability-position gauges: replication lag is judged against
	// these (a replica applied through seq S is behind flushed_seq −
	// S statements, of which everything ≤ synced_seq is fsync-durable).
	db.obs.reg.RegisterFunc("wal.flushed_seq", func() float64 {
		db.mu.RLock()
		w := db.wal
		seq := db.walSeq
		db.mu.RUnlock()
		if w != nil {
			seq = w.flushedSeq.Load()
		}
		return float64(seq)
	})
	db.obs.reg.RegisterFunc("wal.synced_seq", func() float64 {
		db.mu.RLock()
		w := db.wal
		seq := db.walSeq
		db.mu.RUnlock()
		if w != nil {
			seq = w.syncedSeq.Load()
		}
		return float64(seq)
	})
	// Memory-governance gauges: accounted bytes across all in-flight
	// statements, the high-water mark, and the engine-wide budget the
	// server sheds load against (0 = unlimited).
	db.obs.reg.RegisterFunc("mem.used", func() float64 { return float64(db.mem.Used()) })
	db.obs.reg.RegisterFunc("mem.peak", func() float64 { return float64(db.mem.Peak()) })
	db.obs.reg.RegisterFunc("mem.budget", func() float64 { return float64(db.mem.Budget()) })
	return db
}

// Generation returns the catalog generation counter. Every successful
// DDL statement bumps it; session statement caches revalidate against
// it.
func (db *Database) Generation() uint64 { return db.gen.Load() }

// Registry returns the blade registry (for registering further blades).
func (db *Database) Registry() *blade.Registry { return db.reg }

// SetClock pins the engine clock, fixing the default interpretation of
// NOW; intended for tests and reproducible experiments.
func (db *Database) SetClock(clock func() temporal.Chronon) { db.tm.SetClock(clock) }

// Catalog exposes the schema metadata (read-only use).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Session is one client's connection state: its open transaction, its
// NOW override and its parsed-statement cache. A Session must not be
// used from multiple goroutines at once; open one session per client.
type Session struct {
	db          *Database
	tx          *txn.Txn
	nowOverride *temporal.Chronon
	cache       *planCache
	tr          obs.Trace // reused phase trace; armed on sampled statements
	stmtSeq     uint64    // statements executed; drives trace sampling

	// cancel is the session's statement-cancellation token; see
	// cancel.go for the lifecycle. stmtTimeout caps each statement's
	// wall time (0 = none); defaultTimeout is what SET
	// STATEMENT_TIMEOUT = DEFAULT reverts to.
	cancel         exec.Token
	stmtTimeout    time.Duration
	defaultTimeout time.Duration

	// mem is the session's statement memory account, parented to the
	// engine-wide account; see mem.go for the lifecycle. stmtMem caps
	// each statement's buffered bytes (0 = none); defaultStmtMem is
	// what SET STATEMENT_MEMORY = DEFAULT reverts to.
	mem            exec.MemAccount
	stmtMem        int64
	defaultStmtMem int64
	lastPeak       int64 // peak accounted bytes of the last Exec'd statement

	// snaps holds the table versions the current statement pinned at
	// start (lower-cased table name → version); see captureSnaps.
	snaps map[string]*exec.TableVersion

	// replApply marks the replication apply session, exempt from the
	// read-only check (see NewReplicaSession).
	replApply bool
}

// NewSession opens a session.
func (db *Database) NewSession() *Session {
	s := &Session{db: db}
	s.mem.SetParent(&db.mem)
	return s
}

// Database returns the engine this session belongs to (to open sibling
// sessions or reach engine-level knobs from code holding only a session).
func (s *Session) Database() *Database { return s.db }

// Now returns the session's current interpretation of NOW: the override
// if set, the transaction time inside a transaction, or the engine clock.
func (s *Session) Now() temporal.Chronon {
	if s.nowOverride != nil {
		return *s.nowOverride
	}
	if s.tx != nil {
		return s.tx.Time
	}
	return s.db.tm.Now()
}

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Exec parses and executes one SQL statement with optional named
// parameters, consulting the session's statement cache before the
// parser. When write-ahead logging is enabled, state-changing
// statements are appended to the log after they apply. If the append
// fails, the in-memory result is still returned, together with an error
// wrapping ErrWALFailed: the statement is applied but not durable, and
// the WAL stops accepting appends so the log on disk stays a consistent
// prefix of the in-memory history (Checkpoint heals it).
func (s *Session) Exec(sql string, params map[string]types.Value) (*exec.Result, error) {
	return s.runStatement(nil, sql, params)
}

// ExecScript executes a ';'-separated sequence of statements, returning
// the last result. The whole script is parsed first, so a syntax error
// anywhere executes nothing; each statement then runs exactly as if
// handed to Exec with its own source text — its own timeout, cancel
// token, memory budget, trace and WAL frame — and the script stops at
// the first error.
func (s *Session) ExecScript(sql string, params map[string]types.Value) (*exec.Result, error) {
	parts, err := parse.ParseScriptParts(sql)
	if err != nil {
		return nil, err
	}
	var last *exec.Result
	for _, p := range parts {
		if last, err = s.runStatement(p.Stmt, p.SQL, params); err != nil {
			return nil, err
		}
	}
	return last, nil
}

// runStatement is the lifecycle of one statement, shared by Exec (stmt
// is nil: sql is parsed through the session's statement cache) and
// ExecScript (stmt was parsed with the rest of its script).
func (s *Session) runStatement(stmt ast.Statement, sql string, params map[string]types.Value) (*exec.Result, error) {
	o := s.db.obs
	s.stmtSeq++
	if o.shouldTrace(s.stmtSeq) {
		s.tr.Begin()
	}
	if stmt == nil {
		var err error
		if stmt, err = s.parseCached(sql); err != nil {
			s.tr.Active = false
			o.errors.Inc()
			return nil, err
		}
	}
	s.tr.Mark(&s.tr.Parse)
	// The cancel token covers exactly one statement: arm the timeout
	// timer (when configured), run, then clear the token so a cancel
	// cannot leak into the next statement and the session stays usable.
	defer s.cancel.Reset()
	if d := s.stmtTimeout; d > 0 {
		timer := time.AfterFunc(d, func() { s.cancel.Cancel(exec.CauseTimeout) })
		defer timer.Stop()
	}
	// The memory account likewise covers exactly one statement: arm
	// the budget, run, then return the statement's charges to the
	// engine-wide account. The reset is deferred so obsFinish can still
	// read the statement's peak for the slow-query log.
	defer s.mem.Reset()
	s.mem.SetBudget(s.stmtMem)
	res, err := s.execLogged(stmt, sql, params)
	s.obsFinish(stmt, sql)
	s.lastPeak = s.mem.Peak()
	return res, err
}

// execLogged executes one parsed statement and appends it to the WAL
// when it applied successfully and changes state. NOW is captured
// before execution so the logged time matches what the statement
// evaluated under (BEGIN changes the session's NOW as a side effect).
func (s *Session) execLogged(stmt ast.Statement, sql string, params map[string]types.Value) (*exec.Result, error) {
	now := s.Now()
	if loggable(stmt) {
		// Hold the checkpoint gate across apply+log so Checkpoint never
		// snapshots a statement whose WAL frame then lands in the new
		// epoch (it would replay on top of the snapshot).
		s.db.ckpt.RLock()
		defer s.db.ckpt.RUnlock()
	}
	res, err := s.ExecStmt(stmt, params)
	if err == nil && loggable(stmt) {
		logErr := s.db.logStatement(now, sql, params)
		s.tr.Mark(&s.tr.WAL)
		if logErr != nil {
			// Applied in memory but not logged: surface the durability
			// failure while still handing back the result (see Exec).
			return res, logErr
		}
	}
	return res, err
}

// parseCached parses sql through the session's LRU statement cache.
// Cache entries carry the catalog generation they were parsed under and
// are dropped on mismatch, so DDL from any session invalidates them.
func (s *Session) parseCached(sql string) (ast.Statement, error) {
	if s.cache == nil {
		s.cache = newPlanCache(planCacheSize)
		s.cache.evictC = s.db.obs.pcEvictions
	}
	gen := s.db.gen.Load()
	o := s.db.obs
	if stmt, ok := s.cache.get(sql, gen); ok {
		o.pcHits.Inc()
		return stmt, nil
	}
	o.pcMisses.Inc()
	stmt, err := parse.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.cache.put(sql, stmt, gen)
	return stmt, nil
}

// CacheStats reports the session statement cache's hit/miss counters
// (for tests and the concurrency experiments).
func (s *Session) CacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.hits, s.cache.misses
}

// ExecStmt executes one parsed statement, acquiring the locks it needs
// (see the package comment for the locking discipline).
func (s *Session) ExecStmt(stmt ast.Statement, params map[string]types.Value) (*exec.Result, error) {
	if !s.replApply && s.db.readOnly.Load() && loggable(stmt) {
		s.db.obs.errors.Inc()
		return nil, ErrReadOnly
	}
	unlock := s.lockFor(stmt)
	s.tr.Mark(&s.tr.Lock)
	defer unlock()
	res, err := s.execLocked(stmt, params)
	s.tr.Mark(&s.tr.Exec)
	o := s.db.obs
	o.stmts[stmtKind(stmt)].Inc()
	switch {
	case err != nil:
		o.errors.Inc()
		if errors.Is(err, exec.ErrCancelled) {
			o.cancelled.Inc()
		} else if errors.Is(err, exec.ErrTimeout) {
			o.timeouts.Inc()
		} else if errors.Is(err, exec.ErrMemory) {
			o.memExceeded.Inc()
		}
	case res != nil:
		if n := len(res.Rows); n > 0 {
			o.rowsRead.Add(uint64(n))
		}
		if res.Affected > 0 {
			o.rowsWrit.Add(uint64(res.Affected))
		}
	}
	if err == nil && isDDL(stmt) {
		// Bumped while the catalog lock is still held exclusively, so a
		// reader never observes a new schema with an old generation.
		s.db.gen.Add(1)
	}
	return res, err
}

// execLocked dispatches one statement; the caller holds the locks.
func (s *Session) execLocked(stmt ast.Statement, params map[string]types.Value) (*exec.Result, error) {
	switch st := stmt.(type) {
	case *ast.Select:
		return exec.Run(s.env(params), st)
	case *ast.CreateTable:
		return s.createTable(st)
	case *ast.DropTable:
		return s.dropTable(st)
	case *ast.CreateIndex:
		return s.createIndex(st)
	case *ast.DropIndex:
		return s.dropIndex(st)
	case *ast.Insert:
		return s.insert(st, params)
	case *ast.Update:
		return s.update(st, params)
	case *ast.Delete:
		return s.deleteRows(st, params)
	case *ast.Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("engine: transaction already open")
		}
		s.tx = s.db.tm.Begin()
		// Pin the reclamation horizon at the version clock: row slots
		// this transaction's undo log will reference must not be
		// reused until it ends.
		s.db.hz.beginTxn(s.tx.ID, s.db.vclock.Load())
		return &exec.Result{}, nil
	case *ast.Commit:
		if s.tx == nil {
			return nil, fmt.Errorf("engine: no open transaction")
		}
		s.db.hz.endTxn(s.tx.ID)
		s.tx = nil // undo log discarded; changes are already applied
		return &exec.Result{}, nil
	case *ast.Rollback:
		return s.rollback()
	case *ast.SetNow:
		return s.setNow(st, params)
	case *ast.SetTimeout:
		return s.setTimeout(st, params)
	case *ast.SetMemory:
		return s.setMemory(st, params)
	case *ast.ShowTables:
		res := &exec.Result{Cols: []string{"table"}}
		for _, n := range s.db.cat.TableNames() {
			res.Rows = append(res.Rows, exec.Row{types.NewString(n)})
		}
		res.Types = []*types.Type{types.TString}
		return res, nil
	case *ast.Describe:
		return s.describe(st.Table)
	case *ast.Explain:
		if st.Analyze {
			return exec.ExplainAnalyze(s.env(params), st.Query)
		}
		return exec.Explain(s.env(params), st.Query)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// env builds the execution environment for the current statement.
func (s *Session) env(params map[string]types.Value) *exec.Env {
	return &exec.Env{
		Reg:    s.db.reg,
		Now:    s.Now(),
		Params: params,
		Lookup: func(name string) (*exec.Table, bool) {
			t, ok := s.db.tables[strings.ToLower(name)]
			return t, ok
		},
		Snap: func(name string) (*exec.TableVersion, bool) {
			v, ok := s.snaps[strings.ToLower(name)]
			return v, ok
		},
		Cancel:     &s.cancel,
		Mem:        &s.mem,
		PlanChoice: s.db.obs.planChoice,
	}
}

func (s *Session) createTable(st *ast.CreateTable) (*exec.Result, error) {
	if _, exists := s.db.cat.Table(st.Name); exists {
		if st.IfNotExists {
			return &exec.Result{}, nil
		}
		return nil, fmt.Errorf("engine: table %s already exists", st.Name)
	}
	cols := make([]catalog.Column, len(st.Columns))
	for i, cd := range st.Columns {
		t, ok := s.db.reg.LookupType(cd.TypeName)
		if !ok {
			return nil, fmt.Errorf("engine: unknown type %s", cd.TypeName)
		}
		cols[i] = catalog.Column{Name: cd.Name, Type: t, NotNull: cd.NotNull}
	}
	meta, err := catalog.NewTableMeta(st.Name, cols)
	if err != nil {
		return nil, err
	}
	if err := s.db.cat.CreateTable(meta); err != nil {
		return nil, err
	}
	key := strings.ToLower(st.Name)
	s.db.tables[key] = exec.NewTable(meta)
	s.db.locks[key] = &sync.Mutex{}
	return &exec.Result{}, nil
}

func (s *Session) dropTable(st *ast.DropTable) (*exec.Result, error) {
	if _, exists := s.db.cat.Table(st.Name); !exists {
		if st.IfExists {
			return &exec.Result{}, nil
		}
		return nil, fmt.Errorf("engine: no table %s", st.Name)
	}
	if s.tx != nil {
		return nil, fmt.Errorf("engine: DROP TABLE inside a transaction is not supported")
	}
	if err := s.db.cat.DropTable(st.Name); err != nil {
		return nil, err
	}
	delete(s.db.tables, strings.ToLower(st.Name))
	delete(s.db.locks, strings.ToLower(st.Name))
	return &exec.Result{}, nil
}

func (s *Session) createIndex(st *ast.CreateIndex) (*exec.Result, error) {
	tbl, ok := s.db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	pos, ok := tbl.Meta.ColumnIndex(st.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no column %s in table %s", st.Column, st.Table)
	}
	colType := tbl.Meta.Columns[pos].Type
	snap := tbl.Snapshot()
	kind := catalog.HashIndex
	if st.Period {
		kind = catalog.PeriodIndex
		if colType.Kind != types.KindUDT {
			return nil, fmt.Errorf("engine: PERIOD index requires a temporal column, not %s", colType)
		}
		if snap.Periods[pos] != nil {
			return nil, fmt.Errorf("engine: column %s already has a period index", st.Column)
		}
	} else {
		if colType.Kind == types.KindUDT && !colType.UDT.StableKey {
			return nil, fmt.Errorf("engine: type %s has NOW-dependent values; use a PERIOD index", colType)
		}
		if snap.Hash[pos] != nil {
			return nil, fmt.Errorf("engine: column %s already has a hash index", st.Column)
		}
	}
	if err := s.db.cat.CreateIndex(&catalog.IndexMeta{
		Name: st.Name, Table: tbl.Meta.Name, Column: tbl.Meta.Columns[pos].Name, Kind: kind,
	}); err != nil {
		return nil, err
	}
	// Build over the existing rows and install as a new table version.
	// The catalog lock is held exclusively, so no statement is in
	// flight and the version chain stays linear.
	now := s.Now()
	nv := &exec.TableVersion{
		Seq:     s.db.vclock.Add(1),
		Rows:    snap.Rows,
		Hash:    snap.Hash,
		Periods: snap.Periods,
	}
	if st.Period {
		pb := index.NewPeriodBuilder(nil)
		var buildErr error
		snap.Rows.Scan(func(id int, r exec.Row) bool {
			buildErr = exec.AddPeriodEntries(pb, r[pos], id)
			return buildErr == nil
		})
		if buildErr != nil {
			_ = s.db.cat.DropIndex(st.Name)
			return nil, buildErr
		}
		nv.Periods = make(map[int]*index.Period, len(snap.Periods)+1)
		for p, ix := range snap.Periods {
			nv.Periods[p] = ix
		}
		nv.Periods[pos] = pb.Commit()
	} else {
		ix := index.NewHash()
		snap.Rows.Scan(func(id int, r exec.Row) bool {
			if !r[pos].Null {
				// Born at sequence zero: the index only becomes
				// reachable through nv, so every snapshot that can see
				// it sees all existing rows.
				ix.Add(r[pos].Key(now), id, 0, 0)
			}
			return true
		})
		nv.Hash = make(map[int]*index.Hash, len(snap.Hash)+1)
		for p, h := range snap.Hash {
			nv.Hash[p] = h
		}
		nv.Hash[pos] = ix
	}
	tbl.Install(nv)
	return &exec.Result{}, nil
}

func (s *Session) dropIndex(st *ast.DropIndex) (*exec.Result, error) {
	im, ok := s.db.cat.Index(st.Name)
	if !ok {
		return nil, fmt.Errorf("engine: no index %s", st.Name)
	}
	tbl := s.db.tables[strings.ToLower(im.Table)]
	pos, _ := tbl.Meta.ColumnIndex(im.Column)
	snap := tbl.Snapshot()
	nv := &exec.TableVersion{
		Seq:     s.db.vclock.Add(1),
		Rows:    snap.Rows,
		Hash:    snap.Hash,
		Periods: snap.Periods,
	}
	if im.Kind == catalog.PeriodIndex {
		nv.Periods = make(map[int]*index.Period, len(snap.Periods))
		for p, ix := range snap.Periods {
			if p != pos {
				nv.Periods[p] = ix
			}
		}
	} else {
		nv.Hash = make(map[int]*index.Hash, len(snap.Hash))
		for p, h := range snap.Hash {
			if p != pos {
				nv.Hash[p] = h
			}
		}
	}
	tbl.Install(nv)
	return &exec.Result{}, s.db.cat.DropIndex(st.Name)
}

// describe lists a table's columns with their types, nullability and
// any index on each column.
func (s *Session) describe(table string) (*exec.Result, error) {
	tm, ok := s.db.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", table)
	}
	res := &exec.Result{Cols: []string{"column", "type", "nullable", "index"}}
	indexByCol := make(map[string]string)
	for _, im := range s.db.cat.TableIndexes(tm.Name) {
		kind := "hash"
		if im.Kind == catalog.PeriodIndex {
			kind = "period"
		}
		indexByCol[strings.ToLower(im.Column)] = fmt.Sprintf("%s (%s)", im.Name, kind)
	}
	for _, c := range tm.Columns {
		nullable := "YES"
		if c.NotNull {
			nullable = "NO"
		}
		idx := indexByCol[strings.ToLower(c.Name)]
		res.Rows = append(res.Rows, exec.Row{
			types.NewString(c.Name), types.NewString(c.Type.Name),
			types.NewString(nullable), types.NewString(idx),
		})
	}
	res.Types = []*types.Type{types.TString, types.TString, types.TString, types.TString}
	return res, nil
}

func (s *Session) rollback() (*exec.Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("engine: no open transaction")
	}
	tx := s.tx
	// Bind NOW for the undo-side index maintenance before clearing the
	// transaction: the original statements indexed under the
	// transaction time, and undo must format the same keys.
	now := s.Now()
	s.tx = nil
	// One writer per touched table; undo entries apply newest-first
	// across tables, then every writer publishes. The transaction's
	// horizon registration stays until the end so the slots its undo
	// log references were never reused.
	writers := make(map[string]*exec.TableWriter)
	discardAll := func() {
		for _, w := range writers {
			w.Discard()
		}
		s.db.hz.endTxn(tx.ID)
	}
	for _, e := range tx.UndoEntries() {
		key := strings.ToLower(e.Table)
		tbl, ok := s.db.tables[key]
		if !ok {
			discardAll()
			return nil, fmt.Errorf("engine: rollback references dropped table %s", e.Table)
		}
		w, ok := writers[key]
		if !ok {
			w = s.beginWrite(tbl)
			writers[key] = w
		}
		// Maintain indexes around the row change.
		switch e.Op {
		case txn.OpInsert, txn.OpUpdate:
			if row, ok := w.Get(e.RowID); ok {
				w.UnindexRow(e.RowID, row, now)
			}
		}
		if err := txn.Apply(w, e); err != nil {
			discardAll()
			return nil, err
		}
		switch e.Op {
		case txn.OpDelete, txn.OpUpdate:
			if row, ok := w.Get(e.RowID); ok {
				if err := w.IndexRow(e.RowID, row, now); err != nil {
					discardAll()
					return nil, err
				}
			}
		}
	}
	for _, w := range writers {
		w.Commit()
	}
	s.db.hz.endTxn(tx.ID)
	return &exec.Result{}, nil
}

func (s *Session) setNow(st *ast.SetNow, params map[string]types.Value) (*exec.Result, error) {
	if st.Value == nil {
		s.nowOverride = nil
		return &exec.Result{}, nil
	}
	v, err := exec.EvalConst(s.env(params), st.Value)
	if err != nil {
		return nil, err
	}
	c, err := asChronon(s.db.reg, s.Now(), v)
	if err != nil {
		return nil, fmt.Errorf("engine: SET NOW: %w", err)
	}
	s.nowOverride = &c
	return &exec.Result{}, nil
}

// asChronon coerces a value to a Chronon: directly for a Chronon UDT
// value, by parsing for strings, via DATE widening otherwise.
func asChronon(reg *blade.Registry, now temporal.Chronon, v types.Value) (temporal.Chronon, error) {
	if v.Null {
		return 0, fmt.Errorf("NOW cannot be NULL")
	}
	switch obj := v.Obj().(type) {
	case temporal.Chronon:
		return obj, nil
	case temporal.Instant:
		return obj.Bind(now), nil
	}
	switch v.T.Kind {
	case types.KindString:
		return temporal.ParseChronon(v.Str())
	case types.KindDate:
		return types.DateToChronon(v.Int()), nil
	}
	// Try a registered cast to a Chronon type, if one exists.
	if t, ok := reg.LookupType("Chronon"); ok {
		cv, err := reg.Convert(&blade.Ctx{Now: now}, v, t)
		if err == nil {
			if c, ok := cv.Obj().(temporal.Chronon); ok {
				return c, nil
			}
		}
	}
	return 0, fmt.Errorf("cannot interpret %s as a time", v.T)
}
