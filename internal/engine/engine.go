// Package engine is the TIP-enabled database system: the façade that ties
// the SQL front end, the blade registry, the catalog, row storage,
// indexes, and transactions into a usable embedded DBMS — the stand-in for
// the Informix server the TIP DataBlade plugs into.
//
// A Database owns the shared state; Sessions execute statements. A
// Session is single-goroutine state (one per client connection); the
// Database is safe for any number of concurrent sessions. Writers lock
// (locks.go): the catalog lock, then the one table a DML statement
// writes. Readers pin the published state, every table's immutable
// version, with one atomic load. A statement that writes ends with one
// commit step under commitMu, which logs its group and then publishes
// the next state (commit.go). Each session keeps an LRU cache of parsed
// statements keyed by SQL text, revalidated against a catalog generation
// counter that every DDL bumps.
//
// A transaction's begin time fixes the interpretation of NOW for all its
// statements (Clifford-style transaction-time NOW), and a session may
// override NOW for what-if evaluation (SET NOW = ...). See Exec for the
// failure contract of a durable database (Open).
package engine

import (
	"errors"
	"fmt"
	"slices"
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
	"tip/internal/types"
)

// Database is one TIP-enabled database instance.
type Database struct {
	// mu is the catalog lock: it guards cat and the tables/locks maps.
	// Statements that only bind rows hold it shared and serialise on
	// per-table locks instead; DDL holds it exclusively.
	mu     sync.RWMutex
	gen    atomic.Uint64 // catalog generation; bumped by every DDL
	reg    *blade.Registry
	cat    *catalog.Catalog
	tables map[string]*exec.Table // lower-cased name
	locks  map[string]*tableLock  // per-table write locks, same keys as tables
	wal    *wal                   // the log of a durable database, fixed by Open; nil in memory
	obs    *obsState              // metrics registry + statement instrumentation

	// commitMu admits one commit step at a time; state is the published
	// state (commit.go).
	commitMu sync.Mutex
	state    atomic.Pointer[state]

	// clock interprets NOW by default (the wall clock while nil).
	clock atomic.Pointer[func() temporal.Chronon]

	syncPolicy   atomic.Int32 // SyncPolicy; see SetDurability
	syncInterval atomic.Int64 // SyncGrouped fsync cadence, nanoseconds

	// readOnly marks a replica: state-changing statements fail with
	// ErrReadOnly; see SetReadOnly.
	readOnly atomic.Bool

	// afterApply, a test hook, runs in each commit step before its log
	// append.
	afterApply func(*Session)

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
		locks:  make(map[string]*tableLock),
		obs:    newObsState(),
	}
	db.state.Store(&state{})
	db.syncInterval.Store(int64(2 * time.Millisecond))
	// Durability-position gauges: replication lag is judged against
	// these (a replica applied through seq S is behind flushed_seq −
	// S statements, of which everything ≤ synced_seq is fsync-durable).
	db.obs.reg.RegisterFunc("wal.flushed_seq", func() float64 { return float64(db.WALSeq()) })
	db.obs.reg.RegisterFunc("wal.synced_seq", func() float64 {
		if db.wal == nil {
			return 0
		}
		return float64(db.wal.syncedSeq.Load())
	})
	// Memory-governance gauges: accounted bytes across all in-flight
	// statements, the high-water mark, and the engine-wide budget the
	// server sheds load against (0 = unlimited).
	db.obs.reg.RegisterFunc("mem.used", func() float64 { return float64(db.mem.Used()) })
	db.obs.reg.RegisterFunc("mem.peak", func() float64 { return float64(db.mem.Peak()) })
	db.obs.reg.RegisterFunc("mem.budget", func() float64 { return float64(db.mem.Budget()) })
	return db
}

// Registry returns the blade registry (for registering further blades).
func (db *Database) Registry() *blade.Registry { return db.reg }

// SetClock pins the engine clock, fixing the default interpretation of
// NOW; intended for tests and reproducible experiments. Safe to call
// while sessions run.
func (db *Database) SetClock(clock func() temporal.Chronon) { db.clock.Store(&clock) }

// now reads the engine clock.
func (db *Database) now() temporal.Chronon {
	if c := db.clock.Load(); c != nil {
		return (*c)()
	}
	return temporal.ChrononOf(time.Now())
}

// Catalog exposes the schema metadata (read-only use).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Session is one client's connection state: its open transaction, its
// NOW override and its parsed-statement cache. A Session must not be
// used from multiple goroutines at once; open one session per client.
type Session struct {
	db          *Database
	tx          *txState
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

	// st is the state the running statement pinned (lockTables);
	// pending holds the versions it wrote, for its commit step.
	st      *state
	pending []stagedTable

	// fx is where the running statement records its effects (the
	// transaction's group, or stmtFx); nil when nothing will log them.
	fx     *[]byte
	stmtFx []byte
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
		return s.tx.time
	}
	return s.db.now()
}

// Exec parses and executes one SQL statement with optional named
// parameters, consulting the session's statement cache before the
// parser. On a durable database, each commit — an autocommit statement
// that changed something, or a COMMIT — appends its effects to the log
// before it publishes. If the append fails, the in-memory result is
// still returned, together with an error wrapping ErrWALFailed: the
// commit is applied but not durable, and the WAL stops accepting
// appends so the log on disk stays a consistent prefix of the in-memory
// history (Checkpoint heals it).
func (s *Session) Exec(sql string, params map[string]types.Value) (*exec.Result, error) {
	return s.runStatement(nil, sql, params)
}

// ExecScript executes a ';'-separated sequence of statements, returning
// the last result. The whole script is parsed first, so a syntax error
// anywhere executes nothing; each statement then runs exactly as if
// handed to Exec — its own timeout, cancel token, memory budget, trace
// and commit — and the script stops at the first error.
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
		stamp := s.cancel.Stamp()
		timer := time.AfterFunc(d, func() { s.cancel.CancelStmt(stamp, exec.CauseTimeout) })
		defer timer.Stop()
	}
	// The memory account likewise covers exactly one statement: arm
	// the budget, run, then return the statement's charges to the
	// engine-wide account. The reset is deferred so obsFinish can still
	// read the statement's peak for the slow-query log.
	defer s.mem.Reset()
	s.mem.SetBudget(s.stmtMem)
	res, err := s.ExecStmt(stmt, params)
	s.obsFinish(stmt, sql)
	s.lastPeak = s.mem.Peak()
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

// ExecStmt executes one parsed statement under the locks it needs (see
// the package comment for the locking discipline). A statement that
// wrote ends with its commit step before the locks are released.
func (s *Session) ExecStmt(stmt ast.Statement, params map[string]types.Value) (*exec.Result, error) {
	o := s.db.obs
	writes := changesState(stmt)
	if writes && s.db.readOnly.Load() {
		o.errors.Inc()
		return nil, ErrReadOnly
	}
	if s.tx != nil && isDDL(stmt) {
		o.errors.Inc()
		return nil, ErrDDLInTransaction
	}
	tx := s.tx // the transaction a COMMIT ends
	durable := s.db.wal != nil
	commits := durable && (writes && tx == nil || tx != nil && isCommit(stmt))
	var mark int
	if durable && writes || commits {
		s.stmtFx, s.fx = s.stmtFx[:0], &s.stmtFx
		if tx != nil {
			s.fx = &tx.group
		}
		mark = len(*s.fx)
		defer func() { s.fx = nil }()
	}
	unlock, err := s.lockFor(stmt)
	s.tr.Mark(&s.tr.Lock)
	if err != nil {
		o.errors.Inc()
		return nil, err
	}
	defer unlock()
	res, err := s.execLocked(stmt, params)
	s.tr.Mark(&s.tr.Exec)
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
		if s.fx != nil {
			*s.fx = (*s.fx)[:mark] // the transaction stays as it was
		}
		clear(s.pending)
		s.pending = s.pending[:0]
		return res, err
	case res != nil:
		if n := len(res.Rows); n > 0 {
			o.rowsRead.Add(uint64(n))
		}
		if res.Affected > 0 {
			o.rowsWrit.Add(uint64(res.Affected))
		}
	}
	if isDDL(stmt) {
		// Bumped while the catalog lock is still held exclusively, so a
		// reader never observes a new schema with an old generation.
		s.db.gen.Add(1)
	}
	var group []byte
	if commits {
		group = *s.fx
	}
	if len(s.pending) > 0 || len(group) > 0 {
		// On a failed append the commit still applies: the result goes
		// back with the durability error (see Exec).
		err = s.commit(group)
		s.tr.Mark(&s.tr.WAL)
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
		s.tx = &txState{time: s.db.now()}
		return &exec.Result{}, nil
	case *ast.Commit:
		// The caller's commit step logs the group and publishes, then
		// releases the transaction's locks.
		if s.tx == nil {
			return nil, errNoTxn
		}
		s.pending = append(s.pending, s.tx.tables...)
		s.tx = nil
		return &exec.Result{}, nil
	case *ast.Rollback:
		return &exec.Result{}, s.rollback()
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
		Reg:        s.db.reg,
		Now:        s.Now(),
		Params:     params,
		Tables:     s,
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
	meta, err := tableMeta(s.db.reg, st)
	if err != nil {
		return nil, err
	}
	if err := s.db.cat.CreateTable(meta); err != nil {
		return nil, err
	}
	// The table takes the first free slot of the state.
	key, cur := strings.ToLower(meta.Name), s.db.state.Load().tables
	slot := slices.Index(cur, nil)
	if slot < 0 {
		slot = len(cur)
	}
	tbl := &exec.Table{Meta: meta, Slot: slot}
	s.db.tables[key] = tbl
	s.db.locks[key] = &tableLock{}
	s.pending = append(s.pending, stagedTable{tbl: tbl, v: exec.NewVersion(meta)})
	if s.fx != nil {
		*s.fx = appendCreateTable(*s.fx, meta)
	}
	return &exec.Result{}, nil
}

// tableMeta resolves the column types of a table definition.
func tableMeta(reg *blade.Registry, st *ast.CreateTable) (*catalog.TableMeta, error) {
	cols := make([]catalog.Column, len(st.Columns))
	for i, cd := range st.Columns {
		t, ok := reg.LookupType(cd.TypeName)
		if !ok {
			return nil, fmt.Errorf("engine: unknown type %s", cd.TypeName)
		}
		cols[i] = catalog.Column{Name: cd.Name, Type: t, NotNull: cd.NotNull}
	}
	return catalog.NewTableMeta(st.Name, cols)
}

func (s *Session) dropTable(st *ast.DropTable) (*exec.Result, error) {
	if _, exists := s.db.cat.Table(st.Name); !exists {
		if st.IfExists {
			return &exec.Result{}, nil
		}
		return nil, fmt.Errorf("engine: no table %s", st.Name)
	}
	if err := s.db.checkFree(st.Name); err != nil {
		return nil, err
	}
	if err := s.db.cat.DropTable(st.Name); err != nil {
		return nil, err
	}
	s.pending = append(s.pending, stagedTable{tbl: s.db.tables[strings.ToLower(st.Name)]})
	delete(s.db.tables, strings.ToLower(st.Name))
	delete(s.db.locks, strings.ToLower(st.Name))
	if s.fx != nil {
		*s.fx = appendRecord(*s.fx, recDropTable, st.Name)
	}
	return &exec.Result{}, nil
}

func (s *Session) createIndex(st *ast.CreateIndex) (*exec.Result, error) {
	tbl, ok := s.db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", st.Table)
	}
	if err := s.db.checkFree(st.Table); err != nil {
		return nil, err
	}
	pos, ok := tbl.Meta.ColumnIndex(st.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no column %s in table %s", st.Column, st.Table)
	}
	colType := tbl.Meta.Columns[pos].Type
	snap := s.db.state.Load().tables[tbl.Slot]
	kind := catalog.HashIndex
	if st.Period {
		kind = catalog.PeriodIndex
		if colType.Kind != types.KindUDT {
			return nil, fmt.Errorf("engine: PERIOD index requires a temporal column, not %s", colType)
		}
		if snap.Indexes[pos].Period != nil {
			return nil, fmt.Errorf("engine: column %s already has a period index", st.Column)
		}
	} else {
		if colType.Kind == types.KindUDT && !colType.UDT.StableKey {
			return nil, fmt.Errorf("engine: type %s has NOW-dependent values; use a PERIOD index", colType)
		}
		if snap.Indexes[pos].Hash != nil {
			return nil, fmt.Errorf("engine: column %s already has a hash index", st.Column)
		}
	}
	im := &catalog.IndexMeta{Name: st.Name, Table: tbl.Meta.Name, Column: tbl.Meta.Columns[pos].Name, Kind: kind}
	if err := s.db.cat.CreateIndex(im); err != nil {
		return nil, err
	}
	// Build over the existing rows into a new table version. The
	// catalog lock is held exclusively, so no statement is in flight.
	now := s.Now()
	nv := &exec.TableVersion{Rows: snap.Rows, Indexes: slices.Clone(snap.Indexes)}
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
		nv.Indexes[pos].Period = pb.Commit()
	} else {
		hb := index.NewHashBuilder(nil)
		snap.Rows.Scan(func(id int, r exec.Row) bool {
			if !r[pos].Null {
				hb.Add(r[pos].Key(now), id)
			}
			return true
		})
		nv.Indexes[pos].Hash = hb.Commit()
	}
	s.pending = append(s.pending, stagedTable{tbl: tbl, v: nv})
	if s.fx != nil {
		*s.fx = appendCreateIndex(*s.fx, im)
	}
	return &exec.Result{}, nil
}

func (s *Session) dropIndex(st *ast.DropIndex) (*exec.Result, error) {
	im, ok := s.db.cat.Index(st.Name)
	if !ok {
		return nil, fmt.Errorf("engine: no index %s", st.Name)
	}
	if err := s.db.checkFree(im.Table); err != nil {
		return nil, err
	}
	tbl := s.db.tables[strings.ToLower(im.Table)]
	pos, _ := tbl.Meta.ColumnIndex(im.Column)
	snap := s.db.state.Load().tables[tbl.Slot]
	nv := &exec.TableVersion{Rows: snap.Rows, Indexes: slices.Clone(snap.Indexes)}
	if im.Kind == catalog.PeriodIndex {
		nv.Indexes[pos].Period = nil
	} else {
		nv.Indexes[pos].Hash = nil
	}
	s.pending = append(s.pending, stagedTable{tbl: tbl, v: nv})
	if s.fx != nil {
		*s.fx = appendRecord(*s.fx, recDropIndex, st.Name)
	}
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
