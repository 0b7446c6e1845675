// Package tip is the public face of TIP (Temporal Information
// Processor), a from-scratch Go reproduction of "TIP: A Temporal
// Extension to Informix" (Yang, Ying, Widom; SIGMOD 2000).
//
// TIP extends a relational engine with five temporal datatypes —
// Chronon, Span, Instant, Period and Element — plus the casts, overloaded
// operators, routines (Allen's operators, element set algebra) and
// aggregates (group_union) that make temporal queries expressible in
// plain SQL. This package wires the engine, the TIP DataBlade, and a
// convenient session API together:
//
//	db := tip.Open()
//	s := db.Session()
//	s.MustExec(`CREATE TABLE Prescription (patient VARCHAR(20), valid Element)`, nil)
//	s.MustExec(`INSERT INTO Prescription VALUES ('Mr.Showbiz', '{[1999-10-01, NOW]}')`, nil)
//	res, _ := s.Exec(`SELECT patient, length(valid) FROM Prescription`, nil)
//
// For the client/server deployment of the paper's Figure 1, see
// DB.Serve and the internal/client package; for the TIP Browser, see
// cmd/tipbrowse.
package tip

import (
	"fmt"
	"strings"
	"time"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/server"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Re-exported temporal kernel types, so applications can work with TIP
// values without importing internal packages.
type (
	// Chronon is a specific point in time (second granularity).
	Chronon = temporal.Chronon
	// Span is a signed duration.
	Span = temporal.Span
	// Instant is an absolute chronon or a NOW-relative time.
	Instant = temporal.Instant
	// Period is a closed interval between two instants.
	Period = temporal.Period
	// Element is a set of periods — the general TIP timestamp.
	Element = temporal.Element
	// Result is a materialised query result.
	Result = exec.Result
)

// Temporal constructors and helpers, re-exported.
var (
	// Now is the NOW-relative instant with zero offset.
	Now = temporal.Now
	// ParseChronon parses "1999-09-01" or "1999-09-01 12:30:00".
	ParseChronon = temporal.ParseChronon
	// ParseSpan parses "7 12:00:00" or "-7".
	ParseSpan = temporal.ParseSpan
	// ParseInstant parses "NOW-1" or a chronon literal.
	ParseInstant = temporal.ParseInstant
	// ParsePeriod parses "[1999-01-01, NOW]".
	ParsePeriod = temporal.ParsePeriod
	// ParseElement parses "{[1999-01-01, 1999-04-30], ...}".
	ParseElement = temporal.ParseElement
	// MakeChronon builds a chronon from civil components.
	MakeChronon = temporal.MakeChronon
	// MustChronon is MakeChronon that panics on error.
	MustChronon = temporal.MustChronon
	// Date builds a midnight chronon.
	Date = temporal.Date
	// MustDate is Date that panics on error.
	MustDate = temporal.MustDate
	// MakePeriod builds a determinate period.
	MakePeriod = temporal.MakePeriod
	// AbsInstant wraps a chronon as an absolute instant.
	AbsInstant = temporal.AbsInstant
	// NowRelative builds the instant NOW+offset.
	NowRelative = temporal.NowRelative
	// MakeElement builds an element from periods.
	MakeElement = temporal.MakeElement
)

// DB is a TIP-enabled database: the engine with the TIP DataBlade
// registered.
type DB struct {
	eng   *engine.Database
	blade *core.Blade
	reg   *blade.Registry
}

// Open creates an empty in-memory TIP-enabled database.
func Open() *DB {
	reg := blade.NewRegistry()
	b := core.MustRegister(reg)
	return &DB{eng: engine.New(reg), blade: b, reg: reg}
}

// OpenDurable opens a crash-safe database rooted at dir: it loads
// dir/snapshot.tipdb if present, applies dir/wal.log, and then logs
// every further commit to the WAL. Call Checkpoint periodically to fold
// the log into a fresh snapshot.
func OpenDurable(dir string) (*DB, error) {
	reg := blade.NewRegistry()
	b := core.MustRegister(reg)
	eng, err := engine.Open(reg, dir)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, blade: b, reg: reg}, nil
}

// SyncPolicy selects how often the WAL is fsynced; see the constants
// below and DESIGN.md's Durability section for the commit contract of
// each policy.
type SyncPolicy = engine.SyncPolicy

const (
	// SyncGrouped (the default) fsyncs from a background syncer on a
	// fixed cadence; a crash loses at most one interval of acknowledged
	// statements.
	SyncGrouped = engine.SyncGrouped
	// SyncEveryAppend fsyncs before each commit returns; concurrent
	// appenders share one fsync (group commit).
	SyncEveryAppend = engine.SyncEveryAppend
)

// SetDurability selects the WAL fsync policy. groupInterval sets the
// background cadence for SyncGrouped (0 keeps the 2ms default); the
// other policies ignore it. Safe to call while the database is open.
func (db *DB) SetDurability(p SyncPolicy, groupInterval time.Duration) {
	db.eng.SetDurability(p, groupInterval)
}

// Durability reports the current WAL fsync policy.
func (db *DB) Durability() SyncPolicy { return db.eng.Durability() }

// ParseDurability parses a command-line durability spec: "strict" or
// "grouped[=interval]" (for example "grouped=5ms").
func ParseDurability(spec string) (SyncPolicy, time.Duration, error) {
	name, arg, hasArg := strings.Cut(spec, "=")
	if hasArg && name != "grouped" {
		return 0, 0, fmt.Errorf("tip: durability %q takes no argument", name)
	}
	switch name {
	case "strict":
		return SyncEveryAppend, 0, nil
	case "grouped":
		if !hasArg {
			return SyncGrouped, 0, nil
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("tip: bad grouped interval %q", arg)
		}
		return SyncGrouped, d, nil
	default:
		return 0, 0, fmt.Errorf("tip: unknown durability %q (want strict or grouped[=interval])", spec)
	}
}

// Checkpoint snapshots a durable database and truncates its WAL.
func (db *DB) Checkpoint() error { return db.eng.Checkpoint() }

// Close fsyncs and closes the WAL (if any). The database remains
// usable in memory, but state-changing statements then fail with the
// engine's ErrWALFailed.
func (db *DB) Close() error { return db.eng.Close() }

// Engine exposes the underlying engine for advanced integration
// (registering further blades, catalog inspection).
func (db *DB) Engine() *engine.Database { return db.eng }

// Blade exposes the interned TIP types and value constructors.
func (db *DB) Blade() *core.Blade { return db.blade }

// SetClock pins the engine clock that interprets NOW, for reproducible
// runs; the default is the wall clock.
func (db *DB) SetClock(now Chronon) {
	db.eng.SetClock(func() temporal.Chronon { return now })
}

// Serve exposes the database over TCP with the TIP wire protocol; see
// internal/client for the matching client library. Options configure
// statement timeouts, admission control and read deadlines.
func (db *DB) Serve(addr string, opts ...server.Option) (*server.Server, error) {
	return server.Listen(db.eng, addr, opts...)
}

// Session opens a new session (its own transactions and NOW override).
func (db *DB) Session() *Session {
	return &Session{db: db, sess: db.eng.NewSession()}
}

// Session executes SQL with Go-friendly parameter conversion.
type Session struct {
	db   *DB
	sess *engine.Session
}

// Exec runs one SQL statement. Args values may be Go built-ins (int,
// int64, float64, bool, string, time.Time) or TIP temporal values
// (Chronon, Span, Instant, Period, Element).
func (s *Session) Exec(sql string, args map[string]any) (*Result, error) {
	params, err := s.convert(args)
	if err != nil {
		return nil, err
	}
	return s.sess.Exec(sql, params)
}

// MustExec is Exec that panics on error; for setup code and examples.
func (s *Session) MustExec(sql string, args map[string]any) *Result {
	res, err := s.Exec(sql, args)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecScript runs a ';'-separated script, returning the last result.
func (s *Session) ExecScript(sql string, args map[string]any) (*Result, error) {
	params, err := s.convert(args)
	if err != nil {
		return nil, err
	}
	return s.sess.ExecScript(sql, params)
}

// Raw exposes the engine session (typed parameters, statement reuse).
func (s *Session) Raw() *engine.Session { return s.sess }

// Now returns the session's current interpretation of NOW.
func (s *Session) Now() Chronon { return s.sess.Now() }

func (s *Session) convert(args map[string]any) (map[string]types.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make(map[string]types.Value, len(args))
	for name, a := range args {
		v, err := s.value(a)
		if err != nil {
			return nil, fmt.Errorf("tip: parameter :%s: %w", name, err)
		}
		params[name] = v
	}
	return params, nil
}

func (s *Session) value(a any) (types.Value, error) {
	switch x := a.(type) {
	case nil:
		return types.NewNull(types.TNull), nil
	case int:
		return types.NewInt(int64(x)), nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case bool:
		return types.NewBool(x), nil
	case string:
		return types.NewString(x), nil
	case time.Time:
		return s.db.blade.ChrononValue(temporal.ChrononOf(x)), nil
	case temporal.Chronon:
		return s.db.blade.ChrononValue(x), nil
	case temporal.Span:
		return s.db.blade.SpanValue(x), nil
	case temporal.Instant:
		return s.db.blade.InstantValue(x), nil
	case temporal.Period:
		return s.db.blade.PeriodValue(x), nil
	case temporal.Element:
		return s.db.blade.ElementValue(x), nil
	case types.Value:
		return x, nil
	default:
		return types.Value{}, fmt.Errorf("unsupported Go type %T", a)
	}
}

// Format renders a result as an aligned text table.
func Format(res *Result) string { return exec.FormatResult(res) }
