// Package exec implements query planning and execution for the TIP
// engine: statically typed expression compilation with blade routine
// resolution at bind time, scans with
// hash- and period-index selection, left-deep joins (hash joins for
// equality conditions, nested loops otherwise), grouping with built-in and
// user-defined aggregates, DISTINCT, ORDER BY, LIMIT, and correlated
// subqueries (EXISTS, IN, scalar).
//
// Scans hand their rows on in batches and the last join level streams;
// the other operators buffer their full row set. The engine targets
// research-scale data (the paper's demo database); the simplicity buys
// easy-to-verify semantics for the temporal routines.
package exec

import (
	"fmt"
	"strings"

	"tip/internal/blade"
	"tip/internal/catalog"
	"tip/internal/index"
	"tip/internal/storage"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Row is one tuple flowing between operators.
type Row = storage.Row

// ColMeta describes one column of an intermediate schema.
type ColMeta struct {
	// Table is the binding (table name or alias) the column belongs to;
	// empty for computed columns.
	Table string
	// Name is the column's name.
	Name string
	// Type is the column's static type: every non-NULL value in the
	// column has it, and the binder chooses overloads, comparisons and
	// casts from it. types.TNull types a column that is always NULL.
	Type *types.Type
}

// Schema is an ordered list of columns.
type Schema []ColMeta

// Resolve finds the position of a (possibly qualified) column reference,
// reporting ambiguity.
func (s Schema) Resolve(table, col string) (int, error) {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, col) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("exec: ambiguous column %s", refName(table, col))
		}
		found = i
	}
	if found < 0 {
		return 0, errNotFound
	}
	return found, nil
}

var errNotFound = fmt.Errorf("exec: column not found")

func refName(table, col string) string {
	if table != "" {
		return table + "." + col
	}
	return col
}

// Result is the materialised output of a statement.
type Result struct {
	// Cols are the output column names.
	Cols []string
	// Types are the output columns' static types: every non-NULL value
	// in a column has its type (types.TNull types a column that is
	// always NULL).
	Types []*types.Type
	// Rows are the output tuples.
	Rows []Row
	// Affected counts modified rows for INSERT/UPDATE/DELETE.
	Affected int
}

// TableVersion is one immutable snapshot of a table's contents: a row
// slab version plus the matching index versions. Readers pin one
// TableVersion per table at statement start and read it without any
// locking.
type TableVersion struct {
	Rows *storage.Version
	// Indexes holds each column's index versions, by column position.
	Indexes []ColumnIndex
}

// ColumnIndex is the indexes of one column: nil where the column has no
// index of that kind.
type ColumnIndex struct {
	Hash   *index.Hash
	Period *index.Period
}

// Table is one table's identity: its catalog metadata and the slot
// its version takes in each state the engine publishes.
type Table struct {
	Meta *catalog.TableMeta
	Slot int
}

// NewVersion returns the empty version of a table of meta.
func NewVersion(meta *catalog.TableMeta) *TableVersion {
	return &TableVersion{Rows: storage.NewVersion(), Indexes: make([]ColumnIndex, len(meta.Columns))}
}

// Tables resolves the tables a statement reads: a name to the table and
// the version the statement pinned of it.
type Tables interface {
	Table(name string) (*Table, *TableVersion, bool)
}

// Env is everything a query needs at bind and run time.
type Env struct {
	// Reg resolves types, routines, casts and aggregates.
	Reg *blade.Registry
	// Now is the concrete value of NOW for this evaluation: the
	// transaction time, or the session's what-if override.
	Now temporal.Chronon
	// Params supplies named :param values.
	Params map[string]types.Value
	// Tables resolves the tables the statement reads.
	Tables Tables
	// Cancel, when non-nil, is polled by every executor row loop; a
	// cancelled token aborts the statement with its typed error (see
	// cancel.go). nil means the statement cannot be cancelled.
	Cancel *Token
	// PlanChoice, when non-nil, is called once per operator the planner
	// picks from the query's shape, with a short label ("scan.full",
	// "scan.period", "coalesce.hash", "agg.count", "sort.topk"), when the
	// statement is bound to run: a plain EXPLAIN reports none. The engine
	// wires it to its planner.* counters.
	PlanChoice func(choice string)
	// Mem, when non-nil, is the statement's memory account: every
	// buffering site charges the bytes it retains and the rationed poll
	// aborts the statement with ErrMemory once the account (or an
	// ancestor, e.g. the engine-wide account) is over budget. nil means
	// the statement is not accounted.
	Mem *MemAccount

	ctx *blade.Ctx // cached evaluation context; Now is fixed per statement
}

// Ctx returns the blade evaluation context for this environment. The
// context is cached: Now is fixed for the statement's lifetime, and
// aggregate accumulators call this once per input row.
func (e *Env) Ctx() *blade.Ctx {
	if e.ctx == nil || e.ctx.Now != e.Now {
		e.ctx = &blade.Ctx{Now: e.Now}
	}
	return e.ctx
}

// runtime is the per-execution state: the environment plus the scope
// stack of rows for correlated evaluation. rows[len-1] is the innermost
// scope. ticks counts row-loop iterations to ration cancel polls;
// arena and keybuf are the statement's batch allocator and reused
// grouping-key buffer (batch.go); memLocal accumulates memory charges
// between flushes to env.Mem (mem.go); ivs is the period-index searches'
// bound-probe scratch (periodCandidates), used within one search only.
type runtime struct {
	env      *Env
	rows     []Row
	ticks    uint32
	arena    rowArena
	keybuf   []byte
	memLocal int64
	ivs      []temporal.Interval
}

func (rt *runtime) push(r Row) { rt.rows = append(rt.rows, r) }
func (rt *runtime) pop()       { rt.rows = rt.rows[:len(rt.rows)-1] }

// at returns the row `depth` scopes up from the innermost.
func (rt *runtime) at(depth int) Row { return rt.rows[len(rt.rows)-1-depth] }

// columns returns the schema's column names and types.
func (s Schema) columns() ([]string, []*types.Type) {
	names, typs := make([]string, len(s)), make([]*types.Type, len(s))
	for i, c := range s {
		names[i], typs[i] = c.Name, c.Type
	}
	return names, typs
}
