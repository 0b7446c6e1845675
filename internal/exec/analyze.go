package exec

import (
	"fmt"
	"time"

	"tip/internal/sql/ast"
	"tip/internal/types"
)

// EXPLAIN ANALYZE support. The planner is closure-based, so operator
// instrumentation is also closure-based: when binding under an
// analyzing explainLog, every plan note carries an OpStats handle and
// the compiled closures add their actual row counts, loop counts and
// wall time into it. Ordinary execution binds with a nil explain log,
// so the handles are nil and the only cost is a pointer test.

// OpStats accumulates one operator's runtime totals. A query runs on a
// single goroutine, so plain fields suffice.
type OpStats struct {
	Rows  int64 // rows produced across all loops
	Loops int64 // times the operator ran (correlated subqueries re-run)
	Nanos int64 // wall time including children, like EXPLAIN ANALYZE elsewhere
	// Entries and Fetched count the index entries the operator read and
	// the rows whose values it read; the line shows them when reads is
	// set (the coalesce operator fed by a period index).
	Entries, Fetched int64
	reads            bool
}

// start opens one execution of the operator: the time it begins, or
// the zero time when the statement is not analysed (st is nil).
func (st *OpStats) start() time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

// record closes one execution of the operator; a nil st records
// nothing.
func (st *OpStats) record(start time.Time, rows int) {
	if st == nil {
		return
	}
	st.Rows += int64(rows)
	st.Loops++
	st.Nanos += time.Since(start).Nanoseconds()
}

// suffix renders the actuals appended to the operator's plan line.
func (st *OpStats) suffix() string {
	if st.Loops == 0 {
		return " (never executed)"
	}
	reads := ""
	if st.reads {
		reads = fmt.Sprintf(" entries=%d fetched=%d", st.Entries, st.Fetched)
	}
	return fmt.Sprintf(" (actual rows=%d loops=%d%s time=%s)",
		st.Rows, st.Loops, reads, time.Duration(st.Nanos).Round(time.Microsecond))
}

// ExplainAnalyze binds and runs a SELECT with operator instrumentation,
// returning the plan annotated with per-operator actual rows, loops and
// wall time, plus a trailing total-execution-time row.
func ExplainAnalyze(env *Env, sel *ast.Select) (*Result, error) {
	b := &binder{env: env, explain: &explainLog{analyze: true}}
	plan, err := b.bindSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rt := &runtime{env: env}
	if _, err := plan.run(rt); err != nil {
		return nil, err
	}
	total := time.Since(start)
	rt.flushMem()
	res := &Result{Cols: []string{"plan"}}
	for _, n := range b.explain.notes {
		line := n.text
		if n.st != nil {
			line += n.st.suffix()
		}
		res.Rows = append(res.Rows, Row{types.NewString(line)})
	}
	res.Rows = append(res.Rows, Row{types.NewString(
		fmt.Sprintf("execution time: %s", total.Round(time.Microsecond)))})
	if env.Mem != nil {
		res.Rows = append(res.Rows, Row{types.NewString(
			fmt.Sprintf("peak memory: %d bytes", env.Mem.Peak()))})
	}
	res.Types = []*types.Type{types.TString}
	return res, nil
}
