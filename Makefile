GO ?= go

.PHONY: check vet build test race bench bench-smoke bench-module loc crash-smoke fuzz-smoke netfault-smoke mvcc-smoke plan-smoke repl-smoke parse-smoke mem-smoke

# check is what CI runs: static checks (vet, gofmt), a full build, the
# test suite under the race detector (the engine promises parallel
# execution across disjoint tables, so plain `go test` is not enough),
# the crash-recovery
# torture subset, the wire-fault torture subset, the MVCC snapshot
# smoke, the planner smoke, the replication smoke, the resource-
# governance smoke, one run of every testing.B benchmark, and the
# benchmark module's own vet + smoke run.
check: vet build race parse-smoke crash-smoke netfault-smoke mvcc-smoke plan-smoke repl-smoke mem-smoke bench-smoke bench-module

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the in-process experiment series E1-E8 of bench_test.go
# (EXPERIMENTS.md names each family's benchmarks).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-smoke runs every testing.B benchmark in the tree exactly once,
# so each still builds its fixture and passes its own checks (the E7
# replay counts the rows it recovered).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-module compiles and smoke-tests benchmark/, the referee behind
# BENCHMARK.json. It is its own module (own go.mod, importing
# tip/internal/...), so `go build ./... && go test ./...` at the root
# never compiles it: a change that removes an internal package or an
# exported name it uses would otherwise go unnoticed.
bench-module:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# loc prints the line count ROADMAP.md tracks: non-test Go outside
# benchmark/. Every simplicity PR reports this number before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# parse-smoke guards the SQL front end: the differential parity corpus
# (every statement in the test suites, examples and the workload
# generator must produce the same AST as the frozen pre-rewrite
# grammar in refparse), the committed FuzzParseParity/FuzzLexer seed
# corpora, the lexer/parser bug-sweep regressions (error line:column,
# malformed exponents), and the allocs-per-parse regression bound
# (testing.AllocsPerRun, so it runs without the race detector's
# allocation inflation).
parse-smoke:
	$(GO) test -run 'TestParseParity|TestParseScriptParity|TestParseError|TestParseMalformedExponents|TestParseAllocs|TestParseAcceptSweep|FuzzParseParity' -count=1 ./internal/sql/parse
	$(GO) test -run 'TestLexer|FuzzLexer' -count=1 ./internal/sql/scan

# crash-smoke replays the crash-torture battery (-short trims the
# random intra-frame cuts; every frame-boundary cut still runs): the WAL
# is cut at every byte offset that a real crash could leave behind and
# recovery must restore an exact commit prefix with no double-applies,
# and a commit appended after a torn tail must survive the next
# recovery. Then the log-order checks (a commit's group is appended
# under its locks, so live and recovered state agree), interleaved
# transactions (a rollback beside another session's write, two BEGINs
# at once), a crash mid-transaction recovering none of it, the old log
# and snapshot formats refused, an oversized group failing before it
# publishes, recovered rows at their live row ids across a snapshot
# and slot reuse, the two reopen-twice recoveries (a torn tail, and a
# crash mid-transaction followed by a write), and a failed background
# fsync failing every later commit. Then the snapshot file:
# one changed byte in a row value, a cut at any frame boundary (the end
# frame missing), bytes after the end frame, a missing frame or a
# renumbered frame, and the TIPDB3 format are each refused with
# ErrBadSnapshot; a refused load leaves the database retryable; a
# checkpoint's frames stay within the frame bound; and a snapshot from
# an earlier checkpoint beside a later log is refused with ErrWAL.
crash-smoke:
	$(GO) test -short -run 'TestCrashTorture|TestCheckpointCrashWindow|TestWALCorrupt|TestWALSeqGap|TestWALShortWrite|TestWALCrashSink|TestWALTornTail|TestLogOrder|TestInterleavedRollback|TestConcurrentBegins|TestCrashMidTransactionRecoversNeither|TestOldFormatsRefused|TestOversizedGroup|TestRecoveredRowIDs|TestGroupedFsyncFailureSticks' ./internal/engine
	$(GO) test -short -run 'TestSnapshotFlippedByteRefused|TestSnapshotWithoutEndFrameRefused|TestSnapshotDamageRefused|TestTIPDB3SnapshotRefused|TestLoadFailureLeavesDatabaseRetryable|TestCheckpointFramesWithinBound|TestStaleSnapshotBesideNewerLogRefused' ./internal/engine
	$(GO) test -run 'TestTornTailReopenedTwice|TestCrashMidTransactionThenWrite' .

# netfault-smoke replays the wire-fault torture battery under the race
# detector: 1000 hostile connections (slowloris trickles, mid-frame
# severs, silent truncations, stalls) must leak no goroutines and keep
# memory bounded, an idle connection must cost one server goroutine, a
# length prefix split by a stall past the read timeout must be cut while
# a shorter stall and a frame beyond the 4 KiB read buffer are served,
# ExecContext must leave no goroutine behind, cancellation racing writes
# must never half-apply a statement, and the lifecycle acceptance tests
# (MsgCancel on a side connection, also at the connection limit, and
# statement timeout answered with their typed errors on a connection
# that stays usable; a wrong or stale cancel key cancelling nothing;
# shedding; graceful drain releasing idle connections at once) must
# hold. Abort latency is logged, not asserted.
netfault-smoke:
	$(GO) test -race -run 'TestNetFault|TestLifecycle' ./internal/server

# fuzz-smoke gives each fuzz target of the commit-group codec (WAL
# frames, and snapshot files fed through the loader Open uses) a short
# randomized burst beyond the checked-in corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWALFrame$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s ./internal/engine

# mvcc-smoke exercises the MVCC snapshot layer under the race detector:
# snapshot atomicity beside concurrent writers (plain, hash-index and
# period-index scans), immediate slot reuse, zero goroutine leaks and GC
# of superseded versions, rows a transaction deleted still found through
# the hash index by fresh readers of the published version, and a
# two-table commit that no statement sees half of, and the period
# index's liveness invariant (every committed version's index marks only
# its live rows, over INSERT, UPDATE, DELETE, slot reuse, ROLLBACK,
# failed statements and log replay); then, on 1 and 2 CPUs, the seeded
# multi-table commit property test (three writers of two tables beside
# checkpoints and replication snapshots: every reader sees equal sums,
# and live, reopened and replica state agree) and a commit invisible
# while its group is being written; then the versioned hash index's
# property test (every committed version against its own model through
# Lookup and Each, dropped builders included) and its readers beside an
# appending builder; the
# bytes of a 100-row UPDATE of a period-indexed table at 1,000 and
# 10,000 rows (a removal copies no entry log; an allocation pin, so
# without the race detector) — then runs the disjoint-writer benchmark
# with and without the scanning analyst so the analyst's cost to
# writers stays visible (scans never take locks, so any gap is pure CPU
# competition).
mvcc-smoke:
	$(GO) test -race -run 'TestMVCC|TestTxnKeepsKilledHashPostings|TestCommitPublishesAllTablesAtOnce|TestPeriodIndexMarksOnlyLiveRows' -count=1 ./internal/engine
	$(GO) test -race -cpu 1,2 -run 'TestMultiTableCommitProperty|TestCommitInvisibleUntilWritten' -count=1 ./internal/engine
	$(GO) test -race -run 'TestHash' -count=1 ./internal/index
	$(GO) test -run 'TestPeriodUpdateBytes' -count=1 ./internal/exec
	$(GO) test -race -run '^$$' -bench 'BenchmarkDisjointWriters(PerTable|NoAnalyst)$$' -benchtime 200ms .

# plan-smoke exercises the planner and the batched executor under the
# race detector, the executor's battery on 1 and 2 CPUs: the
# EXPLAIN/EXPLAIN ANALYZE goldens (one plan per query
# shape: a period predicate over a period-indexed column probes the
# index even when the window covers every stored period, GROUP BY ...
# group_union runs the coalesce operator's hash grouping, a compound
# select prints its sort and limit/offset lines after its operands with
# the rows each keeps), the SQL-level differential battery (coalesce
# operator vs generic aggregation, top-K heap vs full sort over plain
# and compound selects: LIMIT 0 on a UNION ALL, an OFFSET past the end
# of an INTERSECT, DESC over NULLs with ties across operands; SELECT
# DISTINCT ... ORDER BY ... LIMIT ... OFFSET, which never takes the
# heap, against its unlimited form; period-index / hash / nested-loop / LEFT joins
# streamed into COUNT(*), GROUP BY and SELECT * against a pair count
# taken in the test, over NULLs and period boundaries, ending with the
# check that no operator wrote through an aliased slab row; then the
# indexed and the bare fixture asked the same exact-overlaps probes and
# joins under two SET NOWs, with joined columns read only in ORDER BY,
# HAVING, GROUP BY, CASE, aggregates and LEFT JOIN ON, and period-join
# levels with pushed hash and range filters, NULL probes, a last level
# of three sources, a correlated EXISTS checked against the join and a
# join inside a correlated subquery), COUNT(*) answered
# without reading rows (a bitset or Rows.Len() count, whole batches)
# against the rows of the same query selecting a column, bare and
# indexed, under two SET NOWs, after DELETE, UPDATE and ROLLBACK and
# inside a transaction, the period-index
# edge cases (an empty contained side, a user overload of overlaps that
# keeps its re-check, a probe text the cast rejects, an index miss that
# must not scan), group_union and length through the fused, Element,
# generic and join paths against a chronon-set model kept in the test
# (NOW-relative, empty and NULL elements, all-NULL groups, INT, VARCHAR
# and two-column keys, under two SET NOWs), NULL kept apart from every
# text key in grouping, DISTINCT and UNION, the NOW-relative literal re-run under two SET NOWs and
# a moved clock on one cached text, TIP's coalescing checked against
# the layered stratum (E2) and against the kernel truth, and the coalesce
# operator taking its groups from a hash index on its VARCHAR or INT
# group column against the same rows bare (same rows in the same order:
# NULL keys, refilled slots, UPDATEs across keys, rows inserted after
# CREATE INDEX, a transaction's own writes, two SET NOWs), and again
# with its periods read from a period index on the element column (NULL
# and empty elements and groups of nothing else, [start, NOW] and
# NOW-relative periods that bind empty at one NOW, UPDATEs of the
# element and the key, DELETE, a transaction's writes and a ROLLBACK;
# COUNT(col), a filter and a second group_union over an unindexed column
# must keep reading rows), where Q4 over 5,000 rows reads every index
# entry once and fetches one row per group (EXPLAIN ANALYZE's entries
# and fetched). Binding resolves
# every overload, comparison and aggregate once per call site from
# static types, and the bound expressions are checked against the
# per-row dispatch they replaced, over every operator and pair of types;
# the typed comparison kernel filters use is checked against the generic
# ladder over every covered type, operator, BETWEEN and NOT BETWEEN,
# NULL column and parameter and constant side, and the shapes just
# outside its rules must bind the ladder. UPDATE and DELETE find their
# rows through the SELECT scan's candidate walk: the same statements on
# a bare and an indexed copy (hash probes by literal, parameter, NULL and
# a rejected cast, exact and NOW-relative overlaps, contains, a user
# overlaps overload, IN (SELECT ...), table names in another case,
# inside a transaction) must leave the same rows, an UPDATE whose new
# value still matches changes each row once, and the planner.scan.*
# counters show the hash, period or full scan each chose.
# The period index's exact search is checked against Element.Overlaps
# over all four indexable types at three NOWs, and on 1 and 2 CPUs at
# the edges of the blocks its closed run is cut into (runs of 0 to 2,100
# entries, starts repeated across a block edge, the ends of time,
# [start, NOW] entries that start after NOW, before and after a removal),
# beside the sort its build runs; the entry-log walk the coalesce
# operator reads is checked row by row against Element.AppendBound at
# MinChronon, MaxChronon and a NOW between, on a version, a successor
# with removals and refilled slots, and a compacted one. The allocation pins
# (testing.AllocsPerRun, so they run without the race detector's
# allocation inflation): neither a period-index join nor a literal
# overlap probe allocates per pair or candidate, row arithmetic and
# comparisons nothing per row (a Span result one box), the hash point
# read, INSERT (in memory and on a durable database, where it records
# its effects and logs them) and literal probe no more than their
# recorded counts,
# the paper's Q4 one object per output row plus a constant and, grouped
# through the hash index with its working arrays reused, no more bytes
# than its answer plus a constant, and the
# literal probe and the period-index join no more bytes at ten times the
# table than 1.5 times their bytes at the smaller one;
# beside them Overlaps against its bind-and-merge reference on both
# sides of its pair limit with zero allocations, and the one cast path
# every implicit cast takes: Registry.Call casting into the caller's
# slice, the cast memo converting a repeated input once, and the memo's
# input test. On 1 and 2 CPUs under the race detector, the coalesce
# operator, the one grouping operator, answers every aggregate (COUNT
# forms, SUM, AVG, MIN, MAX, DISTINCT, group_union, its fused length,
# another blade aggregate, a cast argument) under every key (none, INT,
# VARCHAR, two columns, an expression, a hash-indexed column with and
# without a period index), over a table and a join, loaded and empty, as
# the test-side grouping reference does (TestAggregateDifferential), and
# a plain EXPLAIN moves no planner.* counter while running a statement
# and EXPLAIN ANALYZE move the same ones (TestExplainMovesNoPlanCounter).
plan-smoke:
	$(GO) test -race -cpu 1,2 -run 'TestExplain|TestExplainMovesNoPlanCounter|TestAggregateDifferential|TestPeriodProbeWholeExtent|TestDifferential|TestCoalesceIndexDifferential|TestCoalescePeriod|TestCountMatchesRows|TestNullKeyIsNotText|TestPeriodJoin|TestUserOverlapsKeepsRecheck|TestIndexMissReadsNothing|TestNowRelativeLiteralPerExecution|TestBoundDispatchMatchesReference|TestKernel|TestDMLDifferential|TestDMLHalloween' -count=1 ./internal/exec
	$(GO) test -race -run 'TestDMLPlanChoice' -count=1 ./internal/engine
	$(GO) test -race -cpu 1,2 -run 'TestPeriod' -count=1 ./internal/index
	$(GO) test -run 'TestPeriodJoinAllocs|TestLiteralProbeAllocs|TestPeriodProbeBytes|TestPointStatementAllocs|TestDurableInsertAllocs|TestRowExprAllocs|TestCoalesceAllocs|TestCoalesceBytes' -count=1 ./internal/exec
	$(GO) test -run 'TestOverlaps|TestCallCastsIntoArgs|TestCallMemoConvertsOnce|TestSameInput' -count=1 ./internal/temporal ./internal/blade
	$(GO) test -race -run 'TestTotalDurationAgrees|TestCoalesceAgainstTruth' -count=1 ./internal/layered

# repl-smoke runs the replication torture battery under the race
# detector: a 3-node in-process cluster (durable primary + 2 snapshot-
# bootstrapped read replicas over real TCP) converging under load, the
# chunked bootstrap (a snapshot streamed as bounded frames: under a
# lowered bound a small database ships in >= 10 frames, each within
# the bound, and a replica converges on it; the 65,536-row bootstrap
# past the 64 MiB frame bound runs only without -race and -short), a
# link cut in the middle of a bootstrap leaving the replica empty until
# it reconnects and bootstraps afresh, a snapshot encoded while a
# commit completes, WaitForSeq woken by the apply loop,
# killed replicas rejoining via snapshot + WAL catch-up, severed and
# stalled links resubscribing with exact-count (no-gap, no-double-apply)
# convergence, checkpoint truncation forcing snapshot re-bootstrap, a
# primary closed and reopened on its directory forcing one too (its log
# numbering carries on, its runID does not), a caught-up replica tailing wal.log across a Checkpoint on the same
# stream (no snapshot, no resubscribe), a 3,000-INSERT burst shipped
# from the file, concurrent writers whose log order the replica must
# reproduce row for row, the interleaved-transaction repros on a
# replica (TestReplicaInterleavedRollback: a ROLLBACK beside another
# session's INSERT; TestReplicaConcurrentBegins: two transactions open
# while a replica bootstraps, each arriving as its commit group), and a
# replica's position read over the client's Stats beside the primary's.
repl-smoke:
	$(GO) test -race -count=1 ./internal/repl
	$(GO) test -race -count=1 -run 'TestBootstrapStreamsBoundedFrames|TestReplicationSnapshot' ./internal/engine

# mem-smoke runs the resource-governance battery under the race
# detector: SET STATEMENT_MEMORY surface and budget aborts (typed
# error, all-or-nothing writes, reusable session, bounded overshoot),
# the accounting-leak invariant across the operator matrix (the paper's
# Q4 read from hash and period indexes among it) under every
# ending (success, memory abort, timeout, interrupt, rollback), the
# >=90% accounting-coverage floor, streamed scans (COUNT(*) over a full
# scan and over an exact period probe, each of more rows than the 32KB
# budget holds row headers for, passing under it while the cross-product
# sort still fails), bounded top-K engagement, bounded
# memory and (TestDifferential) agreement with the full sort, the
# coalesce operator's pooled working arrays shared by two databases at
# once (answers equal to the serial ones, every account back at zero, a
# budget below the working set still aborting once the pool is warm),
# the memory-hog workload mix with and without a budget, and the wire
# layer: budget aborts as client.ErrResource on a connection that stays
# usable, memory-pressure shedding that the same connection outlives
# once the pressure lifts, the response frame cap, an OOM storm
# with bounded heap and zero goroutine leaks, and a routine that panics,
# in a SELECT, and in an UPDATE and a DELETE inside a transaction: the
# typed internal error, both connections still serving, the transaction's INSERT
# committed, the account back at zero.
mem-smoke:
	$(GO) test -race -run 'TestSetStatementMemory|TestBudgetAbort|TestMemAccountingLeakInvariant|TestAccountingCoverage|TestStreamedScanUnderBudget' -count=1 ./internal/engine
	$(GO) test -race -run 'TestTopK|TestDifferential|TestCoalescePoolShared' -count=1 ./internal/exec
	$(GO) test -race -run 'TestMemHog' -count=1 ./internal/workload
	$(GO) test -race -run 'TestBudgetAbortOverWire|TestMemShedThenSucceeds|TestResultFrameCapOverWire|TestOOMStorm|TestStatementPanicIsContained' -count=1 ./internal/server
