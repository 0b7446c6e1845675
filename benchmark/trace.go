package main

// The traced run. Every statement of the head of the workload's stream
// is executed once through each public entry point, from the outside
// in: client.Conn.Exec against the served database, Session.Exec on an
// embedded durable twin, Session.ExecStmt on a twin without a WAL, and
// the kernel calls that statement rests on. Each call is one span whose
// parent is the call one level further out, so a layer's self time is
// what it adds on top of the layers below it. The spans are recorded
// here, around the calls into each layer; nothing inside the program is
// instrumented.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tip"
	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/index"
	"tip/internal/obs"
	"tip/internal/protocol"
	"tip/internal/sql/ast"
	"tip/internal/sql/parse"
	"tip/internal/storage"
	"tip/internal/temporal"
)

// Layer names, outermost first. The root span is client.Conn.Exec; what
// is left of it once the engine and the codec are taken out is the
// client and server loops, the socket and the goroutine hand-offs.
const (
	layerWire     = "client+server"
	layerProtocol = "protocol"
	layerEngine   = "engine.front"
	layerParse    = "sql.parse"
	layerExec     = "exec"
	layerSearch   = "index.period_search"
	layerOverlaps = "temporal.overlaps"
	layerCoalesce = "temporal.coalesce"
	layerInsert   = "storage.insert"
)

var layerOrder = []string{layerWire, layerProtocol, layerEngine, layerParse, layerExec,
	layerSearch, layerOverlaps, layerCoalesce, layerInsert}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root of a statement
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	origin time.Time
	stmt   int
	spans  []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Stmt: t.stmt, Name: name,
		Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

// layerRow is one line of the layer table.
type layerRow struct {
	calls   int
	selfNs  int64   // over all statements; these add up to the root spans
	perStmt []int64 // by statement, sorted; its median resists the odd stall
}

// layers folds the spans of n statements into self time per layer: a
// span's duration minus its children's.
func (t *tracer) layers(n int) (map[string]*layerRow, int64) {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	rows := map[string]*layerRow{}
	var rootNs int64
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{perStmt: make([]int64, n)}
			rows[s.Name] = r
		}
		r.calls++
		r.selfNs += self[i]
		r.perStmt[s.Stmt] += self[i]
		if s.Parent < 0 {
			rootNs += s.End - s.Start
		}
	}
	for _, r := range rows {
		slices.Sort(r.perStmt)
	}
	return rows, rootNs
}

// kernels are the structures the kernel spans run on, built from the
// same rows as the tables: the floor each workload's statement can
// approach.
type kernels struct {
	rows      []prescription
	byPatient [][]int
	periods   *index.Period
	slab      *storage.Version
	ivs       []temporal.Interval
}

func newKernels(ds *dataset) *kernels {
	k := &kernels{rows: ds.rows, byPatient: make([][]int, ds.z.patients), slab: storage.NewVersion()}
	pb := index.NewPeriodBuilder(nil)
	sb := k.slab.NewBuilder(1, 1)
	for i := range ds.rows {
		p := &ds.rows[i]
		k.byPatient[p.patient] = append(k.byPatient[p.patient], i)
		pb.AddElement(p.valid, i)
		sb.Insert(nil)
	}
	k.periods, k.slab = pb.Commit(), sb.Commit()
	return k
}

// overlapping is the period-index search plus the blade re-check of
// every candidate, as two spans under parent; it returns the matches.
func (k *kernels) overlapping(tr *tracer, parent int, lo, hi temporal.Chronon) int64 {
	sp := tr.begin(layerSearch, parent)
	ids := k.periods.Search(lo, hi)
	tr.end(sp)
	window := temporal.MustPeriod(lo, hi).Element()
	sp = tr.begin(layerOverlaps, parent)
	var n int64
	for _, id := range ids {
		if k.rows[id].valid.Overlaps(window, pinnedNow) {
			n++
		}
	}
	tr.end(sp)
	return n
}

// coalesce is the temporal share of Q4: per patient, bind the periods,
// order them, merge them into one element and take its length.
func (k *kernels) coalesce(tr *tracer, parent int) temporal.Span {
	sp := tr.begin(layerCoalesce, parent)
	var total temporal.Span
	for _, ids := range k.byPatient {
		if len(ids) == 0 {
			continue
		}
		k.ivs = k.ivs[:0]
		for _, id := range ids {
			k.ivs = k.rows[id].valid.AppendBound(k.ivs, pinnedNow)
		}
		slices.SortFunc(k.ivs, func(a, b temporal.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		total += temporal.ElementOfIntervals(k.ivs).Length(pinnedNow)
	}
	tr.end(sp)
	return total
}

func (k *kernels) insert(tr *tracer, parent int, st *stmt) {
	row := storage.Row{st.params["doc"], st.params["pat"], st.params["dob"], st.params["drug"],
		st.params["dose"], st.params["freq"], st.params["valid"]}
	seq := k.slab.Seq() + 1
	sp := tr.begin(layerInsert, parent)
	b := k.slab.NewBuilder(seq, seq)
	b.Insert(row)
	k.slab = b.Commit()
	tr.end(sp)
}

// run replays the statement's kernels under parent and reports whether
// they reach the model's answer too.
func (k *kernels) run(tr *tracer, parent int, st *stmt, want temporal.Span) bool {
	switch st.kind {
	case kindInsert:
		k.insert(tr, parent, st)
	case kindProbe:
		return k.overlapping(tr, parent, st.lo, st.hi) == st.arg
	case kindJoin:
		var n int64
		for _, v := range st.visits {
			n += k.overlapping(tr, parent, dayStart(v.lo), dayEnd(v.hi))
		}
		return n == st.arg
	case kindCoalesce:
		return k.coalesce(tr, parent) == want
	}
	return true
}

// codec replays the wire encoding of one message pair on a buffer: the
// frame is built, written, read back and decoded, as client and server
// do between them.
type codec struct {
	buf bytes.Buffer
	w   *bufio.Writer
	r   *bufio.Reader
}

func newCodec() *codec {
	c := &codec{}
	c.w, c.r = bufio.NewWriter(&c.buf), bufio.NewReader(&c.buf)
	return c
}

func (c *codec) roundTrip(payload []byte) ([]byte, error) {
	if err := protocol.WriteFrame(c.w, payload); err != nil {
		return nil, err
	}
	return protocol.ReadFrame(c.r)
}

var actualRows = regexp.MustCompile(`actual rows=(\d+)`)

// rowsExamined runs EXPLAIN ANALYZE for st on the embedded twin and
// adds up the rows its scans and joins produced.
func rowsExamined(sess *engine.Session, st *stmt) (float64, error) {
	res, err := sess.Exec("EXPLAIN ANALYZE "+st.sql, st.params)
	if err != nil {
		return 0, err
	}
	var n float64
	for _, row := range res.Rows {
		line := strings.TrimSpace(row[0].Str())
		if !strings.HasPrefix(line, "scan ") && !strings.HasPrefix(line, "join ") {
			continue
		}
		if m := actualRows.FindStringSubmatch(line); m != nil {
			v, _ := strconv.ParseFloat(m[1], 64) // the pattern admits only digits
			n += v
		}
	}
	return n, nil
}

// heapStats reads the objects allocated so far and the bytes of live
// and unswept heap objects, without stopping the world as
// runtime.ReadMemStats would in the middle of a measured batch.
func heapStats() (allocs, heapBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// delta reads a counter's growth between two metrics snapshots.
func delta(before, after obs.Snapshot, name string) float64 {
	b, _ := before.Get(name)
	a, _ := after.Get(name)
	return a - b
}

// traceBatches is how many batches the traced statements are cut into.
// A batch runs back to back through one entry point before the next
// entry point replays it, so that each layer is measured warm, as in the
// untraced run; many batches keep the layers close in time, so that a
// change in the machine's speed falls on all of them alike.
const traceBatches = 40

// tracedRun is the state of one traced run. A is the served database,
// B the embedded durable twin and C the twin without a WAL; each gets
// the same stream, typed for its own registry, and so every write once.
type tracedRun struct {
	cfg                 config
	tr                  *tracer
	res                 *result
	conn                *client.Conn
	reg                 *blade.Registry
	sessB, sessC        *engine.Session
	poolA, poolB, poolC []stmt
	kern                *kernels
	cdc                 *codec
	chkA, chkB, chkC    *checker
	q4Total             temporal.Span
	trees               map[string]ast.Statement // by statement text

	userBytes, mallocs, peakHeap uint64
	examined, returned           float64
}

func (r *tracedRun) fail(st *stmt, what string, err error) {
	r.res.Failed++
	fmt.Fprintf(r.cfg.log, "  FAILED: %s: %s: %v\n", what, st.sql, err)
}

// batch traces statements [lo, hi) of the stream.
func (r *tracedRun) batch(lo, hi int) error {
	tr := r.tr
	at := func(pool []stmt, i int) *stmt { return &pool[i%len(pool)] }
	roots, engs := make([]int, hi-lo), make([]int, hi-lo)
	trees := make([]ast.Statement, hi-lo)
	got := make([]*exec.Result, hi-lo)
	for i := lo; i < hi; i++ {
		st := at(r.poolA, i)
		tr.stmt = i
		r.res.Attempted++
		roots[i-lo] = tr.begin(layerWire, -1)
		res, err := r.conn.Exec(st.sql, st.params)
		tr.end(roots[i-lo])
		if err != nil || !r.chkA.ok(st, res) {
			r.fail(st, "served database", err)
			res = &exec.Result{}
		}
		got[i-lo] = res
	}
	for i := lo; i < hi; i++ {
		st := at(r.poolA, i)
		tr.stmt = i
		sp := tr.begin(layerProtocol, roots[i-lo])
		frame, err := r.cdc.roundTrip(protocol.EncodeQuery(protocol.Query{SQL: st.sql, Params: st.params}))
		if err == nil {
			_, err = protocol.DecodeQuery(r.reg, frame[1:])
		}
		tr.end(sp)
		if err == nil {
			sp = tr.begin(layerProtocol, roots[i-lo])
			if frame, err = r.cdc.roundTrip(protocol.EncodeResult(got[i-lo])); err == nil {
				_, err = protocol.DecodeResult(r.reg, frame[1:])
			}
			tr.end(sp)
		}
		if err != nil {
			r.fail(st, "codec replay", err)
		}
	}
	for i := lo; i < hi; i++ {
		st := at(r.poolB, i)
		tr.stmt = i
		_, missesBefore := r.sessB.CacheStats()
		engs[i-lo] = tr.begin(layerEngine, roots[i-lo])
		res, err := r.sessB.Exec(st.sql, st.params)
		tr.end(engs[i-lo])
		if err != nil || !r.chkB.ok(st, res) {
			r.fail(st, "durable twin", err)
		}
		// Parsing is part of the statement only when the plan cache
		// missed; C then runs the fresh tree, and the kept one otherwise,
		// as the session behind B does.
		if _, misses := r.sessB.CacheStats(); misses > missesBefore || r.trees[st.sql] == nil {
			sp := tr.begin(layerParse, engs[i-lo])
			tree, err := parse.Parse(st.sql)
			tr.end(sp)
			if err != nil {
				return err
			}
			r.trees[st.sql] = tree
			if misses == missesBefore {
				tr.spans = tr.spans[:sp] // parsed for the harness alone
			}
		}
		trees[i-lo] = r.trees[st.sql]
	}
	exs := make([]int, hi-lo)
	allocs0, _ := heapStats()
	for i := lo; i < hi; i++ {
		st := at(r.poolC, i)
		tr.stmt = i
		exs[i-lo] = tr.begin(layerExec, engs[i-lo])
		res, err := r.sessC.ExecStmt(trees[i-lo], st.params)
		tr.end(exs[i-lo])
		if err != nil || !r.chkC.ok(st, res) {
			r.fail(st, "twin without WAL", err)
		}
	}
	allocs1, heap := heapStats()
	r.mallocs += allocs1 - allocs0
	r.peakHeap = max(r.peakHeap, heap)
	for i := lo; i < hi; i++ {
		st := at(r.poolC, i)
		tr.stmt = i
		if !r.kern.run(tr, exs[i-lo], st, r.q4Total) {
			r.fail(st, "kernel replay", nil)
		}
		if st.kind == kindInsert {
			for _, v := range st.params {
				r.userBytes += uint64(len(v.AppendBinary(nil)))
			}
		} else if r.returned == 0 {
			var err error
			if r.examined, err = rowsExamined(r.sessC, st); err != nil {
				return err
			}
			r.returned = float64(max(len(got[i-lo].Rows), 1))
		}
	}
	return nil
}

// traceWorkload is the -trace run of one workload on the instance `in`.
func traceWorkload(w *workload, cfg config, in *instance, ds *dataset, poolA []stmt) (*result, error) {
	dirB, err := os.MkdirTemp(cfg.outDir, "twin-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dirB)
	dbB, err := openDurable(dirB)
	if err != nil {
		return nil, err
	}
	defer dbB.Close()
	dbC := tip.Open()
	dbC.SetClock(pinnedNow)
	r := &tracedRun{cfg: cfg, res: &result{}, conn: in.conns[0], reg: in.db.Engine().Registry(),
		sessB: dbB.Session().Raw(), sessC: dbC.Session().Raw(),
		poolA: poolA, poolB: w.pools(cfg.seed, dbB, ds)[0], poolC: w.pools(cfg.seed, dbC, ds)[0],
		kern: newKernels(ds), cdc: newCodec(), chkA: newChecker(ds), chkB: newChecker(ds), chkC: newChecker(ds),
		trees: map[string]ast.Statement{}}
	if err := load(r.sessB, dbB, ds, w); err != nil {
		return nil, fmt.Errorf("durable twin: %w", err)
	}
	if err := load(r.sessC, dbC, ds, w); err != nil {
		return nil, fmt.Errorf("twin without WAL: %w", err)
	}
	for _, l := range ds.q4 {
		r.q4Total += max(l, 0)
	}

	conn, res := r.conn, r.res
	before, err := conn.Stats()
	if err != nil {
		return nil, err
	}
	tr := &tracer{origin: time.Now(), spans: make([]span, 0, 16*w.traced)}
	r.tr = tr
	deadline := tr.origin.Add(cfg.dur)
	step := max(w.traced/traceBatches, 1)
	for lo := 0; lo < w.traced && time.Now().Before(deadline); lo += step {
		if err := r.batch(lo, min(lo+step, w.traced)); err != nil {
			return nil, err
		}
	}
	after, err := conn.Stats()
	if err != nil {
		return nil, err
	}
	if err := writeTrace(filepath.Join(cfg.outDir, "trace_"+w.name+".json"), tr.spans); err != nil {
		return nil, err
	}

	// The same stream untraced, on one connection, for the overhead.
	one := *in
	one.conns = in.conns[:1]
	m := measure(&one, [][]stmt{r.poolA}, ds, cfg.dur/5)
	_, untraced, _, _, _ := m.endToEnd()

	rows, rootNs := tr.layers(res.Attempted)
	perStmt := func(layer string) float64 {
		if r := rows[layer]; r != nil {
			return percentile(r.perStmt, 0.5) * msPerNs
		}
		return 0
	}
	var roots []int64
	for _, s := range tr.spans {
		if s.Parent < 0 {
			roots = append(roots, s.End-s.Start)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	rootP50 := percentile(roots, 0.5) * msPerNs
	hits, misses := delta(before, after, "plancache.hits"), delta(before, after, "plancache.misses")
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	n := res.Attempted
	res.Attempted += m.attempted
	res.Failed += m.failed
	res.Correct = res.Failed == 0
	res.Metrics = map[string]metric{
		"client_server.self_ms":      {perStmt(layerWire), "ms"},
		"protocol.codec_ms":          {perStmt(layerProtocol), "ms"},
		"engine.front_ms":            {perStmt(layerEngine), "ms"},
		"sql.parse_ms":               {perStmt(layerParse), "ms"},
		"exec.self_ms":               {perStmt(layerExec), "ms"},
		"index.period_search_ms":     {perStmt(layerSearch), "ms"},
		"temporal.overlaps_ms":       {perStmt(layerOverlaps), "ms"},
		"temporal.coalesce_ms":       {perStmt(layerCoalesce), "ms"},
		"storage.insert_ms":          {perStmt(layerInsert), "ms"},
		"wal.appends":                {delta(before, after, "wal.appends"), "count"},
		"wal.fsyncs":                 {delta(before, after, "wal.fsyncs"), "count"},
		"wal_bytes_per_user_byte":    {ratio(delta(before, after, "wal.bytes"), float64(r.userBytes)), "ratio"},
		"plancache.hit_rate":         {ratio(hits, hits+misses), "ratio"},
		"rows_read_per_row_returned": {ratio(r.examined, r.returned), "ratio"},
		"allocs_per_op":              {float64(r.mallocs) / float64(max(n, 1)), "count"},
		"process.peak_heap_mb":       {float64(r.peakHeap) / (1 << 20), "MB"},
		"trace.root_p50_ms":          {rootP50, "ms"},
		"trace.overhead_pct":         {100 * (ratio(rootP50, untraced.median) - 1), "%"},
	}

	fmt.Fprintf(cfg.log, "%s  traced: %d statements, 1 client, seed %d -> %s\n", w.name, n, cfg.seed, filepath.Join(cfg.outDir, "trace_"+w.name+".json"))
	printLayers(cfg.log, rows, rootNs)
	fmt.Fprintf(cfg.log, "  traced root p50 %.4f ms vs untraced latency_p50_ms %.4f ms (%d samples): tracing overhead %+.1f%%\n",
		rootP50, untraced.median, untraced.n, res.Metrics["trace.overhead_pct"].Value)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(cfg.log, "  %-28s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// printLayers prints the layer table: the self times add up to the
// root spans; a total that is negative beyond what noise between the
// entry points explains means the harness attributes time wrongly.
func printLayers(out io.Writer, rows map[string]*layerRow, rootNs int64) {
	fmt.Fprintf(out, "  %-22s %8s %12s %9s %16s\n", "layer", "calls", "self ms", "of root", "self ms/stmt p50")
	var sumNs int64
	for _, name := range layerOrder {
		r := rows[name]
		if r == nil {
			continue
		}
		sumNs += r.selfNs
		flag := ""
		if float64(r.selfNs) < -0.10*float64(rootNs) {
			flag = "  HARNESS ERROR: negative self time beyond noise"
		}
		fmt.Fprintf(out, "  %-22s %8d %12.3f %8.1f%% %16.4f%s\n", name, r.calls, float64(r.selfNs)*msPerNs,
			100*float64(r.selfNs)/float64(rootNs), percentile(r.perStmt, 0.5)*msPerNs, flag)
	}
	fmt.Fprintf(out, "  %-22s %8s %12.3f %8.1f%%  (root spans: %.3f ms)\n", "sum", "", float64(sumNs)*msPerNs, 100*float64(sumNs)/float64(rootNs), float64(rootNs)*msPerNs)
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
