package main

// The end-to-end run: set-up, a closed loop over loopback TCP, the
// checks on every answer, and the statistics of the rounds.

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tip"
	"tip/internal/client"
	"tip/internal/exec"
	"tip/internal/server"
	"tip/internal/temporal"
	"tip/internal/types"
)

const (
	rounds    = 5 // equal slices of the measured time; metrics are medians of rounds
	setups    = 3 // set-ups per end-to-end run; setup_s is their median
	warmShare = 5 // the warm-up lasts 1/warmShare of the measured time
)

// workload is one traffic mix. traced is how many statements of the
// stream the traced run replays.
type workload struct {
	name    string
	why     string
	clients int
	traced  int
	gen     generator
	// planLine is a fragment EXPLAIN must show for the workload's query,
	// so that a planner change cannot silently turn it into another one.
	explain, planLine string
}

var workloads = []workload{
	{name: "insert_durable", clients: 1, traced: 2000, gen: genInserts,
		why: "tiny parameterised INSERTs: client, protocol, server and the WAL + slab/index write path do the work, exec almost none"},
	{name: "point_mix", clients: 2, traced: 2000, gen: genPointMix,
		why:     "2 clients, 80/20 hash-index point reads beside INSERTs on one table; 2 statement texts fit the 256-entry plan cache",
		explain: `EXPLAIN SELECT drug, dosage, valid FROM Prescription WHERE patient = 'patient0000'`, planLine: "hash index on patient"},
	{name: "period_probe", clients: 1, traced: 200, gen: genProbes,
		why:     "COUNT(*) over overlaps(valid, literal window): exec + period index + temporal; ~1000 distinct texts overflow the plan cache",
		explain: `EXPLAIN SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '[1998-01-05, 1998-01-09]')`, planLine: "period index on valid"},
	{name: "coalesce", clients: 1, traced: 200, gen: genCoalesce,
		why:     "the paper's Q4 length(group_union(valid)) GROUP BY patient: coalesce operator and temporal dominate, result encode/decode second",
		explain: "EXPLAIN " + sqlCoalesce, planLine: "coalesce:"},
	{name: "period_join", clients: 1, traced: 200, gen: genJoins,
		why:     "4 visit rows joined to Prescription by overlaps(p.valid, v.during): period-index nested-loop join and per-pair blade re-checks",
		explain: `EXPLAIN SELECT COUNT(*) FROM visit v, Prescription p WHERE v.id BETWEEN 0 AND 3 AND overlaps(p.valid, v.during)`, planLine: "period-index nested loop on valid"},
}

// pools builds one statement pool per client, each from its own stream
// of the seed.
func (w *workload) pools(seed int64, db *tip.DB, ds *dataset) [][]stmt {
	out := make([][]stmt, w.clients)
	for c := range out {
		out[c] = w.gen(rand.New(rand.NewSource(seed*31+int64(c)+1)), db.Blade(), ds)
	}
	return out
}

// instance is one served database and the connections into it.
type instance struct {
	dir   string
	db    *tip.DB
	srv   *server.Server
	conns []*client.Conn
}

// openDurable opens dir with the durability policy every workload
// runs under and the pinned clock.
func openDurable(dir string) (*tip.DB, error) {
	db, err := tip.OpenDurable(dir)
	if err != nil {
		return nil, err
	}
	db.SetDurability(tip.SyncGrouped, 0) // 0 keeps the 2 ms default
	db.SetClock(pinnedNow)
	return db, nil
}

// execer is the part of client.Conn and engine.Session the loader needs.
type execer interface {
	Exec(sql string, params map[string]types.Value) (*exec.Result, error)
}

// load creates the schema, inserts the dataset row by row, builds the
// indexes and checks that the workload's query gets the plan it is
// meant to measure.
func load(x execer, db *tip.DB, ds *dataset, w *workload) error {
	b := db.Blade()
	run := func(sql string, params map[string]types.Value) error {
		if _, err := x.Exec(sql, params); err != nil {
			return fmt.Errorf("%s: %w", strings.Fields(sql)[0], err)
		}
		return nil
	}
	if err := run(sqlSchemaP, nil); err != nil {
		return err
	}
	if err := run(sqlSchemaV, nil); err != nil {
		return err
	}
	for i := range ds.rows {
		if err := run(sqlInsertP, insertStmt(b, &ds.rows[i]).params); err != nil {
			return err
		}
	}
	for i := range ds.visits {
		if err := run(sqlInsertV, visitParams(b, &ds.visits[i])); err != nil {
			return err
		}
	}
	if err := run(sqlIndexPat, nil); err != nil {
		return err
	}
	if err := run(sqlIndexVal, nil); err != nil {
		return err
	}
	if w.explain == "" {
		return nil
	}
	res, err := x.Exec(w.explain, nil)
	if err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0].Str(), w.planLine) {
			return nil
		}
	}
	return fmt.Errorf("%s: plan lacks %q:\n%s", w.name, w.planLine, tip.Format(res))
}

// setup is what setup_s times: open, serve, connect, schema, bulk load
// through the first connection, and the index builds.
func setup(dir string, ds *dataset, w *workload) (*instance, error) {
	db, err := openDurable(dir)
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, db: db}
	if in.srv, err = db.Serve("127.0.0.1:0"); err != nil {
		in.close()
		return nil, err
	}
	for range w.clients {
		c, err := client.Connect(in.srv.Addr(), db.Engine().Registry())
		if err != nil {
			in.close()
			return nil, err
		}
		in.conns = append(in.conns, c)
	}
	if err := load(in.conns[0], db, ds, w); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close stops the server, waits for its connections to end, releases
// the WAL and removes the directory.
func (in *instance) close() {
	for _, c := range in.conns {
		_ = c.Close() // the server is going away with it
	}
	if in.srv != nil {
		_ = in.srv.Close() // only ever reports the listener's close error
	}
	_ = in.db.Close() // flush error of a directory about to be removed
	_ = os.RemoveAll(in.dir)
}

// timedSetup sets up n times in fresh directories and keeps the last
// instance; it returns every set-up's duration in seconds.
func timedSetup(outDir string, ds *dataset, w *workload, n int) (*instance, []float64, error) {
	var in *instance
	var secs []float64
	for k := 0; k < n; k++ {
		if in != nil {
			in.close()
		}
		dir, err := os.MkdirTemp(outDir, "data-"+w.name+"-")
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if in, err = setup(dir, ds, w); err != nil {
			_ = os.RemoveAll(dir)
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return in, secs, nil
}

// checker holds one client's view of what the answers must be.
type checker struct {
	ds       *dataset
	groups   int   // patients with at least one row
	inserted []int // this client's acknowledged inserts, by patient
	acked    int
}

func newChecker(ds *dataset) *checker {
	c := &checker{ds: ds, inserted: make([]int, ds.z.patients)}
	for _, n := range ds.perPatient {
		if n > 0 {
			c.groups++
		}
	}
	return c
}

// ok reports whether the server's answer to st is the model's.
func (c *checker) ok(st *stmt, res *exec.Result) bool {
	switch st.kind {
	case kindInsert:
		if res.Affected != 1 {
			return false
		}
		c.inserted[st.arg]++
		c.acked++
		return true
	case kindPointRead:
		// Another client may have added rows for the patient; the base
		// load plus this client's own acknowledged inserts is the floor.
		return len(res.Cols) == 3 && len(res.Rows) >= c.ds.perPatient[st.arg]+c.inserted[st.arg]
	case kindProbe, kindJoin:
		return len(res.Rows) == 1 && res.Rows[0][0].Int() == st.arg
	case kindCoalesce:
		if len(res.Rows) != c.groups {
			return false
		}
		for _, row := range res.Rows {
			p, err := strconv.Atoi(strings.TrimPrefix(row[0].Str(), "patient"))
			if err != nil || p < 0 || p >= len(c.ds.q4) {
				return false
			}
			if got, isSpan := row[1].Obj().(temporal.Span); !isSpan || got != c.ds.q4[p] {
				return false
			}
		}
		return true
	}
	return false
}

// clientRun is what one client measured.
type clientRun struct {
	lat       [rounds][]int64 // nanoseconds, by round
	attempted int
	failed    int
	firstErr  error
}

// drive runs one client's closed loop: the next statement is sent when
// the previous answer has arrived and been checked. Statements sent
// before begin warm the system up and are not recorded; the loop ends
// with the first statement that completes after the last round.
func drive(conn *client.Conn, pool []stmt, chk *checker, begin time.Time, roundDur time.Duration, run *clientRun) {
	for i := 0; ; i++ {
		st := &pool[i%len(pool)]
		t0 := time.Now()
		res, err := conn.Exec(st.sql, st.params)
		t1 := time.Now()
		good := err == nil && chk.ok(st, res)
		if !good && run.firstErr == nil {
			run.firstErr = fmt.Errorf("%s: wrong answer", st.sql)
			if err != nil {
				run.firstErr = err
			}
		}
		r := int(t1.Sub(begin) / roundDur)
		if t0.Before(begin) || r >= rounds {
			if !good { // outside the rounds a failure still fails the run
				run.attempted++
				run.failed++
			}
			if r >= rounds {
				return
			}
			continue
		}
		run.lat[r] = append(run.lat[r], int64(t1.Sub(t0)))
		run.attempted++
		if !good {
			run.failed++
		}
	}
}

// measured is the outcome of the closed loop on all clients.
type measured struct {
	lat       [rounds][]int64 // all clients' samples, sorted, by round
	roundDur  time.Duration
	attempted int
	failed    int
	firstErr  error
	acked     int // inserts acknowledged, warm-up included
}

// measure warms up, then drives every connection for the given time.
func measure(in *instance, pools [][]stmt, ds *dataset, dur time.Duration) *measured {
	roundDur := dur / rounds
	begin := time.Now().Add(dur / warmShare)
	runs := make([]clientRun, len(in.conns))
	chks := make([]*checker, len(in.conns))
	var wg sync.WaitGroup
	for c := range in.conns {
		chks[c] = newChecker(ds)
		for r := range runs[c].lat {
			runs[c].lat[r] = make([]int64, 0, 1<<17)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(in.conns[c], pools[c], chks[c], begin, roundDur, &runs[c])
		}()
	}
	wg.Wait()
	m := &measured{roundDur: roundDur}
	for c := range runs {
		for r := range m.lat {
			m.lat[r] = append(m.lat[r], runs[c].lat[r]...)
		}
		m.attempted += runs[c].attempted
		m.failed += runs[c].failed
		m.acked += chks[c].acked
		if m.firstErr == nil {
			m.firstErr = runs[c].firstErr
		}
	}
	for r := range m.lat {
		sort.Slice(m.lat[r], func(i, j int) bool { return m.lat[r][i] < m.lat[r][j] })
	}
	return m
}

// countRows asks for COUNT(*) of Prescription.
func countRows(x execer) (int64, error) {
	res, err := x.Exec(sqlCount, nil)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].Int(), nil
}

// verifyInserts checks, after a run that inserted, that the table holds
// the base load plus every acknowledged insert, and that the same count
// comes back once the directory is closed and re-opened, which replays
// the WAL. Each wrong count is one more failed check.
func verifyInserts(in *instance, ds *dataset, m *measured) error {
	want := int64(len(ds.rows) + m.acked)
	m.attempted += 2
	got, err := countRows(in.conns[0])
	if err != nil || got != want {
		m.failed++
		return fmt.Errorf("COUNT(*) after run = %d (%v), want %d", got, err, want)
	}
	// Stop the server and release the WAL, but keep the directory.
	dir := in.dir
	in.dir = ""
	in.close()
	defer os.RemoveAll(dir)
	db, err := openDurable(dir)
	if err != nil {
		m.failed++
		return fmt.Errorf("re-open: %w", err)
	}
	defer db.Close()
	got, err = countRows(db.Session().Raw())
	if err != nil || got != want {
		m.failed++
		return fmt.Errorf("COUNT(*) after re-open = %d (%v), want %d", got, err, want)
	}
	return nil
}

// Statistics of sorted nanosecond samples.

func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func quantiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(q float64) float64 { // linear interpolation between order statistics
		pos := q * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

// summary is a metric over the rounds: the median, the quartile spread
// as a share of it, and how many samples stand behind it.
type summary struct {
	median, spread float64
	n              int
}

func summarize(vals []float64, n int) summary {
	q1, med, q3 := quantiles(vals)
	s := summary{median: med, n: n}
	if med != 0 {
		s.spread = (q3 - q1) / med
	}
	return s
}

// tail is the highest of the usual percentiles that still has at least
// ten samples beyond it.
func tail(n int) (string, float64) {
	name, q := "p50", 0.5
	for _, c := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}} {
		if float64(n)*(1-c.q) >= 10 {
			name, q = c.name, c.q
		}
	}
	return name, q
}

const msPerNs = 1e-6

// endToEnd turns the rounds into the end-to-end metrics.
func (m *measured) endToEnd() (tput, p50, p95 summary, tailName string, tailMs float64) {
	var tputs, p50s, p95s []float64
	var all []int64
	for r := range m.lat {
		tputs = append(tputs, float64(len(m.lat[r]))/m.roundDur.Seconds())
		p50s = append(p50s, percentile(m.lat[r], 0.50)*msPerNs)
		p95s = append(p95s, percentile(m.lat[r], 0.95)*msPerNs)
		all = append(all, m.lat[r]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	tailName, q := tail(len(all))
	return summarize(tputs, len(all)), summarize(p50s, len(all)), summarize(p95s, len(all)),
		tailName, percentile(all, q) * msPerNs
}
