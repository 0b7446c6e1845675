package engine_test

// A seeded property test of multi-table commits. Three sessions write
// tables t and u, in autocommit and in transactions that commit or roll
// back, while a fourth takes checkpoints and replication snapshots. Every
// transaction changes t and u by the same multiset of values, and every
// autocommit write leaves both sums as they were, so any statement that
// reads both tables must find SUM(t.a) = SUM(u.a): one that sees half of
// a commit does not. At the end the live state, the state recovered by a
// reopen, and a replica loaded from the last replication snapshot plus
// the log frames after it must hold the same rows.
//
// The seed is printed; TIP_SEED=<seed> replays a run's random choices
// (the goroutines' interleaving is the scheduler's).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
)

// sumsQuery reads both tables in one statement, so one snapshot.
const sumsQuery = `SELECT COALESCE((SELECT SUM(a) FROM t), 0), COALESCE((SELECT SUM(a) FROM u), 0)`

// checkSums runs sumsQuery on s and reports a mismatch.
func checkSums(s *engine.Session, who string) error {
	res, err := s.Exec(sumsQuery, nil)
	if err != nil {
		return fmt.Errorf("%s: %v", who, err)
	}
	if t, u := res.Rows[0][0].Int(), res.Rows[0][1].Int(); t != u {
		return fmt.Errorf("%s: SUM(t.a) = %d, SUM(u.a) = %d: half a commit is visible", who, t, u)
	}
	return nil
}

// tableRows lists a table's values in order, one line.
func tableRows(t *testing.T, s *engine.Session, table string) string {
	t.Helper()
	var b strings.Builder
	for _, r := range mustExec(t, s, `SELECT a FROM `+table+` ORDER BY a`).Rows {
		b.WriteString(r[0].Format())
		b.WriteByte(' ')
	}
	return b.String()
}

// commitWriter runs one writer session's random workload; every error
// but ErrBusy (a table another session's transaction holds) fails it.
func commitWriter(s *engine.Session, rng *rand.Rand, ops int, who string) error {
	for range ops {
		var err error
		v := rng.Intn(50) + 1
		switch op := rng.Intn(10); {
		case op < 3: // autocommit writes that keep both sums
			stmt := [...]string{
				`INSERT INTO t VALUES (0)`,
				`INSERT INTO u VALUES (0)`,
				`DELETE FROM u WHERE a = 0`,
				fmt.Sprintf(`UPDATE t SET a = a WHERE a = %d`, v),
			}[rng.Intn(4)]
			_, err = s.Exec(stmt, nil)
		case op < 4:
			err = checkSums(s, who)
		default: // a transaction that changes t and u alike
			err = commitTxn(s, rng, v, who)
		}
		if err != nil && !errors.Is(err, engine.ErrBusy) {
			return err
		}
	}
	return nil
}

// commitTxn runs one transaction: matching changes to t and u, in a
// random order, ended by COMMIT or ROLLBACK. On ErrBusy it rolls back.
func commitTxn(s *engine.Session, rng *rand.Rand, v int, who string) error {
	if _, err := s.Exec(`BEGIN`, nil); err != nil {
		return err
	}
	var pair [2]string
	switch rng.Intn(3) {
	case 0:
		pair = [2]string{`INSERT INTO %s VALUES (%d)`, `INSERT INTO %s VALUES (%d)`}
	case 1:
		pair = [2]string{`DELETE FROM %s WHERE a = %d`, `DELETE FROM %s WHERE a = %d`}
	default:
		pair = [2]string{`UPDATE %s SET a = a + 1 WHERE a = %d`, `UPDATE %s SET a = a + 1 WHERE a = %d`}
	}
	tables := [2]string{"t", "u"}
	if rng.Intn(2) == 0 {
		tables[0], tables[1] = tables[1], tables[0]
	}
	for i, table := range tables {
		if _, err := s.Exec(fmt.Sprintf(pair[i], table, v), nil); err != nil {
			if _, rerr := s.Exec(`ROLLBACK`, nil); rerr != nil {
				return rerr
			}
			return err
		}
	}
	// Both tables are written: the transaction's own view holds too.
	if err := checkSums(s, who+" in its transaction"); err != nil {
		return err
	}
	end := `COMMIT`
	if rng.Intn(4) == 0 {
		end = `ROLLBACK`
	}
	_, err := s.Exec(end, nil)
	return err
}

// loadReplica loads a replication snapshot into a fresh database.
func loadReplica(reg *blade.Registry, snap *engine.Snapshot) (*engine.Database, error) {
	var frames [][]byte
	if err := snap.Encode(func(body []byte) error {
		frames = append(frames, append([]byte(nil), body...))
		return nil
	}); err != nil {
		return nil, err
	}
	replica := engine.New(reg)
	err := replica.LoadReplicaSnapshot(func() ([]byte, error) {
		if len(frames) == 0 {
			return nil, nil
		}
		body := frames[0]
		frames = frames[1:]
		return body, nil
	})
	return replica, err
}

func TestMultiTableCommitProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	if env := os.Getenv("TIP_SEED"); env != "" {
		var err error
		if seed, err = strconv.ParseInt(env, 10, 64); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("seed %d (rerun with TIP_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.NewSession()
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `CREATE TABLE u (a INT)`)

	ops := 400
	if testing.Short() {
		ops = 150
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := range 3 {
		ws, wrng, who := db.NewSession(), rand.New(rand.NewSource(rng.Int63())), fmt.Sprintf("writer %d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ws.Close()
			if err := commitWriter(ws, wrng, ops, who); err != nil {
				errs <- err
			}
		}()
	}
	// The control session: checkpoints, replication snapshots (each
	// loaded and checked), and reads, ending with a snapshot so that the
	// replica below has log frames after it to apply.
	var last *engine.Snapshot
	crng := rand.New(rand.NewSource(rng.Int63()))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ops / 5 {
			var err error
			switch op := crng.Intn(3); {
			case i == ops/5-1 || op == 0:
				last = db.ReplicationSnapshot()
				var replica *engine.Database
				if replica, err = loadReplica(reg, last); err == nil {
					err = checkSums(replica.NewSession(), "a replica of a replication snapshot")
				}
			case op == 1:
				err = db.Checkpoint()
			default:
				err = checkSums(s, "the control session")
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	// A few commits after the last snapshot, whatever the writers did.
	for v := 1; v <= 3; v++ {
		mustExec(t, s, `BEGIN`)
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, v))
		mustExec(t, s, fmt.Sprintf(`INSERT INTO u VALUES (%d)`, v))
		mustExec(t, s, `COMMIT`)
	}
	live := tableRows(t, s, "t") + "| " + tableRows(t, s, "u")

	// The replica: the last replication snapshot, then every frame after
	// its seq (the control session took no checkpoint after it).
	replica, err := loadReplica(reg, last)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := db.TailWAL(last.Seq())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	for {
		body, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if body == nil {
			break
		}
		_, payload, err := engine.DecodeWALFrameBody(body)
		if err == nil {
			err = replica.ApplyWALPayload(payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	rs := replica.NewSession()
	if got := tableRows(t, rs, "t") + "| " + tableRows(t, rs, "u"); got != live {
		t.Errorf("replica (snapshot at seq %d + its log tail):\n%s\nlive:\n%s", last.Seq(), got, live)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := engine.Open(reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ro := reopened.NewSession()
	if got := tableRows(t, ro, "t") + "| " + tableRows(t, ro, "u"); got != live {
		t.Errorf("reopened:\n%s\nlive:\n%s", got, live)
	}
	if err := checkSums(ro, "the reopened database"); err != nil {
		t.Error(err)
	}
}
