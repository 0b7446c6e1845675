// Command tipserver runs a TIP-enabled database server: the DBMS process
// of the paper's Figure 1. Clients connect with the TIP wire protocol
// (internal/client, cmd/tipsql, cmd/tipbrowse).
//
// Usage:
//
//	tipserver -addr :4711                      # empty in-memory database
//	tipserver -addr :4711 -durable ./dbdir     # WAL-backed, crash-safe
//	tipserver -durable ./dbdir -durability strict         # fsync every append
//	tipserver -durable ./dbdir -durability grouped=5ms    # background group fsync
//	tipserver -addr :4711 -demo 500            # synthetic medical demo data
//	tipserver -addr :4711 -metrics :8711       # expvar-style /stats endpoint
//	tipserver -addr :4711 -slowquery 50ms      # log statements slower than 50ms
//	tipserver -stmt-timeout 30s                # cap every statement's runtime
//	tipserver -stmt-mem 64MB                   # cap every statement's buffered bytes
//	tipserver -mem-budget 1GB                  # engine-wide budget; shed under pressure
//	tipserver -max-conns 512 -max-inflight 64  # admission control
//	tipserver -drain-timeout 10s               # graceful-shutdown drain budget
//
// Replication (see DESIGN.md "Replication"): a durable server is
// automatically a replication primary; read replicas bootstrap from it
// and serve read-only queries:
//
//	tipserver -addr :4711 -durable ./dbdir                  # primary
//	tipserver -addr :4712 -replicate-from 127.0.0.1:4711    # read replica
//	tipserver -addr :4713 -replicate-from 127.0.0.1:4711 -advertise r2
//
// A durable database is one directory: snapshot.tipdb plus wal.log. A
// graceful shutdown (SIGINT, SIGTERM) checkpoints it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tip"
	"tip/internal/engine"
	"tip/internal/repl"
	"tip/internal/server"
	"tip/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4711", "listen address")
	durable := flag.String("durable", "", "directory for a WAL-backed, crash-safe database")
	durability := flag.String("durability", "grouped",
		`WAL fsync policy with -durable: "grouped[=interval]" or "strict"`)
	demo := flag.Int("demo", 0, "load N synthetic prescriptions on start")
	metrics := flag.String("metrics", "", "serve the metrics snapshot as JSON on this HTTP address (/stats)")
	slow := flag.Duration("slowquery", 0, "log statements slower than this (0 disables)")
	stmtTimeout := flag.Duration("stmt-timeout", 0,
		"cap statement runtime; sessions may override with SET STATEMENT_TIMEOUT (0 disables)")
	stmtMem := flag.String("stmt-mem", "0",
		"cap each statement's buffered bytes ('64MB'); sessions may override with SET STATEMENT_MEMORY (0 disables)")
	memBudget := flag.String("mem-budget", "0",
		"engine-wide memory budget ('1GB'); queries are shed while usage is near it (0 disables)")
	maxConns := flag.Int("max-conns", 0, "reject connections beyond this limit with a busy error (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "shed queries beyond this many executing statements (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long graceful shutdown waits for in-flight statements before interrupting them")
	replicateFrom := flag.String("replicate-from", "",
		"run as a read-only replica of the primary at this address")
	advertise := flag.String("advertise", "",
		"name this replica reports to the primary (default: the listen address)")
	flag.Parse()

	if *replicateFrom != "" && (*durable != "" || *demo > 0) {
		log.Fatal("-replicate-from is exclusive with -durable and -demo: a replica's state comes from its primary")
	}

	var db *tip.DB
	if *durable == "" {
		db = tip.Open()
	} else {
		policy, interval, err := tip.ParseDurability(*durability)
		if err != nil {
			log.Fatalf("-durability: %v", err)
		}
		if db, err = tip.OpenDurable(*durable); err != nil {
			log.Fatalf("open durable %s: %v", *durable, err)
		}
		db.SetDurability(policy, interval)
		log.Printf("durable database at %s (WAL-backed, %s durability)", *durable, *durability)
	}
	if *demo > 0 {
		rows := workload.Generate(workload.DefaultConfig(*demo))
		if err := workload.LoadTIP(db.Session().Raw(), db.Blade(), rows); err != nil {
			log.Fatalf("demo data: %v", err)
		}
		log.Printf("loaded %d synthetic prescriptions", *demo)
	}

	if *slow > 0 {
		db.Engine().SetSlowQueryLog(*slow, func(msg string) { log.Print(msg) })
		log.Printf("slow-query log enabled at %s", *slow)
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(db.Engine().Metrics().Snapshot().JSON())
		})
		go func() {
			srv := &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
			if err := srv.ListenAndServe(); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/stats", *metrics)
	}

	stmtMemBytes, err := engine.ParseMemSize(*stmtMem)
	if err != nil {
		log.Fatalf("-stmt-mem: %v", err)
	}
	memBudgetBytes, err := engine.ParseMemSize(*memBudget)
	if err != nil {
		log.Fatalf("-mem-budget: %v", err)
	}
	db.Engine().SetMemBudget(memBudgetBytes)
	srvOpts := []server.Option{
		server.WithStmtTimeout(*stmtTimeout),
		server.WithStmtMem(stmtMemBytes),
		server.WithMaxConns(*maxConns),
		server.WithMaxInflight(*maxInflight),
		server.WithLogger(log.Printf),
	}

	var replica *repl.Replica
	switch {
	case *replicateFrom != "":
		name := *advertise
		if name == "" {
			name = *addr
		}
		replica = repl.StartReplica(db.Engine(), *replicateFrom,
			repl.WithReplicaName(name),
			repl.WithReplicaLogger(log.Printf),
		)
		log.Printf("read replica %q of %s", name, *replicateFrom)
	case *durable != "":
		primary := repl.NewPrimary(db.Engine(), repl.WithPrimaryLogger(log.Printf))
		srvOpts = append(srvOpts, server.WithReplication(primary))
		log.Printf("replication primary (lineage %s)", primary.RunID())
	}

	srv, err := db.Serve(*addr, srvOpts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tipserver listening on %s\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (draining up to %s)", *drainTimeout)
	_ = srv.Shutdown(*drainTimeout)
	if replica != nil {
		replica.Close()
	}
	if *durable != "" {
		if err := db.Checkpoint(); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		_ = db.Close()
		log.Print("checkpointed")
	}
}
