// Command tipsql is an interactive SQL shell for TIP databases. It can
// run embedded (against an in-memory or durable database) or as a
// network client against a tipserver.
//
// Usage:
//
//	tipsql                          # embedded, empty database
//	tipsql -durable ./dbdir         # embedded, WAL-backed, crash-safe
//	tipsql -connect 127.0.0.1:4711  # network client (Figure 1)
//	tipsql -demo 200                # embedded with synthetic data
//
// -durable means what it means for tipserver: the directory holds
// snapshot.tipdb plus wal.log, every commit is logged as it happens,
// and the shell checkpoints the directory when it exits.
//
// Statements end with ';'. Shell commands: \q quits, \t lists tables,
// \d describes a table, \stats prints the engine metrics snapshot.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tip"
	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/types"
	"tip/internal/workload"
)

// executor abstracts the embedded and networked back ends.
type executor interface {
	Exec(sql string, params map[string]types.Value) (*exec.Result, error)
}

func main() {
	connect := flag.String("connect", "", "connect to a tipserver instead of running embedded")
	durable := flag.String("durable", "", "embedded: directory for a WAL-backed, crash-safe database")
	demo := flag.Int("demo", 0, "embedded: load N synthetic prescriptions")
	flag.Parse()

	var run executor
	var db *tip.DB
	var netc *client.Conn
	switch {
	case *connect != "":
		reg := blade.NewRegistry()
		core.MustRegister(reg)
		c, err := client.Connect(*connect, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		run, netc = c, c
		fmt.Printf("connected to %s\n", *connect)
	case *durable != "":
		var err error
		if db, err = tip.OpenDurable(*durable); err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := db.Checkpoint(); err != nil {
				log.Printf("checkpoint: %v", err)
			}
			_ = db.Close()
		}()
	default:
		db = tip.Open()
	}
	if db != nil {
		if *demo > 0 {
			rows := workload.Generate(workload.DefaultConfig(*demo))
			if err := workload.LoadTIP(db.Session().Raw(), db.Blade(), rows); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("loaded %d synthetic prescriptions\n", *demo)
		}
		run = db.Session().Raw()
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("tip> ")
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			switch {
			case trimmed == `\q`:
				return
			case trimmed == `\t`:
				execute(run, "SHOW TABLES")
			case strings.HasPrefix(trimmed, `\d `):
				execute(run, "DESCRIBE "+strings.TrimSpace(strings.TrimPrefix(trimmed, `\d `)))
			case trimmed == `\stats`:
				printStats(db, netc)
			default:
				fmt.Println(`commands: \q quit, \t tables, \d <table>, \stats`)
			}
			fmt.Print("tip> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			execute(run, buf.String())
			buf.Reset()
			fmt.Print("tip> ")
		} else if buf.Len() > 0 {
			fmt.Print("...> ")
		}
	}
}

// printStats renders the metrics snapshot: locally when embedded, over
// the wire (MsgStats) when connected.
func printStats(db *tip.DB, netc *client.Conn) {
	if netc != nil {
		snap, err := netc.Stats()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		fmt.Print(snap.Text())
		return
	}
	fmt.Print(db.Engine().Metrics().Snapshot().Text())
}

func execute(run executor, sql string) {
	sql = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	if sql == "" {
		return
	}
	res, err := run.Exec(sql, nil)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	fmt.Print(exec.FormatResult(res))
}
