package tip_test

import (
	"os/exec"
	"strings"
	"testing"
)

// Smoke tests for the command-line tools, run end to end. Skipped under
// -short (each invocation compiles a main package).

func TestTipbrowseDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("tools skipped in -short mode")
	}
	out, err := exec.Command("go", "run", "./cmd/tipbrowse", "-demo", "-rows", "6").CombinedOutput()
	if err != nil {
		t.Fatalf("tipbrowse: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"slider sweep", "what-if", "timeline", "NOW ="} {
		if !strings.Contains(s, want) {
			t.Errorf("tipbrowse demo missing %q", want)
		}
	}
}

func TestTipsqlPipedSession(t *testing.T) {
	if testing.Short() {
		t.Skip("tools skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/tipsql")
	cmd.Stdin = strings.NewReader(`CREATE TABLE t (a INT, valid Element);
INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}');
SELECT a, length(valid) FROM t;
EXPLAIN SELECT a FROM t WHERE a = 1;
\t
\d t
\q
`)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tipsql: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"(1 rows affected)", "a | length", "full scan", "column"} {
		if !strings.Contains(s, want) {
			t.Errorf("tipsql session missing %q in:\n%s", want, s)
		}
	}
	// SQL errors are reported, not fatal.
	cmd = exec.Command("go", "run", "./cmd/tipsql")
	cmd.Stdin = strings.NewReader("SELECT nope FROM nowhere;\nSELECT 1;\n\\q\n")
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("tipsql error handling: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "error:") {
		t.Errorf("tipsql should report SQL errors:\n%s", out)
	}
}
