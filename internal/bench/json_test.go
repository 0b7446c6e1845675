package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The machine-readable contract: every scenario reports throughput and
// histogram-derived latency quantiles, and WriteJSON round-trips them.
func TestJSONResults(t *testing.T) {
	results := JSONResults(200)
	if len(results) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(results))
	}
	for _, r := range results {
		if r.Statements <= 0 || r.OpsPerSec <= 0 {
			t.Errorf("%s: statements=%d ops/s=%v, want positive", r.Name, r.Statements, r.OpsPerSec)
		}
		if r.Name == "repl_read" {
			// Cluster-aggregate scenario: throughput is measured at the
			// wire clients, not from one engine's latency histogram.
			for _, m := range []string{"replicas.0.ops_per_sec", "replicas.1.ops_per_sec",
				"replicas.2.ops_per_sec", "speedup.2_vs_0", "cpus"} {
				if r.Metrics[m] <= 0 {
					t.Errorf("repl_read: metric %s = %v, want positive", m, r.Metrics[m])
				}
			}
			continue
		}
		if r.P50Nanos <= 0 || r.P99Nanos < r.P50Nanos {
			t.Errorf("%s: p50=%v p99=%v, want 0 < p50 <= p99", r.Name, r.P50Nanos, r.P99Nanos)
		}
	}

	dir := t.TempDir()
	paths, err := WriteJSON(filepath.Join(dir, "sub"), results) // MkdirAll path
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(results) {
		t.Fatalf("wrote %d files, want %d", len(paths), len(results))
	}
	for i, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.Name != results[i].Name || got.OpsPerSec != results[i].OpsPerSec {
			t.Errorf("%s: round-trip mismatch", p)
		}
	}
}
