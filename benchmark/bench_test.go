package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name  string
		Bound float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload at 1/100 size, untraced and traced, and
// checks that every answer was right and that the metrics printed are
// the ones BENCHMARK.json declares. It asserts no timing.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, e := range decl.EndToEnd {
		if i >= len(endToEndBounds) || endToEndBounds[i].name != e.Name || endToEndBounds[i].bound != e.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %v, -repeat judges against %v", i, e, endToEndBounds)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, decl.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := config{seed: 7, dur: 250 * time.Millisecond, trace: trace, z: fullSizes().scaled(100), outDir: t.TempDir(), log: &log}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d failed of %d\n%s", w.name, trace, res.Failed, res.Attempted, log.String())
			}
			var want []string
			for _, e := range decl.EndToEnd {
				want = append(want, e.Name)
			}
			if trace {
				want = want[:0]
				for _, l := range decl.PerLayer {
					want = append(want, l.Name)
				}
				if !strings.Contains(log.String(), layerWire) || !strings.Contains(log.String(), layerExec) {
					t.Errorf("%s: no layer table:\n%s", w.name, log.String())
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				}
			}
		}
	}
}
