package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-tests run every workload at tiny scale, untraced and traced,
// and check the result line's schema against BENCHMARK.json; then they
// check that a wrong reference digest fails every operation. Run them
// from this directory:
//
//	go test ./...

var workloads = []string{"fair-fleet", "effi-hostile", "daemon-stream"}

// benchmarked are the workloads BENCHMARK.json lists. daemon-stream runs
// only on request: on the 2-core shared host of record its figures did
// not repeat within the bounds (see README.md).
var benchmarked = workloads[:2]

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchmarked) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(benchmarked))
	}
	for i, w := range b.Workloads {
		if w.Name != benchmarked[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, benchmarked[i])
		}
	}
	check := func(kind string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: benchmark %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayerDefs(), b.PerLayer)
}

// smokeOptions builds the daemon once and returns options for a tiny
// run of workload.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "iscoped")
	if workload == "daemon-stream" {
		cmd := exec.Command("go", "build", "-o", bin, "iscope/cmd/iscoped")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build iscoped: %v\n%s", err, out)
		}
	}
	return options{
		workload: workload,
		seed:     7,
		seconds:  1,
		trace:    trace,
		smoke:    true,
		work:     filepath.Join(dir, "work"),
		traces:   filepath.Join(dir, "traces"),
		iscoped:  bin,
		digests:  "digests.json",
	}
}

func TestSmokeEveryMetricPrints(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			o := smokeOptions(t, wl, trace)
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayerDefs()
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if rep.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", wl, d.name, rep.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

func TestWrongDigestFailsEveryOperation(t *testing.T) {
	for _, wl := range workloads {
		o := smokeOptions(t, wl, false)
		bad := digestTable{digestKey(o): {"7": strings.TrimSuffix(strings.Repeat("bad,", tracesPerRun), ",")}}
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		o.digests = filepath.Join(t.TempDir(), "wrong.json")
		if err := os.WriteFile(o.digests, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.Correct || rep.Failed != rep.Attempted {
			t.Errorf("%s: wrong reference gave correct=%v, %d of %d failed; want errors_frac = 1", wl, rep.Correct, rep.Failed, rep.Attempted)
		}
		if v := rep.Metrics["success_frac"].Value; v != 0 {
			t.Errorf("%s: success_frac %v, want 0", wl, v)
		}
	}
}
