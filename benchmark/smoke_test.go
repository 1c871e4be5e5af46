package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The smoke test runs every workload for a tenth of a second, untraced
// and traced, and checks what is emitted, never how fast: it asserts no
// timing value.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest is the part of BENCHMARK.json that spec.go repeats.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q is not made of letters, digits, '_', '.' and '-'", kind, d.Name)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

func names(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

// emits checks that r carries exactly the metrics in want.
func emits(t *testing.T, what string, r result, want map[string]bool) {
	t.Helper()
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("%s: metric %s is missing", what, name)
		}
	}
	for name := range r.Metrics {
		if !want[name] {
			t.Errorf("%s: metric %s is not one BENCHMARK.json lists for it", what, name)
		}
	}
}

func TestWorkloadsEmitTheirMetrics(t *testing.T) {
	dir := t.TempDir()
	inSituOnly := names(perLayer)
	for name := range runProbes(0.05) {
		delete(inSituOnly, name)
	}
	for i, w := range workloadDefs {
		r := runOne(w.Name, 1, 0.1, false, false, dir)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s untraced: correct=%v attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
		}
		emits(t, w.Name+" untraced", r, names(endToEnd))
		// The probes do not depend on the workload; once is enough here.
		probes, want := i == 0, inSituOnly
		if probes {
			want = names(perLayer)
		}
		r = runOne(w.Name, 1, 0.1, true, probes, dir)
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
		}
		emits(t, w.Name+" traced", r, want)
		for _, f := range []string{"trace-" + w.Name + ".json", "cpu-" + w.Name + ".pprof"} {
			if info, err := os.Stat(filepath.Join(dir, f)); err != nil || info.Size() == 0 {
				t.Errorf("%s traced: %s missing or empty (%v)", w.Name, f, err)
			}
		}
	}
}

// TestWatchdog blocks a read for good and expects a failed workload, not
// a hung benchmark. It runs last: the blocked session is left behind.
func TestWatchdog(t *testing.T) {
	r := guarded(300*time.Millisecond, func() result { return runOne("blocked_read", 1, 0.1, false, false, t.TempDir()) })
	if r.Correct || r.Attempted != 1 || r.Failed != 1 || len(r.Metrics) != 0 {
		t.Errorf("a blocked read gave %+v, want one attempted op, failed, and no metrics", r)
	}
}
