package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// fingerprint says where a report was measured.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	When       string  `json:"when"`
}

func hostFingerprint(seed int64, seconds float64) fingerprint {
	f := fingerprint{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRev: "unknown", Seed: seed, Seconds: seconds, When: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		f.GitRev = strings.TrimSpace(string(rev))
	}
	return f
}

// report is what running every workload produces; -compare reads two.
type report struct {
	Host      fingerprint                `json:"host"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FailShare float64                `json:"fail_share"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// child runs one workload in a process of its own, so that peak memory is
// the workload's and a hang or crash costs that workload only. The
// child's own watchdog reports first; the context is the backstop.
func child(name string, seed int64, seconds float64, trace string, probes bool, outDir string) result {
	self, err := os.Executable()
	if err != nil {
		return broken("find own executable", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-probes="+strconv.FormatBool(probes), "-out", outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	stdout = bytes.TrimSpace(stdout)
	var res result
	if err := json.Unmarshal(stdout[bytes.LastIndexByte(stdout, '\n')+1:], &res); err != nil {
		return broken(name+" child", errors.Join(runErr, err))
	}
	return res
}

// runAll runs every workload untraced, then traced, prints every metric
// by name and writes the report file.
func runAll(seed int64, seconds float64, untraced, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rep := report{Host: hostFingerprint(seed, seconds), Workloads: map[string]*workloadReport{}}
	fold := func(name string, r result) *workloadReport {
		w := rep.Workloads[name]
		if w == nil {
			w = &workloadReport{}
			rep.Workloads[name] = w
		}
		w.Attempted, w.Failed = w.Attempted+r.Attempted, w.Failed+r.Failed
		w.FailShare = float64(w.Failed) / float64(w.Attempted)
		return w
	}
	if untraced {
		start := time.Now()
		for _, wl := range workloadDefs {
			r := child(wl.Name, seed, seconds, "0", false, outDir)
			fold(wl.Name, r).EndToEnd = r.Metrics
		}
		fmt.Fprintf(os.Stderr, "benchmark: untraced pass took %.0fs\n", time.Since(start).Seconds())
	}
	if traced {
		start := time.Now()
		var probed map[string]metricValue // the probes do not depend on the workload: run them once
		for i, wl := range workloadDefs {
			r := child(wl.Name, seed, seconds, "1", i == 0, outDir)
			if i == 0 {
				probed = r.Metrics
			}
			for _, d := range perLayer {
				if _, ok := r.Metrics[d.Name]; !ok && len(r.Metrics) > 0 {
					r.Metrics[d.Name] = probed[d.Name]
				}
			}
			fold(wl.Name, r).PerLayer = r.Metrics
		}
		fmt.Fprintf(os.Stderr, "benchmark: traced pass took %.0fs\n", time.Since(start).Seconds())
	}
	printReport(rep)
	path := filepath.Join(outDir, fmt.Sprintf("report-seed%d.json", seed))
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s\n", path)
	for name, w := range rep.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: fail_share %.4f", name, w.FailShare)
		}
	}
	return nil
}

func printReport(rep report) {
	h := rep.Host
	fmt.Printf("host: %s, nproc %d, GOMAXPROCS %d, %s, rev %s, seed %d, %gs windows\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitRev, h.Seed, h.Seconds)
	for _, wl := range workloadDefs {
		w := rep.Workloads[wl.Name]
		if w == nil {
			continue
		}
		fmt.Printf("\n%s  attempted %d  failed %d  fail_share %g\n", wl.Name, w.Attempted, w.Failed, w.FailShare)
		for _, list := range []struct {
			defs []metricDef
			vals map[string]metricValue
		}{{endToEnd, w.EndToEnd}, {perLayer, w.PerLayer}} {
			for _, d := range list.defs {
				if v, ok := list.vals[d.Name]; ok {
					fmt.Printf("  %-44s %14.4f %s\n", d.Name, v.Value, v.Unit)
				}
			}
		}
	}
	// The model's stated error: channel over netfront, beside the paper's
	// Table 3 (UDP_RR, TCP_RR latency) and Table 2 (TCP_STREAM) ratios.
	ch, nf, st := rep.Workloads["chan_rr"], rep.Workloads["nf_base"], rep.Workloads["chan_stream"]
	if ch == nil || nf == nil || st == nil || ch.PerLayer == nil || nf.PerLayer == nil || st.PerLayer == nil {
		return
	}
	over := func(a, b *workloadReport, name string) float64 {
		return ratio(a.PerLayer[name].Value, b.PerLayer[name].Value)
	}
	fmt.Printf("\nfidelity (channel over netfront; informational)\n")
	fmt.Printf("  fidelity.udp_rr_chan_over_nf      %.3f  (paper 0.384)\n", over(ch, nf, "phase.udp_rr_p50_us"))
	fmt.Printf("  fidelity.tcp_rr_chan_over_nf      %.3f  (paper 0.359)\n", over(ch, nf, "phase.tcp_rr_p50_us"))
	fmt.Printf("  fidelity.tcp_stream_chan_over_nf  %.3f  (paper 1.56)\n", over(st, nf, "phase.stream_mbps"))
}

// verdictOf judges one end-to-end metric: by how much of the old value
// the new one is worse (negative: better), against the metric's bound.
func verdictOf(d metricDef, old, new float64) (worse float64, verdict string) {
	worse = (new - old) / old
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return worse, "REGRESSED"
	case worse < -d.Bound:
		return worse, "improved"
	}
	return worse, "ok"
}

// compareReports prints, per workload and end-to-end metric, the change
// from old to new against the bound, and returns the regressions. One
// report is one run: it carries no spread, so a change inside the bound
// reads "ok", not "unchanged", and a claim of a gain needs the paired runs
// README.md describes.
func compareReports(old, new report) (regressed, improved []string) {
	fmt.Printf("%-15s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, wl := range workloadDefs {
		o, n := old.Workloads[wl.Name], new.Workloads[wl.Name]
		if o == nil || n == nil {
			continue
		}
		if n.FailShare > o.FailShare {
			fmt.Printf("%-15s %-14s %14g %14g %8s %6s  REGRESSED\n", wl.Name, "fail_share", o.FailShare, n.FailShare, "", "0")
			regressed = append(regressed, wl.Name+"/fail_share")
		}
		for _, d := range endToEnd {
			ov, ok1 := o.EndToEnd[d.Name]
			nv, ok2 := n.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			worse, verdict := verdictOf(d, ov.Value, nv.Value)
			fmt.Printf("%-15s %-14s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", wl.Name, d.Name, ov.Value, nv.Value, worse*100, d.Bound*100, verdict)
			switch verdict {
			case "REGRESSED":
				regressed = append(regressed, wl.Name+"/"+d.Name)
			case "improved":
				improved = append(improved, wl.Name+"/"+d.Name)
			}
		}
	}
	return regressed, improved
}

func compareFiles(oldPath, newPath string) error {
	var reps [2]report
	for i, p := range []string{oldPath, newPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if bad, _ := compareReports(reps[0], reps[1]); len(bad) > 0 {
		return fmt.Errorf("regressed beyond the bound: %s", strings.Join(bad, ", "))
	}
	return nil
}

// selfCheck runs the untraced pass twice on the same code and fails if
// the two disagree beyond a bound in either direction.
func selfCheck(seed int64, seconds float64, outDir string) error {
	var reps [2]report
	for i := range reps {
		reps[i] = report{Workloads: map[string]*workloadReport{}}
		for _, wl := range workloadDefs {
			r := child(wl.Name, seed, seconds, "0", false, outDir)
			if r.Failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", wl.Name, r.Failed, r.Attempted)
			}
			reps[i].Workloads[wl.Name] = &workloadReport{Attempted: r.Attempted, EndToEnd: r.Metrics}
		}
	}
	worse, better := compareReports(reps[0], reps[1])
	if bad := append(worse, better...); len(bad) > 0 {
		return fmt.Errorf("the same code disagrees with itself beyond the bound: %s", strings.Join(bad, ", "))
	}
	return nil
}
