// Command benchmark measures the XenLoop channel path and the
// netfront/netback baseline, end to end and layer by layer, through the
// repository's public functions only. README.md in this directory is the
// manual; BENCHMARK.json at the repository root is the contract.
//
//	benchmark --workload chan_rr --seed 1 --seconds 10 --trace 0   one workload, end-to-end metrics
//	benchmark --workload chan_rr --seed 1 --seconds 10 --trace 1   the same, per-layer metrics
//	benchmark -seed 1                                              every workload, both passes, one report
//	benchmark -selfcheck                                           two untraced passes must agree
//	benchmark -compare old.json new.json                           judge two reports by the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a one-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as one JSON line (default: all of them, as a report)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of one workload's measured window")
	trace := flag.String("trace", "", "0: end-to-end metrics, untraced; 1: per-layer metrics, traced (default: both when running all workloads, 0 for one)")
	probes := flag.Bool("probes", true, "with -trace 1, also run the isolated layer probes")
	out := flag.String("out", "", "directory for reports, traces and profiles (default: the benchmark's results/)")
	compare := flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced pass twice and fail if an end-to-end metric disagrees beyond its bound")
	flag.Parse()

	if *out == "" {
		*out = "results"
		if _, err := os.Stat("BENCHMARK.json"); err == nil {
			*out = filepath.Join("benchmark", "results") // started from the repository root
		}
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace wants 0 or 1, not %q", *trace)
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare wants two report files")
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *out)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace != "1", *trace != "0", *out)
	default:
		if err = os.MkdirAll(*out, 0o755); err != nil {
			break
		}
		limit := time.Duration(min(*seconds*4+40, 170) * float64(time.Second))
		res := guarded(limit, func() result { return runOne(*workload, *seed, *seconds, *trace == "1", *probes, *out) })
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		if len(res.Metrics) == 0 {
			os.Exit(1)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// guarded runs fn under a watchdog: a workload that hangs is a failed
// workload with no metrics, not a hung benchmark. The stuck goroutine is
// abandoned; in the command the process exits right after.
func guarded(limit time.Duration, fn func() result) result {
	done := make(chan result, 1)
	go func() { done <- fn() }()
	select {
	case r := <-done:
		return r
	case <-time.After(limit):
		return broken("watchdog", fmt.Errorf("no result after %v", limit))
	}
}

// broken is the result of a run that could not produce metrics.
func broken(what string, err error) result {
	fmt.Fprintf(os.Stderr, "benchmark: FAILED %s: %v\n", what, err)
	return result{Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
}

const setups = 5 // set-ups per untraced run; setup_s is their median

// runOne measures one workload. Untraced, it sets the workload up five
// times (setup_s is the median), measures the last set-up for `seconds`
// and reports the end-to-end metrics. Traced, it measures a quarter
// window untraced and a half window with spans and a CPU profile on the
// same set-up (their ratio is the tracing overhead), then runs the
// isolated probes, and reports the per-layer metrics.
func runOne(name string, seed int64, seconds float64, traced, probes bool, outDir string) result {
	var s *session
	var setupS []float64
	var checks, violations int64 // correctness rules beside the ops themselves
	leakCheck := func() (int, int64) {
		leaked, outstanding := s.close()
		checks++
		if leaked != 0 || outstanding != 0 {
			s.fail("leak after Close", fmt.Errorf("%d hypervisor resources held, %d buffers leased", leaked, outstanding))
			violations++
		}
		return leaked, outstanding
	}
	n := setups
	if traced {
		n = 1
	}
	for i := 0; i < n; i++ {
		if s != nil {
			leakCheck()
		}
		t0 := nowNs()
		var err error
		if s, err = newSession(name, seed); err != nil {
			return broken("set-up", err)
		}
		if err = s.warmUp(); err != nil {
			s.close()
			return broken("warm-up", err)
		}
		setupS = append(setupS, float64(nowNs()-t0)/1e9)
	}

	res := result{Metrics: map[string]metricValue{}}
	put := func(defs []metricDef, name string, v float64) {
		res.Metrics[name] = metricValue{v, unitOf(defs, name)}
	}
	var base endToEndStats
	window := seconds
	if traced {
		base = summarize(s.measure(seconds/4, false))
		prof, err := os.Create(filepath.Join(outDir, "cpu-"+name+".pprof"))
		if err == nil {
			defer prof.Close()
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			s.close()
			return broken("cpu profile", err)
		}
		window = seconds / 2
	}
	w := s.measure(window, traced)
	pprof.StopCPUProfile() // a no-op when no profile is running
	conserved, violated := s.check(w)
	checks, violations = checks+conserved, violations+violated
	leaked, outstanding := leakCheck()
	e := summarize(w)
	if !traced {
		if e.ok {
			sort.Float64s(setupS)
			put(endToEnd, "op_p50_us", e.p50us)
			put(endToEnd, "op_tail_us", e.tailUs)
			put(endToEnd, "ops_per_s", e.opsPerS)
			put(endToEnd, "cpu_us_per_op", e.cpuUsPerOp)
			put(endToEnd, "setup_s", setupS[len(setupS)/2])
		}
	} else {
		traces := collectTraces(w)
		if e.ok && base.ok {
			for name, v := range inSitu(w, traces, base.opsPerS/e.opsPerS-1, leaked, outstanding) {
				put(perLayer, name, v)
			}
			if probes {
				for name, v := range runProbes(seconds * 0.35) {
					put(perLayer, name, v)
				}
			}
		}
		if err := writeTraces(filepath.Join(outDir, "trace-"+name+".json"), traces); err != nil {
			return broken("trace file", err)
		}
	}
	for _, p := range w.phases {
		res.Attempted += p.ops + p.checks
		res.Failed += p.failed
		printPhase(name, p)
	}
	res.Attempted += checks
	res.Failed += violations
	res.Correct = res.Failed == 0
	return res
}

// endToEndStats are the composite figures of a window: with one phase,
// that phase's; with several, the cost of one op of each (sums).
type endToEndStats struct {
	ok                                 bool // every phase completed at least one op
	p50us, tailUs, opsPerS, cpuUsPerOp float64
}

func summarize(w window) endToEndStats {
	e := endToEndStats{ok: len(w.phases) > 0}
	var sPerOp float64
	for _, p := range w.phases {
		if len(p.lat) == 0 {
			return endToEndStats{}
		}
		e.p50us += float64(quantile(p.lat, 0.50)) / 1e3
		e.tailUs += float64(quantile(p.lat, tailQuantile(len(p.lat)))) / 1e3
		sPerOp += p.elapsed.Seconds() / float64(len(p.lat))
		e.cpuUsPerOp += float64(p.cpu.Microseconds()) / float64(p.ops)
	}
	e.opsPerS = 1 / sPerOp
	return e
}

// tailQuantile picks the tail percentile a sample supports: p99 with at
// least 100 samples beyond it, else p95. A percentile resting on a
// handful of samples flips between the modes of a tail from run to run
// (chan_flap's few thousand cycles have such a tail).
func tailQuantile(n int) float64 {
	if n >= 10000 {
		return 0.99
	}
	return 0.95
}

// printPhase is the human-readable line of one phase, on stderr: exact
// percentiles with their sample count. p99.9 varies too much on a shared
// two-core host to be a metric, so it is only printed.
func printPhase(workload string, p phaseStats) {
	lat := p.lat
	us := func(q float64) float64 { return float64(quantile(lat, q)) / 1e3 }
	fmt.Fprintf(os.Stderr, "benchmark: %-14s %-7s n=%-8d failed=%d  p50=%.1fus p95=%.1fus p99=%.1fus p99.9=%.1fus (tail: p%.0f)  %.0f ops/s  %.1f Mbit/s  cpu=%.1fus/op\n",
		workload, p.name, len(lat), p.failed, us(0.5), us(0.95), us(0.99), us(0.999), tailQuantile(len(lat))*100,
		float64(len(lat))/p.elapsed.Seconds(), float64(p.bytes)*8/1e6/p.elapsed.Seconds(),
		float64(p.cpu.Microseconds())/float64(max(p.ops, 1)))
}

// writeTraces stores each traced phase's span summary and, of its spans,
// those of the first transactions: 10 000 in all.
func writeTraces(path string, traces []phaseTrace) error {
	for i := range traces {
		spans, maxTxn := traces[i].Spans, int32(10000/len(traces))
		cut := sort.Search(len(spans), func(j int) bool { return spans[j].Txn >= maxTxn })
		traces[i].Spans = spans[:cut]
	}
	data, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
