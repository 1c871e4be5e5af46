package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hypervisor"
	"repro/internal/netstack"
	"repro/internal/testbed"
)

// limit ends a measurement loop after a duration, an op count, or both.
type limit struct {
	d time.Duration
	n int
}

// hint sizes a sample slice for a loop expected to run perSec ops a second.
func (l limit) hint(perSec int) int {
	if l.n > 0 {
		return l.n
	}
	return int(float64(perSec) * l.d.Seconds() * 1.5)
}

// more reports whether op number done (0-based) should start. The first
// op always runs, so a window never reports zero ops.
func (l limit) more(done int, start int64) bool {
	if done == 0 {
		return true
	}
	if l.n > 0 && done >= l.n {
		return false
	}
	if l.d == 0 {
		return l.n > 0
	}
	return nowNs()-start < int64(l.d)
}

// phaseStats is what one phase measured in one window.
type phaseStats struct {
	name    string
	lat     []int64 // ns per successful op; measure sorts it
	simLat  []int64 // virt_rr: the same ops in simulated ns, likewise
	ops     int64   // ops attempted
	failed  int64   // ops that timed out, errored, came back short or wrong
	checks  int64   // other attempted checks (chan_flap: the transactions between cycles)
	bytes   int64   // verified application payload
	elapsed time.Duration
	cpu     time.Duration
}

// phase is one measurement loop of a workload, bound to the sockets its
// set-up opened. share is its part of the window, warm its warm-up count.
type phase struct {
	name  string
	share float64
	warm  int
	run   func(lim limit, tr *tracer) phaseStats
}

// session is one set-up instance of a workload: a testbed pair, the open
// sockets, the peer goroutines and the phases that drive them.
type session struct {
	name   string
	rng    *rand.Rand
	model  *costmodel.Model
	vclock *costmodel.VirtualClock
	pair   *testbed.Pair
	a, b   testbed.Endpoint
	phases []phase

	// tr is the tracer the running loop has published to its peer goroutine.
	tr atomic.Pointer[tracer]

	udpSocks []*netstack.UDPConn
	tcpConns []*netstack.TCPConn
	// retransSegs/Bytes accumulate from connections conn_churn has closed.
	retransSegs, retransBytes atomic.Uint64
	// pattern is patternLen seeded bytes followed by their own head, so
	// that any payload starting inside the pattern is one contiguous slice.
	pattern []byte

	closers []func()
}

// fail names a correctness violation on stderr; the caller counts it.
func (s *session) fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s: %v\n", s.name, what, err)
}

func (s *session) onClose(fn func()) { s.closers = append(s.closers, fn) }

// deadline is now+d on the model clock, which is what socket deadlines use.
func (s *session) deadline(d time.Duration) time.Time { return s.model.Now().Add(d) }

const (
	discoveryPeriod = 200 * time.Millisecond
	rrDeadline      = 2 * time.Second
	patternLen      = 1<<20 + 4093
)

// openSession builds a testbed pair on the given model; the seed drives
// every payload byte and every choice a phase makes.
func openSession(name string, seed int64, scenario testbed.Scenario, model *costmodel.Model) (*session, error) {
	s := &session{name: name, rng: rand.New(rand.NewSource(seed)), model: model, vclock: model.VClock()}
	s.pattern = make([]byte, patternLen, patternLen+streamRead)
	s.rng.Read(s.pattern)
	s.pattern = append(s.pattern, s.pattern[:streamRead]...)
	pair, err := testbed.BuildPair(scenario, testbed.Options{Model: model, DiscoveryPeriod: discoveryPeriod})
	if err != nil {
		if s.vclock != nil {
			s.vclock.Close()
		}
		return nil, fmt.Errorf("build %v pair: %w", scenario, err)
	}
	s.pair, s.a, s.b = pair, pair.A, pair.B
	return s, nil
}

// newSession sets a workload up: its testbed under the calibrated cost
// model, its sockets, its peer goroutines and its phases.
func newSession(name string, seed int64) (*session, error) {
	scenario, model := testbed.XenLoop, costmodel.Calibrated()
	switch name {
	case "nf_base":
		scenario = testbed.NetfrontNetback
	case "virt_rr":
		model = model.WithVirtual(costmodel.NewVirtualClock())
	}
	s, err := openSession(name, seed, scenario, model)
	if err != nil {
		return nil, err
	}
	add := func(p phase, err error) error {
		if err == nil {
			s.phases = append(s.phases, p)
		}
		return err
	}
	switch name {
	case "chan_rr":
		if err = add(s.udpRR(0.5, 2000, 0, rrDeadline)); err == nil {
			err = add(s.tcpRR(0.5, 2000))
		}
	case "chan_rr_sparse":
		err = add(s.udpRR(1, 500, 300*time.Microsecond, rrDeadline))
	case "chan_stream":
		err = add(s.stream(1, 2000))
	case "chan_pps":
		err = add(s.pps(1, 2000))
	case "conn_churn":
		err = add(s.churn(1, 500))
	case "chan_flap":
		err = add(s.flap(1, 10))
	case "nf_base":
		if err = add(s.udpRR(0.3, 500, 0, rrDeadline)); err == nil {
			if err = add(s.tcpRR(0.3, 500)); err == nil {
				err = add(s.stream(0.4, 1000))
			}
		}
	case "virt_rr":
		// A generous simulated deadline: the idle advancer can jump
		// simulated time while the host has the peer runnable.
		err = add(s.udpRR(1, 2000, 0, 30*time.Second))
	case "blocked_read":
		// Not a workload: a read nothing will ever answer, for the
		// smoke test of the watchdog.
		err = add(s.blockedRead())
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warmUp runs each phase for its fixed warm-up count.
func (s *session) warmUp() error {
	for _, p := range s.phases {
		if st := p.run(limit{n: p.warm}, nil); st.failed > 0 {
			return fmt.Errorf("%s: %d of %d warm-up ops failed", p.name, st.failed, st.ops)
		}
	}
	return nil
}

// close tears the session down and reports what it left behind:
// hypervisor resources still held and buffer leases still out.
func (s *session) close() (leaked int, outstanding int64) {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.pair.Close()
	var hv hypervisor.ResourceSnapshot
	settle := time.Now().Add(2 * time.Second)
	for {
		hv, outstanding = hypervisor.ResourceSnapshot{}, buf.Outstanding()
		for _, m := range s.pair.TB.Machines {
			hv = hv.Add(m.HV.Introspect())
		}
		if (hv.Total() == 0 && outstanding == 0) || time.Now().After(settle) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if s.vclock != nil {
		s.vclock.Close()
	}
	return hv.Total(), outstanding
}

// counters is every already-public counter the benchmark reads, taken at
// the edges of a window.
type counters struct {
	hv           costmodel.CounterSnapshot
	xa, xb       core.MetricsSnapshot // zero without XenLoop modules
	gets, over   uint64
	mem          runtime.MemStats
	udpRecv      uint64
	udpDrop      uint64
	retransSegs  uint64
	retransBytes uint64
	tcpRetained  int // connections both stacks still hold, lingering ones included
}

func (s *session) snapshot() counters {
	var c counters
	c.hv = s.pair.TB.Machines[0].HV.Counters().Snapshot()
	if s.a.VM.XL != nil {
		c.xa, c.xb = s.a.VM.XL.Snapshot(), s.b.VM.XL.Snapshot()
	}
	c.gets, _, c.over = buf.PoolStats()
	runtime.ReadMemStats(&c.mem)
	for _, u := range s.udpSocks {
		r, d := u.Stats()
		c.udpRecv, c.udpDrop = c.udpRecv+r, c.udpDrop+d
	}
	c.tcpRetained = len(s.a.Stack.TCPConns()) + len(s.b.Stack.TCPConns())
	c.retransSegs, c.retransBytes = s.retransSegs.Load(), s.retransBytes.Load()
	for _, t := range s.tcpConns {
		c.retransSegs += t.Retransmissions()
		c.retransBytes += t.RetransmittedBytes()
	}
	return c
}

// conserves reports whether the workload keeps one channel up throughout,
// so that every packet a module pushed must be received by the other.
func (s *session) conserves() bool { return s.a.VM.XL != nil && s.name != "chan_flap" }

// channelPkts is what both modules pushed into and took out of channels.
func (c counters) channelPkts() (sent, rcvd uint64) {
	return c.xa.PktsChannel + c.xb.PktsChannel, c.xa.PktsReceived + c.xb.PktsReceived
}

// settled snapshots once the channel's in-flight packets (a delayed ACK,
// say) have landed.
func (s *session) settled() counters {
	c := s.snapshot()
	for i := 0; i < 100 && s.conserves(); i++ {
		if sent, rcvd := c.channelPkts(); sent == rcvd {
			break
		}
		time.Sleep(time.Millisecond)
		c = s.snapshot()
	}
	return c
}

// window is the outcome of measuring every phase once.
type window struct {
	phases         []phaseStats
	tracers        []*tracer  // nil entries when untraced
	edges          []counters // before the first phase, between phases, after the last
	goroutinesPeak int
}

// measure runs every phase for its share of seconds. With traced set each
// phase records spans; counters are read at the phase edges either way,
// because the conservation checks need them.
func (s *session) measure(seconds float64, traced bool) window {
	var w window
	runtime.GC()
	w.edges = append(w.edges, s.settled())
	stop := make(chan struct{})
	peak := make(chan int)
	go func() { // goroutine high-water mark, sampled off the load path
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		n := runtime.NumGoroutine()
		for {
			select {
			case <-tick.C:
				n = max(n, runtime.NumGoroutine())
			case <-stop:
				peak <- n
				return
			}
		}
	}()
	for _, p := range s.phases {
		var tr *tracer
		if traced {
			tr = &tracer{client: make([]span, 0, 1<<19), server: make([]span, 0, 1<<19)}
		}
		st := p.run(limit{d: time.Duration(seconds * p.share * float64(time.Second))}, tr)
		slices.Sort(st.lat)
		slices.Sort(st.simLat)
		w.phases = append(w.phases, st)
		w.tracers = append(w.tracers, tr)
		w.edges = append(w.edges, s.settled())
	}
	close(stop)
	w.goroutinesPeak = <-peak
	return w
}

// check applies the conservation rules to a window and returns how many
// it checked and how many were violated, each violation named on stderr.
func (s *session) check(w window) (checked, violations int64) {
	if !s.conserves() {
		return 0, 0
	}
	a, b := w.edges[len(w.edges)-1], w.edges[0]
	sentA, rcvdA := a.channelPkts()
	sentB, rcvdB := b.channelPkts()
	if sentA-sentB != rcvdA-rcvdB {
		s.fail("channel conservation", fmt.Errorf("modules pushed %d packets, received %d", sentA-sentB, rcvdA-rcvdB))
		violations++
	}
	if std := a.xa.PktsStandard + a.xb.PktsStandard - b.xa.PktsStandard - b.xb.PktsStandard; std != 0 || sentA == sentB {
		s.fail("channel share", fmt.Errorf("%d packets on the channel, %d left it for netfront", sentA-sentB, std))
		violations++
	}
	return 2, violations
}

// stopwatch times a phase in wall and process-CPU terms.
type stopwatch struct{ t0, cpu0 int64 }

func startWatch() stopwatch { return stopwatch{nowNs(), cpuNs()} }

func (sw stopwatch) stop(st *phaseStats) {
	st.elapsed, st.cpu = time.Duration(nowNs()-sw.t0), time.Duration(cpuNs()-sw.cpu0)
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
