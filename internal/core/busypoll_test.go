package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netstack"
	"repro/internal/testbed"
)

// TestBlockedReaderSurvivesPeerDisengage blocks a client read on a
// channel whose peer then disengages (suspend/resume tears the channel
// down under it). Inactive is terminal for the rings, so a poll or park
// loop that waits for a park to succeed would spin forever here; instead
// each reply, sent after the disengage, must reach the blocked reader —
// over netfront, or over a channel that re-formed — inside 250 ms, and
// no reader may be left polling.
func TestBlockedReaderSurvivesPeerDisengage(t *testing.T) {
	p := buildXenLoopPair(t)
	a, b := p.A, p.B
	srv, err := b.Stack.ListenUDP(7100)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := a.Stack.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	dst := netstack.Addr{IP: b.IP, Port: 7100}

	got := make(chan netstack.Addr, 1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // server: take a request, reply when released
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			n, from, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			got <- from
			<-release
			if _, err := srv.WriteTo(buf[:n], from); err != nil {
				t.Errorf("server reply: %v", err)
				return
			}
		}
	}()
	defer func() { srv.Close(); close(release); wg.Wait() }()

	for cycle := 0; cycle < 4; cycle++ {
		req := []byte{'r', byte(cycle)}
		if _, err := cli.WriteTo(req, dst); err != nil {
			t.Fatal(err)
		}
		type result struct {
			msg []byte
			at  time.Time
			err error
		}
		res := make(chan result, 1)
		go func() {
			buf := make([]byte, 64)
			_ = cli.SetReadDeadline(a.Stack.Model().Now().Add(5 * time.Second))
			n, _, err := cli.ReadFrom(buf)
			res <- result{buf[:n], time.Now(), err}
		}()
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: request never reached the server", cycle)
		}
		// The client is blocked (or busy-polling) on the channel while
		// the peer disengages.
		if err := p.TB.SuspendResume(b.VM); err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		release <- struct{}{}
		r := <-res
		if r.err != nil || !bytes.Equal(r.msg, req) {
			t.Fatalf("cycle %d: reply %q, %v; want %q", cycle, r.msg, r.err, req)
		}
		if d := r.at.Sub(sent); d > 250*time.Millisecond {
			t.Fatalf("cycle %d: reply took %v after the disengage, want <= 250ms", cycle, d)
		}
	}
	if !waitFor(time.Second, func() bool { return core.PollersActive(a.VM.XL) == 0 }) {
		t.Fatalf("%d readers still polling after their reads returned", core.PollersActive(a.VM.XL))
	}
}

// TestBusyPollIterationAllocatesNothing pins one busy-poll pass on an
// idle channel — the hook call, the empty-ring check and the reader's
// ready predicate — at zero allocations: a reader may make thousands of
// them per blocking read.
func TestBusyPollIterationAllocatesNothing(t *testing.T) {
	p := buildXenLoopPair(t)
	bp := core.BusyPollerOf(p.A.VM.XL, p.B.VM.MAC)
	if bp == nil || bp.PollStart() <= 0 {
		t.Fatal("no pollable channel on an established pair")
	}
	defer bp.PollStop()
	var mu sync.Mutex
	queued := 0
	ready := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return queued > 0
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !bp.Poll() || ready() {
			t.Fatal("idle poll found nothing to poll, or data")
		}
	})
	if allocs != 0 {
		t.Fatalf("busy-poll pass: %v allocs, want 0", allocs)
	}
}

// TestOneWayRunBesidePolledChannelIsDelivered: readers on A keep
// busy-polling A's channel to C while B sends A a one-way run of
// datagrams, long enough to turn the B channel bulk. The readers' polls
// must not leave the B channel's worker asleep with its ring unarmed:
// the datagrams must arrive well inside the 2 ms park watchdog, which
// would otherwise release them in a burst for a median near 1 ms.
func TestOneWayRunBesidePolledChannelIsDelivered(t *testing.T) {
	tb := testbed.New(testbed.Options{DiscoveryPeriod: 100 * time.Millisecond})
	defer tb.Close()
	m := tb.AddMachine("m")
	vms := make([]*testbed.VM, 3)
	for i := range vms {
		vm, err := tb.AddVM(m, fmt.Sprintf("g%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.EnableXenLoop(vm); err != nil {
			t.Fatal(err)
		}
		vms[i] = vm
	}
	a, b, c := vms[0], vms[1], vms[2]
	for _, peer := range []*testbed.VM{b, c} {
		if err := testbed.EstablishChannel(a, peer); err != nil {
			t.Fatal(err)
		}
	}

	echo, err := c.Stack.ListenUDP(7200)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, 64)
		for {
			n, from, err := echo.ReadFrom(buf)
			if err != nil {
				return
			}
			_, _ = echo.WriteTo(buf[:n], from)
		}
	}()

	// Pollers: sockets on A whose last datagram came over the C channel,
	// re-reading with a short deadline so that their polls overlap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		s, err := a.Stack.ListenUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteTo([]byte{'p'}, netstack.Addr{IP: c.IP, Port: 7200}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		_ = s.SetReadDeadline(a.Stack.Model().Now().Add(5 * time.Second))
		if _, _, err := s.ReadFrom(buf); err != nil {
			t.Fatalf("echo over the C channel: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.SetReadDeadline(a.Stack.Model().Now().Add(20 * time.Microsecond))
				_, _, _ = s.ReadFrom(buf)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	sink, err := a.Stack.ListenUDP(7300)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	src, err := b.Stack.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const run = 48
	lat := make(chan time.Duration, run)
	go func() {
		buf := make([]byte, 64)
		for i := 0; i < run; i++ {
			_ = sink.SetReadDeadline(a.Stack.Model().Now().Add(5 * time.Second))
			n, _, err := sink.ReadFrom(buf)
			if err != nil || n != 8 {
				close(lat)
				return
			}
			lat <- time.Duration(time.Now().UnixNano() - int64(binary.LittleEndian.Uint64(buf)))
		}
	}()
	var msg [8]byte
	for i := 0; i < run; i++ {
		binary.LittleEndian.PutUint64(msg[:], uint64(time.Now().UnixNano()))
		if _, err := src.WriteTo(msg[:], netstack.Addr{IP: a.IP, Port: 7300}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // let A's worker park between datagrams
	}
	var late []time.Duration
	for i := 0; i < run; i++ {
		d, ok := <-lat
		if !ok {
			t.Fatalf("datagram %d of the one-way run never arrived", i)
		}
		if i > 20 { // past the run length that turns the channel bulk
			late = append(late, d)
		}
	}
	slices.Sort(late)
	if med := late[len(late)/2]; med > 500*time.Microsecond {
		t.Fatalf("one-way run beside a polled channel: median delivery %v, want well under the 2ms park watchdog (all: %v)", med, late)
	}
}
