package netstack

import (
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/pkt"
)

// fakePoller records how the stack drives a BusyPoller. onPoll runs on
// every Poll; pollOK is what Poll returns.
type fakePoller struct {
	window        time.Duration
	pollOK        bool
	onPoll        func()
	starts, stops int
	polls         int
}

func (f *fakePoller) PollStart() time.Duration { f.starts++; return f.window }
func (f *fakePoller) PollStop()                { f.stops++ }
func (f *fakePoller) Poll() bool {
	f.polls++
	if f.onPoll != nil {
		f.onPoll()
	}
	return f.pollOK
}

func TestBusyPollEndsAndPairsStartStop(t *testing.T) {
	never := func() bool { return false }
	cases := []struct {
		name      string
		p         *fakePoller
		ready     func() bool
		wantPolls func(n int) bool
		wantStops int
	}{
		{"zero window never polls", &fakePoller{window: 0, pollOK: true}, never, func(n int) bool { return n == 0 }, 0},
		{"nothing to poll ends at once", &fakePoller{window: time.Hour, pollOK: false}, never, func(n int) bool { return n == 1 }, 1},
		{"ready ends after the delivering pass", &fakePoller{window: time.Hour, pollOK: true}, func() bool { return true }, func(n int) bool { return n == 1 }, 1},
		{"window expires", &fakePoller{window: 200 * time.Microsecond, pollOK: true}, never, func(n int) bool { return n >= 1 }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				busyPoll(tc.p, tc.ready)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("busyPoll did not return")
			}
			if tc.p.starts != 1 || tc.p.stops != tc.wantStops || !tc.wantPolls(tc.p.polls) {
				t.Fatalf("starts=%d stops=%d polls=%d", tc.p.starts, tc.p.stops, tc.p.polls)
			}
		})
	}
}

// udpTo builds a datagram from port 9 to port 7 on the loopback address.
func udpTo(payload []byte) []byte {
	src := pkt.IP(127, 0, 0, 1)
	return pkt.BuildIPv4(&pkt.IPv4Header{TTL: 64, Proto: pkt.ProtoUDP, Src: src, Dst: src},
		pkt.BuildUDP(src, src, &pkt.UDPHeader{SrcPort: 9, DstPort: 7}, payload))
}

// A blocked UDP read polls the source that delivered its last datagram
// and returns the datagram that poll delivers, without waiting for a
// wake-up.
func TestUDPReadFromTakesPolledDatagram(t *testing.T) {
	s := newTestStack(t)
	c, err := s.ListenUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePoller{window: time.Hour, pollOK: true}
	fp.onPoll = func() {
		if fp.polls == 3 { // arrives on the third pass
			s.InjectIPFrom(udpTo([]byte("polled")), fp)
		}
	}
	b := make([]byte, 16)
	s.InjectIPFrom(udpTo([]byte("first")), fp)
	if n, _, err := c.ReadFrom(b); err != nil || string(b[:n]) != "first" || fp.starts != 0 {
		t.Fatalf("queued ReadFrom = %q, %v after %d polls", b[:n], err, fp.starts)
	}
	n, from, err := c.ReadFrom(b)
	if err != nil || string(b[:n]) != "polled" || from.Port != 9 {
		t.Fatalf("ReadFrom = %q from %v, %v", b[:n], from, err)
	}
	if fp.polls != 3 || fp.stops != 1 {
		t.Fatalf("polls=%d stops=%d, want 3 and 1", fp.polls, fp.stops)
	}
}

// A socket polls only the source of its latest delivery: a datagram that
// arrived some other way (a device, InjectIP) clears the tag, so the next
// blocking read sleeps at once.
func TestReadPollsOnlyItsLastSource(t *testing.T) {
	s := newTestStack(t)
	c, err := s.ListenUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePoller{window: time.Hour, pollOK: true}
	s.InjectIPFrom(udpTo([]byte("polled")), fp)
	s.InjectIP(udpTo([]byte("plain")))
	b := make([]byte, 16)
	for range 2 {
		if _, _, err := c.ReadFrom(b); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.SetReadDeadline(s.Model().Now().Add(5 * time.Millisecond))
	if _, _, err := c.ReadFrom(b); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle ReadFrom: %v, want deadline exceeded", err)
	}
	if fp.starts != 0 {
		t.Fatalf("read polled a source that no longer delivers to it (%d polls)", fp.starts)
	}
}

// TestBlockingReadWithoutPollerAllocatesNothing pins the cost of the hook
// for a stack that has none: a read that blocks until a datagram lands
// allocates nothing. The helper delivers a prepared datagram straight
// into the socket queue a little after each read starts, so the read
// finds the queue empty and waits.
func TestBlockingReadWithoutPollerAllocatesNothing(t *testing.T) {
	s := newTestStack(t)
	c, err := s.ListenUDP(7)
	if err != nil {
		t.Fatal(err)
	}
	d := udpDatagram{data: make([]byte, 8), srcIP: pkt.IP(127, 0, 0, 1), srcPort: 9}
	kick := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range kick {
			time.Sleep(20 * time.Microsecond)
			c.mu.Lock()
			c.queue = append(c.queue, d)
			c.cond.Signal()
			c.mu.Unlock()
		}
	}()
	b := make([]byte, 8)
	allocs := testing.AllocsPerRun(200, func() {
		kick <- struct{}{}
		if _, _, err := c.ReadFrom(b); err != nil {
			t.Fatal(err)
		}
	})
	close(kick)
	<-done
	if allocs != 0 {
		t.Fatalf("blocking ReadFrom without a poller: %v allocs/op, want 0", allocs)
	}
}
