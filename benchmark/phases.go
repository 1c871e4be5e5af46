package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/netstack"
)

var (
	rrServerSpans = []spanName{spServerTurn, spServerSend}
	readWaitSpan  = []spanName{spReadWait}
)

// udpRR is netperf's UDP_RR: one seeded byte out, the same byte back,
// closed loop, one client. think > 0 idles the client between
// transactions so that every packet finds the peer's consumer parked.
func (s *session) udpRR(share float64, warm int, think, deadline time.Duration) (phase, error) {
	const port = 7001
	srv, err := s.b.Stack.ListenUDP(port)
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { srv.Close() })
	cli, err := s.a.Stack.ListenUDP(0)
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { cli.Close() })
	s.udpSocks = append(s.udpSocks, srv, cli)

	go func() { // echo server; ends when srv is closed
		b := make([]byte, 2048)
		for {
			n, from, err := srv.ReadFrom(b)
			if err != nil {
				return
			}
			tr := s.tr.Load()
			t0 := tr.now()
			t1 := tr.now()
			if _, err := srv.WriteTo(b[:n], from); err != nil {
				return
			}
			tr.serverSpans(spTxn, rrServerSpans, t0, t1, tr.now())
		}
	}()

	dst := netstack.Addr{IP: s.b.IP, Port: port}
	req, resp := make([]byte, 1), make([]byte, 64)
	// txn is one transaction; a stale reply to an earlier, timed-out
	// request is skipped, so one loss costs one failure.
	txn := func() (t0, t1, t2 int64, err error) {
		req[0] = byte(s.rng.Intn(256))
		t0 = nowNs()
		_, err = cli.WriteTo(req, dst)
		t1 = nowNs()
		for err == nil {
			_ = cli.SetReadDeadline(s.deadline(deadline))
			var n int
			if n, _, err = cli.ReadFrom(resp); err == nil && n == 1 && resp[0] == req[0] {
				break
			}
		}
		return t0, t1, nowNs(), err
	}
	return phase{"udp_rr", share, warm, s.rrLoop("udp_rr", think, txn)}, nil
}

// tcpRR is netperf's TCP_RR over one persistent connection.
func (s *session) tcpRR(share float64, warm int) (phase, error) {
	cli, srv, err := s.connect(7002)
	if err != nil {
		return phase{}, err
	}
	go func() { // echo server; ends when the connection is closed
		b := make([]byte, 1)
		for {
			if _, err := io.ReadFull(srv, b); err != nil {
				return
			}
			tr := s.tr.Load()
			t0 := tr.now()
			t1 := tr.now()
			if _, err := srv.Write(b); err != nil {
				return
			}
			tr.serverSpans(spTxn, rrServerSpans, t0, t1, tr.now())
		}
	}()

	req, resp := make([]byte, 1), make([]byte, 1)
	txn := func() (t0, t1, t2 int64, err error) {
		req[0] = byte(s.rng.Intn(256))
		t0 = nowNs()
		_, err = cli.Write(req)
		t1 = nowNs()
		if err == nil {
			_ = cli.SetReadDeadline(s.deadline(rrDeadline))
			_, err = io.ReadFull(cli, resp)
		}
		if err == nil && resp[0] != req[0] {
			err = fmt.Errorf("sent %#x, got %#x back", req[0], resp[0])
		}
		return t0, t1, nowNs(), err
	}
	return phase{"tcp_rr", share, warm, s.rrLoop("tcp_rr", 0, txn)}, nil
}

// rrLoop is the client side of a request/response phase: transactions
// back to back, or think apart (a yielding spin, so that the host's timer
// slack is not part of the measurement), each timed and recorded as a txn
// span with its client_send child. The peer goroutine sees the tracer
// only while this loop runs.
func (s *session) rrLoop(name string, think time.Duration, txn func() (t0, t1, t2 int64, err error)) func(limit, *tracer) phaseStats {
	return func(lim limit, tr *tracer) phaseStats {
		st := phaseStats{name: name, lat: make([]int64, 0, lim.hint(30000))}
		s.tr.Store(tr)
		defer s.tr.Store(nil)
		sw := startWatch()
		for i := 0; lim.more(i, sw.t0); i++ {
			for t := nowNs(); nowNs()-t < int64(think); {
				runtime.Gosched()
			}
			sim0 := s.model.NowNs()
			t0, t1, t2, err := txn()
			st.ops++
			if err != nil {
				st.failed++
				s.fail(name+" transaction", err)
				continue
			}
			st.lat = append(st.lat, t2-t0)
			st.bytes += 2
			if s.vclock != nil {
				st.simLat = append(st.simLat, s.model.NowNs()-sim0)
			}
			tr.add(spTxn, noSpan, i, t0, t2)
			tr.add(spClientSend, spTxn, i, t0, t1)
		}
		sw.stop(&st)
		return st
	}
}

// connect opens one persistent TCP connection from guest A to guest B.
func (s *session) connect(port uint16) (cli, srv *netstack.TCPConn, err error) {
	ln, err := s.b.Stack.ListenTCP(netstack.Addr{Port: port})
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	if cli, err = s.a.Stack.DialTCP(netstack.Addr{IP: s.b.IP, Port: port}); err != nil {
		return nil, nil, err
	}
	_ = ln.SetDeadline(s.deadline(rrDeadline))
	if srv, err = ln.Accept(); err != nil {
		cli.Abort()
		return nil, nil, err
	}
	s.onClose(func() { cli.Abort(); srv.Abort() })
	s.tcpConns = append(s.tcpConns, cli, srv)
	return cli, srv, nil
}

const (
	streamWrite = 16 << 10
	streamRead  = 256 << 10
	sample      = 64 // stream and pps record one span in this many ops
)

// stream is netperf's TCP_STREAM with the payload checked: the sender
// writes 16 KiB slices of the seeded pattern, taken cyclically, and the
// receiver compares every byte it reads with the pattern at its offset.
func (s *session) stream(share float64, warm int) (phase, error) {
	cli, srv, err := s.connect(7003)
	if err != nil {
		return phase{}, err
	}
	want := s.pattern
	var verified, bad atomic.Int64

	go func() { // receiver; ends when the connection is closed
		b := make([]byte, streamRead)
		off := 0
		for i := 0; ; i++ {
			tr := s.tr.Load()
			t0 := tr.now()
			n, err := srv.Read(b)
			if err != nil {
				return
			}
			if i%sample == 0 {
				tr.serverSpans(noSpan, readWaitSpan, t0, tr.now())
			}
			if bytes.Equal(b[:n], want[off:off+n]) {
				verified.Add(int64(n))
			} else {
				bad.Add(1)
			}
			off = (off + n) % patternLen
		}
	}()

	off, sent := 0, int64(0)
	run := func(lim limit, tr *tracer) phaseStats {
		st := phaseStats{name: "stream", lat: make([]int64, 0, lim.hint(50000))}
		bad0, verified0 := bad.Load(), verified.Load()
		s.tr.Store(tr)
		defer s.tr.Store(nil)
		sw := startWatch()
		for i := 0; lim.more(i, sw.t0); i++ {
			if i%sample == 0 {
				_ = cli.SetWriteDeadline(s.deadline(rrDeadline))
			}
			t0 := nowNs()
			n, err := cli.Write(want[off : off+streamWrite])
			t1 := nowNs()
			off, sent = (off+n)%patternLen, sent+int64(n)
			st.ops++
			if err != nil {
				st.failed++
				s.fail("stream write", err)
				break
			}
			st.lat = append(st.lat, t1-t0)
			if i%sample == 0 {
				tr.add(spWriteCall, noSpan, i, t0, t1)
			}
		}
		// The window ends when the receiver has checked every byte sent.
		for end := nowNs() + int64(rrDeadline); verified.Load() < sent && nowNs() < end; {
			time.Sleep(50 * time.Microsecond)
		}
		sw.stop(&st)
		st.bytes = verified.Load() - verified0
		if lost := (sent - verified.Load() + streamWrite - 1) / streamWrite; lost > 0 || bad.Load() != bad0 {
			st.failed += lost + bad.Load() - bad0
			s.fail("stream payload", fmt.Errorf("%d bytes unverified, %d reads differ from the pattern", sent-verified.Load(), bad.Load()-bad0))
		}
		return st
	}
	return phase{"stream", share, warm, run}, nil
}

const (
	ppsPayload = 64
	ppsWindow  = 64
)

// ppsRun is the state of one pps window, shared by sender and receiver.
type ppsRun struct {
	tokens    chan struct{}        // one per datagram in flight: the window
	sentAt    [2 * ppsWindow]int64 // by seq; a slot is reused only after its token came back
	lat       []int64              // one-way ns, owned by the receiver until the window drains
	delivered atomic.Int64
	bad       atomic.Int64 // out of sequence, duplicated or corrupted
}

// pps sends 64-byte sequence-numbered datagrams as fast as an in-flight
// window of 64 allows. The window is enforced against what the receiving
// application has been handed, so a lost datagram is a failure and the
// UDP socket queue cannot overflow.
func (s *session) pps(share float64, warm int) (phase, error) {
	const port = 7004
	srv, err := s.b.Stack.ListenUDP(port)
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { srv.Close() })
	cli, err := s.a.Stack.ListenUDP(0)
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { cli.Close() })
	s.udpSocks = append(s.udpSocks, srv, cli)
	var cur atomic.Pointer[ppsRun]

	go func() { // receiver; ends when srv is closed
		b := make([]byte, 2048)
		var r *ppsRun
		var next uint64
		for i := 0; ; i++ {
			tr := s.tr.Load()
			t0 := tr.now()
			n, _, err := srv.ReadFrom(b)
			if err != nil {
				return
			}
			now := nowNs()
			if i%sample == 0 {
				tr.serverSpans(noSpan, readWaitSpan, t0, now)
			}
			if c := cur.Load(); c != r {
				r, next = c, 0
			}
			seq := binary.LittleEndian.Uint64(b)
			if n != ppsPayload || seq != next || !bytes.Equal(b[8:n], s.pattern[seq%patternLen:][:n-8]) {
				r.bad.Add(1)
			}
			next = seq + 1
			r.lat = append(r.lat, now-r.sentAt[seq%(2*ppsWindow)])
			r.delivered.Add(1)
			<-r.tokens
		}
	}()

	dst := netstack.Addr{IP: s.b.IP, Port: port}
	p := make([]byte, ppsPayload)
	run := func(lim limit, tr *tracer) phaseStats {
		st := phaseStats{name: "pps"}
		r := &ppsRun{tokens: make(chan struct{}, ppsWindow), lat: make([]int64, 0, lim.hint(200000))}
		cur.Store(r)
		s.tr.Store(tr)
		defer s.tr.Store(nil)
		sw := startWatch()
		var seq uint64
		for ; lim.more(int(seq), sw.t0); seq++ {
			r.tokens <- struct{}{}
			binary.LittleEndian.PutUint64(p, seq)
			copy(p[8:], s.pattern[seq%patternLen:])
			t0 := nowNs()
			r.sentAt[seq%(2*ppsWindow)] = t0
			if _, err := cli.WriteTo(p, dst); err != nil {
				st.failed++
				s.fail("pps send", err)
				<-r.tokens
				continue
			}
			if seq%sample == 0 {
				tr.add(spWriteCall, noSpan, int(seq), t0, tr.now())
			}
		}
		for end := nowNs() + int64(rrDeadline); r.delivered.Load() < int64(seq) && nowNs() < end; {
			time.Sleep(50 * time.Microsecond)
		}
		sw.stop(&st)
		st.ops = int64(seq)
		if lost := int64(seq) - r.delivered.Load(); lost > 0 || r.bad.Load() > 0 {
			st.failed += lost + r.bad.Load()
			s.fail("pps delivery", fmt.Errorf("sent %d, delivered %d, %d out of sequence or corrupted", seq, r.delivered.Load(), r.bad.Load()))
		} else {
			st.lat = r.lat // the receiver is idle: every token is back
		}
		st.bytes = r.delivered.Load() * ppsPayload
		return st
	}
	return phase{"pps", share, warm, run}, nil
}

var churnSizes = []int{64, 256, 1024, 4096}

// churn opens a connection, sends a seeded number of bytes, reads them
// back, closes, and waits for the peer's FIN: one whole TCP lifetime per
// op. The server accepts and echoes one connection at a time.
func (s *session) churn(share float64, warm int) (phase, error) {
	const port = 7005
	ln, err := s.b.Stack.ListenTCP(netstack.Addr{Port: port})
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { ln.Close() })
	tally := func(c *netstack.TCPConn) {
		s.retransSegs.Add(c.Retransmissions())
		s.retransBytes.Add(c.RetransmittedBytes())
	}
	go func() { // echo server; ends when ln is closed
		b := make([]byte, 8192)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			for {
				n, err := c.Read(b)
				if err != nil {
					break // io.EOF: the client has closed its side
				}
				if _, err := c.Write(b[:n]); err != nil {
					break
				}
			}
			c.Close()
			tally(c)
		}
	}()

	dst := netstack.Addr{IP: s.b.IP, Port: port}
	got := make([]byte, churnSizes[len(churnSizes)-1])
	// conn is one connection's life; it returns the span boundaries.
	conn := func() (t [4]int64, n int, err error) {
		n = churnSizes[s.rng.Intn(len(churnSizes))]
		payload := s.pattern[s.rng.Intn(patternLen-n):][:n]
		t[0] = nowNs()
		c, err := s.a.Stack.DialTCP(dst)
		if err != nil {
			return t, n, err
		}
		defer tally(c)
		t[1] = nowNs()
		_ = c.SetDeadline(s.deadline(rrDeadline))
		if _, err = c.Write(payload); err == nil {
			_, err = io.ReadFull(c, got[:n])
		}
		if err == nil && !bytes.Equal(got[:n], payload) {
			err = errors.New("echo differs from what was sent")
		}
		t[2] = nowNs()
		if err != nil {
			c.Abort()
			return t, n, err
		}
		c.Close()
		if _, err = c.Read(got[:1]); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("data after the echo")
		}
		t[3] = nowNs()
		return t, n, err
	}
	run := func(lim limit, tr *tracer) phaseStats {
		st := phaseStats{name: "conn", lat: make([]int64, 0, lim.hint(12000))}
		sw := startWatch()
		for i := 0; lim.more(i, sw.t0); i++ {
			t, n, err := conn()
			st.ops++
			if err != nil {
				st.failed++
				s.fail("conn_churn connection", err)
				continue
			}
			st.lat = append(st.lat, t[3]-t[0])
			st.bytes += 2 * int64(n)
			tr.add(spConn, noSpan, i, t[0], t[3])
			tr.add(spDial, spConn, i, t[0], t[1])
			tr.add(spExchange, spConn, i, t[1], t[2])
			tr.add(spClose, spConn, i, t[2], t[3])
		}
		sw.stop(&st)
		return st
	}
	return phase{"conn", share, warm, run}, nil
}

// About one cycle in 14 000 loses the bootstrap handshake and re-forms its
// channel only when the 1+2+4 s retry back-off has run out, with traffic
// on netfront meanwhile. Waiting that out would eat most of a window, so
// such a cycle is recorded at flapGiveUp and the next one begins.
const (
	flapGiveUp   = 250 * time.Millisecond
	flapDeadline = 250 * time.Millisecond
	flapDwellMin = 40
	flapDwellVar = 81
)

// flap keeps a UDP RR going and, every 40-120 transactions, suspends and
// resumes one of the two guests. An op is one such cycle and its latency
// the time from the SuspendResume call until both modules have a channel
// to each other again; transactions in between travel over netfront and
// none may be lost.
func (s *session) flap(share float64, warm int) (phase, error) {
	rr, err := s.udpRR(0, 0, 0, flapDeadline)
	if err != nil {
		return phase{}, err
	}
	va, vb := s.a.VM, s.b.VM
	engaged := func() bool { return va.XL.HasChannelTo(vb.MAC) && vb.XL.HasChannelTo(va.MAC) }
	run := func(lim limit, tr *tracer) phaseStats {
		st := phaseStats{name: "flap", lat: make([]int64, 0, lim.hint(200))}
		txns := func(n int) {
			r := rr.run(limit{n: n}, nil)
			st.checks, st.failed = st.checks+r.ops, st.failed+r.failed
		}
		late := 0
		sw := startWatch()
		for i := 0; lim.more(i, sw.t0); i++ {
			txns(flapDwellMin + s.rng.Intn(flapDwellVar))
			victim := va
			if s.rng.Intn(2) == 1 {
				victim = vb
			}
			t0 := nowNs()
			err := s.pair.TB.SuspendResume(victim)
			t1 := nowNs()
			fallback := 0
			for err == nil && !engaged() && nowNs()-t1 < int64(flapGiveUp) {
				txns(1)
				fallback++
			}
			if err == nil && !engaged() {
				late++
			}
			t2 := nowNs()
			st.ops++
			if err != nil {
				st.failed++
				s.fail("chan_flap cycle", err)
				continue
			}
			st.lat = append(st.lat, t2-t0)
			tr.add(spCycle, noSpan, i, t0, t2)
			tr.add(spSuspendResume, spCycle, i, t0, t1)
			tr.add(spFallback, spCycle, i, t1, t2)
			if tr != nil {
				tr.fallbackTxns += fallback
			}
		}
		sw.stop(&st)
		if late > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: chan_flap: %d of %d cycles had no channel after %v and were left on netfront\n", late, st.ops, flapGiveUp)
		}
		return st
	}
	return phase{"flap", share, warm, run}, nil
}

// blockedRead is a phase whose only op never returns.
func (s *session) blockedRead() (phase, error) {
	c, err := s.a.Stack.ListenUDP(0)
	if err != nil {
		return phase{}, err
	}
	s.onClose(func() { c.Close() })
	run := func(limit, *tracer) phaseStats {
		_, _, err := c.ReadFrom(make([]byte, 1))
		s.fail("blocked read returned", err)
		return phaseStats{name: "blocked_read", ops: 1, failed: 1}
	}
	return phase{"blocked_read", 1, 1, run}, nil
}
