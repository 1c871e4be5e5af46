package netstack

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/pkt"
)

// tcpState is a TCP connection state (simplified RFC 793 machine; the
// states after ESTABLISHED are tracked with shutdown flags).
type tcpState int

const (
	tcpSynSent tcpState = iota
	tcpSynRcvd
	tcpEstablished
	tcpClosed
)

func (s tcpState) String() string {
	switch s {
	case tcpSynSent:
		return "SYN_SENT"
	case tcpSynRcvd:
		return "SYN_RCVD"
	case tcpEstablished:
		return "ESTABLISHED"
	case tcpClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("tcpState(%d)", int(s))
	}
}

const (
	tcpSndBufLimit  = 512 * 1024
	tcpRcvBufLimit  = 63 * 1024  // advertisable unscaled in 16 bits
	tcpRcvBufScaled = 252 * 1024 // receive buffer once window scaling is on
	tcpWScaleShift  = 2          // RFC 1323 shift we offer (x4)
	tcpInitialRTO   = 200 * time.Millisecond
	tcpMinRTO       = 30 * time.Millisecond
	tcpMaxRTO       = 3 * time.Second
	tcpMaxRetries   = 12
	tcpSynRetries   = 6
	tcpLingerPeriod = 200 * time.Millisecond
	tcpMaxOOO       = 256

	// tcpMaxCoalesce is the largest segment payload offered on GSO-capable
	// paths: one coalesced segment per FIFO entry on the channel path.
	// 64 KiB minus slack so the worst-case datagram (IP header + TCP
	// header with a full SACK option) stays under both the IPv4 total
	// length limit and the default 64 KiB FIFO's max packet size.
	tcpMaxCoalesce = 65280
)

// Sequence-number comparisons (mod 2^32).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

type fourTuple struct {
	localIP    pkt.IPv4
	remoteIP   pkt.IPv4
	localPort  uint16
	remotePort uint16
}

func (t fourTuple) String() string {
	return fmt.Sprintf("%s:%d-%s:%d", t.localIP, t.localPort, t.remoteIP, t.remotePort)
}

// tcpLayer demultiplexes segments to connections and listeners.
type tcpLayer struct {
	stack     *Stack
	mu        sync.Mutex
	conns     map[fourTuple]*TCPConn
	listeners map[uint16]*TCPListener
}

func newTCPLayer(s *Stack) *tcpLayer {
	return &tcpLayer{
		stack:     s,
		conns:     map[fourTuple]*TCPConn{},
		listeners: map[uint16]*TCPListener{},
	}
}

func (l *tcpLayer) closeAll() {
	l.mu.Lock()
	conns := make([]*TCPConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	listeners := make([]*TCPListener, 0, len(l.listeners))
	for _, ln := range l.listeners {
		listeners = append(listeners, ln)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Abort()
	}
	for _, ln := range listeners {
		ln.Close()
	}
}

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	stack *Stack
	port  uint16

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*TCPConn
	closed  bool
	dl      deadline // Accept deadline (SetDeadline)
}

// ListenTCP binds a listener to addr.Port (0 = ephemeral). The stack
// accepts on all local addresses; a non-zero addr.IP is recorded for
// Addr() but does not restrict the bind.
func (s *Stack) ListenTCP(addr Addr) (*TCPListener, error) {
	port := addr.Port
	l := s.tcp
	l.mu.Lock()
	defer l.mu.Unlock()
	if port == 0 {
		for {
			port = s.allocPort()
			if _, ok := l.listeners[port]; !ok {
				break
			}
		}
	} else if _, ok := l.listeners[port]; ok {
		return nil, fmt.Errorf("%w: tcp/%d", ErrPortInUse, port)
	}
	ln := &TCPListener{stack: s, port: port}
	ln.cond = sync.NewCond(&ln.mu)
	l.listeners[port] = ln
	return ln, nil
}

// Port returns the listening port.
func (ln *TCPListener) Port() uint16 { return ln.port }

// Addr returns the bound address (wildcard IP).
func (ln *TCPListener) Addr() Addr { return Addr{Port: ln.port} }

// SetDeadline sets the Accept deadline on the stack's model timeline
// (zero t clears it). An expired deadline makes Accept fail with
// os.ErrDeadlineExceeded until reset.
func (ln *TCPListener) SetDeadline(t time.Time) error {
	ln.dl.set(&ln.mu, ln.stack.model, t, ln.cond.Broadcast)
	return nil
}

// Accept blocks for the next established connection.
func (ln *TCPListener) Accept() (*TCPConn, error) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for len(ln.backlog) == 0 && !ln.closed && !ln.dl.expired {
		ln.cond.Wait()
	}
	if ln.closed && len(ln.backlog) == 0 {
		return nil, ErrClosed
	}
	if ln.dl.expired {
		return nil, os.ErrDeadlineExceeded
	}
	if len(ln.backlog) == 0 {
		return nil, ErrClosed
	}
	c := ln.backlog[0]
	ln.backlog = ln.backlog[1:]
	return c, nil
}

// Close stops the listener.
func (ln *TCPListener) Close() error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return nil
	}
	ln.closed = true
	ln.cond.Broadcast()
	ln.mu.Unlock()
	l := ln.stack.tcp
	l.mu.Lock()
	if l.listeners[ln.port] == ln {
		delete(l.listeners, ln.port)
	}
	l.mu.Unlock()
	return nil
}

func (ln *TCPListener) deliver(c *TCPConn) {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		c.Abort()
		return
	}
	ln.backlog = append(ln.backlog, c)
	ln.cond.Signal()
	ln.mu.Unlock()
}

// TCPConn is a blocking, reliable, in-order byte-stream socket.
type TCPConn struct {
	stack *Stack
	tuple fourTuple

	mu    sync.Mutex
	rcond *sync.Cond // readers
	wcond *sync.Cond // writers and state waiters

	state tcpState
	mss   int

	// Window scaling (RFC 1323), negotiated on SYN.
	sndScale uint8 // shift applied to windows the peer advertises
	rcvScale uint8 // shift applied to windows we advertise
	rcvLimit int   // receive buffer bound (grows when scaling is on)

	// Congestion control (Reno-style): slow start below ssthresh,
	// additive increase above, fast retransmit on three duplicate ACKs,
	// multiplicative decrease on loss.
	cwnd     int
	ssthresh int
	dupAcks  int
	retrans  uint64 // loss-recovery transmissions (diagnostics)
	// retransBytes counts every payload byte sent at a sequence number
	// that had already been transmitted — the quantity the loss-matrix
	// tests compare between SACK and go-back-N recovery.
	retransBytes uint64

	// SACK (RFC 2018). wantSACK is what we offer on SYN; sackOK is the
	// negotiated result. The scoreboard holds peer-sacked ranges, kept
	// disjoint, ascending, and inside (sndUna, sndMax]. During recovery
	// sackHint walks the holes so each ACK retransmits the next one
	// instead of rewinding sndNxt.
	wantSACK     bool
	sackOK       bool
	scoreboard   []pkt.SACKBlock
	inRecovery   bool
	recoverUntil uint32
	sackHint     uint32

	// Send side. sndBuf holds unacknowledged plus unsent data; the
	// sequence number of sndBuf[0] is sndUna. sndMax is the highest
	// sequence ever transmitted: go-back-N rewinds sndNxt, so ACK
	// acceptance must be judged against sndMax or an ACK racing a
	// retransmission timeout looks "too new" and the connection wedges.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndMax    uint32
	sndWnd    int
	sndBuf    []byte
	sndClosed bool // Close called: emit FIN once drained
	finSent   bool
	finAcked  bool

	// Receive side.
	rcvNxt  uint32
	rcvBuf  []byte
	rcvdFin bool
	lastAdv int
	// oooQ is the out-of-order reassembly queue: disjoint segments in
	// ascending sequence order, the source of outgoing SACK blocks.
	// Stashed bytes are never discarded (no reneging — the peer's
	// scoreboard will not retransmit them); overflow refuses new
	// segments instead. oooLast is the left edge of the most recently
	// stashed segment, reported first in SACK blocks per RFC 2018.
	oooQ    []oooSeg
	oooLast uint32

	// Delayed-ACK state: pure ACKs are deferred briefly so a prompt
	// application response can carry them (vital for request-response
	// workloads over high-latency virtual paths).
	ackPending  int
	delackTimer *costmodel.Timer

	// Outbound segments are built under the connection lock but
	// transmitted by a dedicated sender goroutine, so ACK processing
	// never waits behind wire serialization (and vice versa).
	txq     [][]byte
	txCond  *sync.Cond
	txDead  bool
	txEmpty bool // all queued segments handed to the device

	// Timers and lifecycle. RTO follows RFC 6298 from live RTT samples
	// (Karn's rule: no samples across retransmissions).
	rto       time.Duration
	srtt      time.Duration
	rttvar    time.Duration
	measSeq   uint32
	measTime  int64 // metrics.Now timestamp (wall or virtual ns)
	measValid bool
	rtoTimer  *costmodel.Timer
	retries   int
	connErr   error
	removed   bool
	// pollSrc is the source that delivered the last segment, which a
	// read about to block busy-polls; nil when that was not a pollable
	// source (see BusyPoller).
	pollSrc BusyPoller

	// I/O deadlines (net.Conn semantics, on the model timeline).
	rdl deadline
	wdl deadline

	listener *TCPListener // SYN_RCVD only
	estOnce  sync.Once
	estCh    chan struct{}
}

func newTCPConn(s *Stack, tuple fourTuple, state tcpState) *TCPConn {
	c := &TCPConn{
		stack:    s,
		tuple:    tuple,
		state:    state,
		mss:      536,
		iss:      rand.Uint32(),
		rto:      tcpInitialRTO,
		wantSACK: s.TCPSACKEnabled(),
		estCh:    make(chan struct{}),
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMax = c.iss
	c.rcvLimit = tcpRcvBufLimit
	c.lastAdv = c.rcvLimit
	c.ssthresh = tcpSndBufLimit
	c.rcond = sync.NewCond(&c.mu)
	c.wcond = sync.NewCond(&c.mu)
	c.txCond = sync.NewCond(&c.mu)
	c.txEmpty = true
	go c.sender()
	return c
}

// sender drains the outbound segment queue onto the IP layer. It is the
// only goroutine that transmits for this connection, preserving segment
// order while keeping the connection lock free during (possibly slow)
// link-layer transmission.
func (c *TCPConn) sender() {
	for {
		c.mu.Lock()
		for len(c.txq) == 0 && !c.txDead {
			c.txEmpty = true
			c.txCond.Wait()
		}
		if c.txDead && len(c.txq) == 0 {
			c.mu.Unlock()
			return
		}
		seg := c.txq[0]
		c.txq = c.txq[1:]
		c.mu.Unlock()
		_ = c.stack.ipOutput(pkt.ProtoTCP, c.tuple.localIP, c.tuple.remoteIP, seg)
	}
}

// stopSender terminates the sender goroutine once the queue drains.
func (c *TCPConn) stopSenderLocked() {
	c.txDead = true
	c.txCond.Broadcast()
}

// deviceMSS derives the MSS this side offers for a connection leaving via
// ifc: large when the device does segmentation offload (the virtual paths
// between co-resident VMs), MTU-derived otherwise.
func deviceMSS(ifc *Iface) int {
	if gso := ifc.dev.GSOMaxSize(); gso > 0 {
		return gso - pkt.TCPHeaderLen
	}
	return ifc.dev.MTU() - pkt.IPv4HeaderLen - pkt.TCPHeaderLen
}

// coalesceMSS is the MSS a connection through ifc negotiates. On a
// GSO-capable path it is raised to tcpMaxCoalesce regardless of the
// device's own offload limit: the XenLoop channel carries the whole
// coalesced segment in one FIFO entry, and when the channel declines
// (fallback to netfront) transmitDatagram splits the segment back down
// in software. Non-offload paths keep the MTU-derived MSS. SetTCPSegCap
// lowers the result for benchmark sweeps.
func (s *Stack) coalesceMSS(ifc *Iface) int {
	m := deviceMSS(ifc)
	if ifc.dev.GSOMaxSize() > 0 && m < tcpMaxCoalesce {
		m = tcpMaxCoalesce
	}
	if cap := int(s.tcpSegCap.Load()); cap > 0 && m > cap {
		m = cap
	}
	return max(m, 536)
}

// DialTCP opens a connection to addr, blocking until established.
func (s *Stack) DialTCP(addr Addr) (*TCPConn, error) {
	dst, port := addr.IP, addr.Port
	ifc, _, err := s.route(dst)
	if err != nil {
		return nil, err
	}
	src, err := s.localIPFor(dst)
	if err != nil {
		return nil, err
	}
	l := s.tcp
	l.mu.Lock()
	var tuple fourTuple
	for {
		tuple = fourTuple{localIP: src, remoteIP: dst, localPort: s.allocPort(), remotePort: port}
		if _, ok := l.conns[tuple]; !ok {
			break
		}
	}
	c := newTCPConn(s, tuple, tcpSynSent)
	c.mss = s.coalesceMSS(ifc)
	l.conns[tuple] = c
	l.mu.Unlock()

	c.mu.Lock()
	c.sendSegmentLocked(pkt.TCPSyn, nil, uint16(c.mss))
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.armRTOLocked()
	c.mu.Unlock()

	select {
	case <-c.estCh:
	case <-s.model.After(10 * time.Second):
		c.Abort()
		return nil, fmt.Errorf("%w: dial %s:%d", ErrTimeout, dst, port)
	}
	c.mu.Lock()
	err = c.connErr
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// LocalAddr returns the local endpoint address.
func (c *TCPConn) LocalAddr() Addr { return Addr{IP: c.tuple.localIP, Port: c.tuple.localPort} }

// RemoteAddr returns the remote endpoint address.
func (c *TCPConn) RemoteAddr() Addr { return Addr{IP: c.tuple.remoteIP, Port: c.tuple.remotePort} }

// SetDeadline sets both the read and write deadlines (zero t clears).
func (c *TCPConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the deadline for Read calls on the stack's model
// timeline (compute it as stack.Model().Now().Add(d)). A zero t clears
// it; once it expires, blocked and future Reads fail with
// os.ErrDeadlineExceeded until the deadline is reset.
func (c *TCPConn) SetReadDeadline(t time.Time) error {
	c.rdl.set(&c.mu, c.stack.model, t, c.rcond.Broadcast)
	return nil
}

// SetWriteDeadline sets the deadline for Write calls; see
// SetReadDeadline for semantics.
func (c *TCPConn) SetWriteDeadline(t time.Time) error {
	c.wdl.set(&c.mu, c.stack.model, t, c.wcond.Broadcast)
	return nil
}

// MSS returns the negotiated maximum segment size.
func (c *TCPConn) MSS() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mss
}

// Write queues b on the send buffer, blocking while it is full, and
// returns once all of b is accepted (len(b), nil) or an error occurs.
func (c *TCPConn) Write(b []byte) (int, error) {
	s := c.stack
	s.model.Charge(s.model.Syscall)
	s.model.ChargeCopy(len(b)) // user -> kernel
	written := 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for written < len(b) {
		if c.wdl.expired {
			return written, os.ErrDeadlineExceeded
		}
		if c.connErr != nil {
			return written, c.connErr
		}
		if c.sndClosed || c.state == tcpClosed {
			return written, ErrClosed
		}
		space := tcpSndBufLimit - len(c.sndBuf)
		if space <= 0 {
			c.wcond.Wait()
			continue
		}
		n := min(space, len(b)-written)
		c.sndBuf = append(c.sndBuf, b[written:written+n]...)
		written += n
		c.trySendLocked()
	}
	return written, nil
}

// readableLocked reports whether Read would return without waiting: data,
// EOF, an error or an expired deadline. c.mu held.
func (c *TCPConn) readableLocked() bool {
	return len(c.rcvBuf) > 0 || c.rcvdFin || c.connErr != nil || c.state == tcpClosed || c.rdl.expired
}

// Read copies received stream data into b, blocking until at least one
// byte (or EOF/error) is available. A cleanly closed peer (FIN consumed)
// reads as (0, io.EOF), so io.ReadFull and friends compose; an expired
// read deadline reads as (0, os.ErrDeadlineExceeded) until reset.
func (c *TCPConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	waited, polled := false, false
	for !c.readableLocked() {
		waited = true
		if src := c.pollSrc; src != nil && !polled {
			polled = true
			c.mu.Unlock()
			busyPoll(src, func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return c.readableLocked()
			})
			c.mu.Lock()
			continue
		}
		c.rcond.Wait()
	}
	if c.rdl.expired {
		c.mu.Unlock()
		return 0, os.ErrDeadlineExceeded
	}
	if len(c.rcvBuf) == 0 {
		err := c.connErr
		c.mu.Unlock()
		if err == nil {
			err = io.EOF // clean EOF
		}
		return 0, err
	}
	n := copy(b, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	// Window update: if our advertised window had collapsed, reopen it.
	if c.lastAdv < c.mss && c.advertiseLocked() >= c.mss {
		c.sendSegmentLocked(pkt.TCPAck, nil, 0)
	}
	c.mu.Unlock()

	s := c.stack
	if waited && s.isLocalIP(c.tuple.remoteIP) {
		// Writer and blocked reader share this OS instance: the wake is
		// a process context switch (native loopback).
		s.model.Charge(s.model.LocalWakeup)
	}
	s.model.Charge(s.model.Syscall)
	s.model.ChargeCopy(n) // kernel -> user
	return n, nil
}

// Close half-closes the send direction: buffered data is still delivered,
// then a FIN. Read continues to work until the peer closes.
func (c *TCPConn) Close() error {
	c.mu.Lock()
	if !c.sndClosed && c.state != tcpClosed {
		c.sndClosed = true
		c.trySendLocked()
	}
	c.mu.Unlock()
	return nil
}

// Abort resets the connection immediately.
func (c *TCPConn) Abort() {
	c.mu.Lock()
	if c.state == tcpClosed {
		c.mu.Unlock()
		return
	}
	if c.state == tcpEstablished || c.state == tcpSynRcvd {
		c.sendSegmentLocked(pkt.TCPRst|pkt.TCPAck, nil, 0)
	}
	c.failLocked(ErrReset)
	c.mu.Unlock()
}

// advertiseLocked computes the receive window to advertise.
func (c *TCPConn) advertiseLocked() int {
	w := c.rcvLimit - len(c.rcvBuf)
	if w < 0 {
		w = 0
	}
	return w
}

// tcpDelAckDelay is the delayed-ACK timeout (Linux uses up to 40 ms; the
// simulated stack keeps it short relative to benchmark durations).
const tcpDelAckDelay = time.Millisecond

// sendSegmentLocked emits one segment with the current ack/window state.
// Every outgoing segment acknowledges, so pending delayed ACKs clear.
func (c *TCPConn) sendSegmentLocked(flags uint8, payload []byte, mssOpt uint16) {
	if flags&pkt.TCPAck != 0 {
		c.ackPending = 0
		if c.delackTimer != nil {
			c.delackTimer.Stop()
		}
	}
	c.lastAdv = c.advertiseLocked()
	wnd := c.lastAdv >> c.rcvScale
	if wnd > 65535 {
		wnd = 65535
	}
	hdr := pkt.TCPHeader{
		SrcPort: c.tuple.localPort,
		DstPort: c.tuple.remotePort,
		Seq:     c.sndNxt,
		Window:  uint16(wnd),
		Flags:   flags,
		MSS:     mssOpt,
	}
	if flags&pkt.TCPSyn != 0 {
		hdr.WScale = tcpWScaleShift + 1
		hdr.SACKPermitted = c.wantSACK
	}
	if flags&pkt.TCPAck != 0 {
		hdr.Ack = c.rcvNxt
		if c.sackOK && len(c.oooQ) > 0 {
			hdr.SACK = c.sackBlocksLocked()
		}
	}
	if flags&pkt.TCPSyn != 0 {
		hdr.Seq = c.iss
	}
	seg := pkt.BuildTCP(c.tuple.localIP, c.tuple.remoteIP, &hdr, payload)
	c.txq = append(c.txq, seg)
	c.txEmpty = false
	c.txCond.Signal()
}

// advanceSndNxtLocked moves sndNxt forward by n sequence numbers and keeps
// sndMax at the high-water mark.
func (c *TCPConn) advanceSndNxtLocked(n uint32) {
	c.sndNxt += n
	if seqLT(c.sndMax, c.sndNxt) {
		c.sndMax = c.sndNxt
	}
}

// trySendLocked transmits as much of the send buffer as the peer window
// allows, then the FIN if the stream is closed and drained.
func (c *TCPConn) trySendLocked() {
	if c.state != tcpEstablished {
		return
	}
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		if c.finSent {
			inFlight-- // FIN occupies one sequence number
		}
		avail := len(c.sndBuf) - inFlight
		wndLeft := min(c.sndWnd, c.cwnd) - inFlight
		if avail <= 0 || c.finSent {
			break
		}
		if wndLeft <= 0 {
			// Zero-window: keep the probe timer running so a lost
			// window update cannot wedge the connection.
			c.armRTOLocked()
			break
		}
		n := min(avail, c.mss, wndLeft)
		if n <= 0 {
			break
		}
		flags := pkt.TCPAck
		if inFlight+n == len(c.sndBuf) {
			flags |= pkt.TCPPsh
		}
		payload := c.sndBuf[inFlight : inFlight+n]
		if seqLT(c.sndNxt, c.sndMax) {
			// Go-back-N rewound sndNxt: these bytes are on the wire again.
			c.retransBytes += uint64(min(n, int(c.sndMax-c.sndNxt)))
		}
		c.sendSegmentLocked(flags, payload, 0)
		c.advanceSndNxtLocked(uint32(n))
		if !c.measValid {
			c.measSeq = c.sndNxt
			c.measTime = metrics.Now()
			c.measValid = true
		}
	}
	if c.sndClosed && !c.finSent && int(c.sndNxt-c.sndUna) == len(c.sndBuf) {
		c.sendSegmentLocked(pkt.TCPFin|pkt.TCPAck, nil, 0)
		c.advanceSndNxtLocked(1)
		c.finSent = true
	}
	if c.sndNxt != c.sndUna {
		c.armRTOLocked()
	} else {
		c.disarmRTOLocked()
		c.maybeFinishLocked()
	}
}

func (c *TCPConn) armDelayedAckLocked() {
	if c.delackTimer == nil {
		c.delackTimer = c.stack.model.AfterFunc(tcpDelAckDelay, c.delackFire)
		return
	}
	c.delackTimer.Reset(tcpDelAckDelay)
}

// delackFire flushes a still-pending delayed ACK.
func (c *TCPConn) delackFire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ackPending > 0 && c.state == tcpEstablished {
		c.sendSegmentLocked(pkt.TCPAck, nil, 0)
	}
}

func (c *TCPConn) armRTOLocked() {
	if c.rtoTimer == nil {
		c.rtoTimer = c.stack.model.AfterFunc(c.rto, c.rtoFire)
		return
	}
	c.rtoTimer.Reset(c.rto)
}

func (c *TCPConn) disarmRTOLocked() {
	if c.rtoTimer != nil {
		c.rtoTimer.Stop()
	}
	c.retries = 0
	c.rto = tcpInitialRTO
}

// rtoFire is the retransmission timeout: go-back-N from sndUna with
// exponential backoff.
func (c *TCPConn) rtoFire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == tcpClosed || c.connErr != nil {
		return
	}
	switch c.state {
	case tcpSynSent:
		if c.retries >= tcpSynRetries {
			c.failLocked(ErrTimeout)
			return
		}
		c.retries++
		c.sendSegmentLocked(pkt.TCPSyn, nil, uint16(c.mss))
	case tcpSynRcvd:
		if c.retries >= tcpSynRetries {
			c.failLocked(ErrTimeout)
			return
		}
		c.retries++
		c.sendSegmentLocked(pkt.TCPSyn|pkt.TCPAck, nil, uint16(c.mss))
	case tcpEstablished:
		if c.sndNxt == c.sndUna && !c.finSent {
			return // nothing outstanding after all
		}
		if c.retries >= tcpMaxRetries {
			c.failLocked(ErrTimeout)
			return
		}
		c.retries++
		// Loss detected by timeout: collapse the congestion window.
		inFlight := int(c.sndNxt - c.sndUna)
		c.ssthresh = max(inFlight/2, 2*c.mss)
		c.cwnd = c.mss
		c.retrans++
		c.measValid = false
		switch {
		case c.sndWnd == 0 && len(c.sndBuf) > 0:
			// Window probe: force one byte through a closed window.
			saved := c.sndNxt
			c.sndNxt = c.sndUna
			if seqLT(c.sndNxt, c.sndMax) {
				c.retransBytes++
			}
			c.sendSegmentLocked(pkt.TCPAck|pkt.TCPPsh, c.sndBuf[:1], 0)
			c.sndNxt = saved
			if seqLT(c.sndNxt, c.sndUna+1) {
				c.sndNxt = c.sndUna + 1
			}
			c.advanceSndNxtLocked(0)
		case c.sackOK:
			// Hole-only recovery: no sndNxt rewind, no FIN state reset.
			// RFC 2018 discards SACK information on timeout — incoming
			// ACKs rebuild the scoreboard (the receiver never reneges)
			// and clock out any further holes; here only the oldest
			// outstanding segment goes back on the wire.
			c.scoreboard = c.scoreboard[:0]
			c.inRecovery = true
			c.recoverUntil = c.sndMax
			c.sackHint = c.sndUna
			c.retransmitRangeLocked(c.sndUna, c.sndMax)
		default:
			// Go-back-N: rewind and resend everything outstanding.
			c.sndNxt = c.sndUna
			c.finSent = false
			c.trySendLocked()
		}
	}
	c.rto = min(c.rto*2, tcpMaxRTO)
	c.armRTOLocked()
}

// failLocked terminates the connection with err and wakes everyone.
func (c *TCPConn) failLocked(err error) {
	if c.connErr == nil {
		c.connErr = err
	}
	c.state = tcpClosed
	c.disarmRTOLocked()
	c.stopSenderLocked()
	c.rcond.Broadcast()
	c.wcond.Broadcast()
	c.estOnce.Do(func() { close(c.estCh) })
	c.removeLocked()
}

// maybeFinishLocked removes a gracefully finished connection after a short
// linger (so retransmitted FINs still find the state to ack).
func (c *TCPConn) maybeFinishLocked() {
	if c.finSent && c.finAcked && c.rcvdFin && !c.removed {
		c.removed = true
		conn := c
		c.stack.model.AfterFunc(tcpLingerPeriod, func() {
			conn.mu.Lock()
			conn.state = tcpClosed
			conn.stopSenderLocked()
			conn.rcond.Broadcast()
			conn.wcond.Broadcast()
			conn.mu.Unlock()
			l := conn.stack.tcp
			l.mu.Lock()
			if l.conns[conn.tuple] == conn {
				delete(l.conns, conn.tuple)
			}
			l.mu.Unlock()
		})
	}
}

func (c *TCPConn) removeLocked() {
	if c.removed {
		return
	}
	c.removed = true
	l := c.stack.tcp
	go func() {
		l.mu.Lock()
		if l.conns[c.tuple] == c {
			delete(l.conns, c.tuple)
		}
		l.mu.Unlock()
	}()
}

// input demultiplexes one TCP segment.
func (l *tcpLayer) input(h pkt.IPv4Header, payload []byte, src BusyPoller) {
	th, data, err := pkt.ParseTCP(h.Src, h.Dst, payload)
	if err != nil {
		return
	}
	tuple := fourTuple{localIP: h.Dst, remoteIP: h.Src, localPort: th.DstPort, remotePort: th.SrcPort}
	l.mu.Lock()
	c := l.conns[tuple]
	var ln *TCPListener
	if c == nil {
		ln = l.listeners[th.DstPort]
	}
	l.mu.Unlock()

	switch {
	case c != nil:
		c.segArrives(&th, data, src)
	case ln != nil && th.HasFlag(pkt.TCPSyn) && !th.HasFlag(pkt.TCPAck):
		l.handleSyn(ln, tuple, &th)
	case !th.HasFlag(pkt.TCPRst):
		l.sendRst(tuple, &th, len(data))
	}
}

// handleSyn creates the passive-open connection and answers SYN|ACK.
func (l *tcpLayer) handleSyn(ln *TCPListener, tuple fourTuple, th *pkt.TCPHeader) {
	s := l.stack
	ifc, _, err := s.route(tuple.remoteIP)
	if err != nil {
		return
	}
	c := newTCPConn(s, tuple, tcpSynRcvd)
	c.listener = ln
	c.mss = s.coalesceMSS(ifc)
	if th.MSS != 0 {
		c.mss = min(c.mss, int(th.MSS))
	}
	l.mu.Lock()
	if existing := l.conns[tuple]; existing != nil {
		l.mu.Unlock()
		return // duplicate SYN; existing state answers retransmissions
	}
	l.conns[tuple] = c
	l.mu.Unlock()

	c.mu.Lock()
	c.rcvNxt = th.Seq + 1
	c.sndWnd = int(th.Window)
	if th.WScale != 0 {
		c.sndScale = th.WScale - 1
		c.rcvScale = tcpWScaleShift
		c.rcvLimit = tcpRcvBufScaled
	}
	// Offer SACK back only if the peer offered it and the knob allows.
	c.wantSACK = c.wantSACK && th.SACKPermitted
	c.sackOK = c.wantSACK
	c.sendSegmentLocked(pkt.TCPSyn|pkt.TCPAck, nil, uint16(s.coalesceMSS(ifc)))
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.armRTOLocked()
	c.mu.Unlock()
}

// sendRst answers a stray segment with a reset.
func (l *tcpLayer) sendRst(tuple fourTuple, th *pkt.TCPHeader, dataLen int) {
	hdr := pkt.TCPHeader{
		SrcPort: tuple.localPort,
		DstPort: tuple.remotePort,
		Flags:   pkt.TCPRst | pkt.TCPAck,
	}
	if th.HasFlag(pkt.TCPAck) {
		hdr.Seq = th.Ack
	}
	ackLen := uint32(dataLen)
	if th.HasFlag(pkt.TCPSyn) || th.HasFlag(pkt.TCPFin) {
		ackLen++
	}
	hdr.Ack = th.Seq + ackLen
	seg := pkt.BuildTCP(tuple.localIP, tuple.remoteIP, &hdr, nil)
	_ = l.stack.ipOutput(pkt.ProtoTCP, tuple.localIP, tuple.remoteIP, seg)
}

// segArrives is the per-connection segment processor.
func (c *TCPConn) segArrives(th *pkt.TCPHeader, data []byte, src BusyPoller) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollSrc = src
	if c.state == tcpClosed {
		return
	}
	if th.HasFlag(pkt.TCPRst) {
		err := ErrReset
		if c.state == tcpSynSent {
			err = ErrRefused
		}
		c.failLocked(err)
		return
	}

	switch c.state {
	case tcpSynSent:
		if !th.HasFlag(pkt.TCPSyn) || !th.HasFlag(pkt.TCPAck) || th.Ack != c.iss+1 {
			return
		}
		c.rcvNxt = th.Seq + 1
		c.sndUna = th.Ack
		c.sndWnd = int(th.Window) // unscaled on SYN per RFC 1323
		if th.MSS != 0 {
			c.mss = min(c.mss, int(th.MSS))
		}
		if th.WScale != 0 {
			c.sndScale = th.WScale - 1
			c.rcvScale = tcpWScaleShift
			c.rcvLimit = tcpRcvBufScaled
		}
		c.sackOK = c.wantSACK && th.SACKPermitted
		c.state = tcpEstablished
		c.cwnd = tcpInitialCwndSegs * c.mss
		c.disarmRTOLocked()
		c.sendSegmentLocked(pkt.TCPAck, nil, 0)
		c.estOnce.Do(func() { close(c.estCh) })
		c.trySendLocked()
		return

	case tcpSynRcvd:
		if !th.HasFlag(pkt.TCPAck) || th.Ack != c.iss+1 {
			return
		}
		c.sndUna = th.Ack
		c.sndWnd = int(th.Window)
		c.state = tcpEstablished
		c.cwnd = tcpInitialCwndSegs * c.mss
		c.disarmRTOLocked()
		c.estOnce.Do(func() { close(c.estCh) })
		if ln := c.listener; ln != nil {
			c.listener = nil
			// Deliver outside the lock to avoid lock-order issues.
			go ln.deliver(c)
		}
		// Fall through to normal processing for any piggybacked data.
	}

	// ACK processing.
	if th.HasFlag(pkt.TCPAck) {
		ack := th.Ack
		sackAdvanced := false
		if c.sackOK && len(th.SACK) > 0 {
			sackAdvanced = c.mergeSACKLocked(th.SACK)
		}
		if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndMax) {
			if seqLT(c.sndNxt, ack) {
				// Go-back-N rewound sndNxt below data the peer now
				// acknowledges; it needs no retransmission after all.
				c.sndNxt = ack
			}
			acked := int(ack - c.sndUna)
			dataAcked := min(acked, len(c.sndBuf))
			c.sndBuf = c.sndBuf[dataAcked:]
			c.sndUna = ack
			c.advanceScoreLocked(ack)
			if c.finSent && ack == c.sndMax {
				c.finAcked = true
			}
			c.retries = 0
			if c.measValid && seqLEQ(c.measSeq, ack) {
				c.measValid = false
				c.sampleRTTLocked(time.Duration(metrics.Now() - c.measTime))
			}
			c.dupAcks = 0
			if c.inRecovery {
				if seqLT(ack, c.recoverUntil) {
					// Partial ACK: probe the scoreboard again from the
					// new window front. The hint never rewinds inside
					// one episode — a hole already resent may still be
					// in flight; if that retransmission also died the
					// rearmed RTO is the backstop.
					if seqLT(c.sackHint, ack) {
						c.sackHint = ack
					}
					c.retransmitHoleLocked()
					c.armRTOLocked()
				} else {
					c.inRecovery = false
					c.cwnd = c.ssthresh
				}
			} else {
				c.growCwndLocked(acked)
			}
			c.wcond.Broadcast()
		} else if ack == c.sndUna && len(data) == 0 && !th.HasFlag(pkt.TCPSyn) &&
			!th.HasFlag(pkt.TCPFin) && c.sndNxt != c.sndUna {
			// Duplicate ACK for outstanding data. With SACK negotiated,
			// RFC 6675 counts only ACKs that carried new SACK
			// information — duplicated segments echo ACKs with none,
			// and letting them clock recovery retransmits data that
			// was never lost.
			if !c.sackOK || sackAdvanced {
				c.dupAcks++
				switch {
				case c.sackOK && c.inRecovery:
					// Each returning ACK clocks out one more hole.
					c.retransmitHoleLocked()
				case c.sackOK && c.dupAcks >= 3:
					c.enterSACKRecoveryLocked()
				case !c.sackOK && c.dupAcks == 3:
					c.fastRetransmitLocked()
				}
			}
		}
		if seqLEQ(ack, c.sndMax) {
			c.sndWnd = int(th.Window) << c.sndScale
		}
	}

	ackNeeded := false
	outOfOrder := false

	// In-order and out-of-order data.
	if len(data) > 0 {
		outOfOrder = th.Seq != c.rcvNxt
		c.acceptDataLocked(th.Seq, data)
		ackNeeded = true
	}

	// FIN processing (only once all preceding data has arrived).
	finSeq := th.Seq + uint32(len(data))
	if th.HasFlag(pkt.TCPFin) {
		if finSeq == c.rcvNxt && !c.rcvdFin {
			c.rcvNxt++
			c.rcvdFin = true
			c.rcond.Broadcast()
		}
		ackNeeded = true
	}

	if ackNeeded {
		c.ackPending++
		urgent := th.HasFlag(pkt.TCPFin) || c.ackPending >= 2 || outOfOrder || len(c.oooQ) > 0
		// Piggyback the ACK on pending data when possible.
		before := c.sndNxt
		c.trySendLocked()
		switch {
		case c.sndNxt != before:
			// A data segment went out carrying the ACK.
		case urgent:
			c.sendSegmentLocked(pkt.TCPAck, nil, 0)
		default:
			c.armDelayedAckLocked()
		}
	} else {
		c.trySendLocked()
	}
	c.maybeFinishLocked()
}

// acceptDataLocked merges segment data at seq into the receive stream.
func (c *TCPConn) acceptDataLocked(seq uint32, data []byte) {
	if seqLT(c.rcvNxt, seq) {
		// Future segment: stash in the reassembly queue.
		c.insertOOOLocked(seq, data)
		c.oooLast = seq
		return
	}
	// Trim the already-received prefix.
	skip := int(c.rcvNxt - seq)
	if skip >= len(data) {
		return // entirely duplicate
	}
	data = data[skip:]
	// Respect the receive buffer bound (peer honors our window, so
	// overflow indicates duplicates in flight; truncate defensively).
	space := 2*c.rcvLimit - len(c.rcvBuf)
	if space <= 0 {
		return
	}
	if len(data) > space {
		data = data[:space]
	}
	c.rcvBuf = append(c.rcvBuf, data...)
	c.rcvNxt += uint32(len(data))
	c.rcond.Broadcast()
	c.drainOOOLocked()
}

// tcpInitialCwndSegs is the initial congestion window in segments.
const tcpInitialCwndSegs = 10

// growCwndLocked opens the congestion window for acked bytes: exponential
// below ssthresh (slow start), roughly one MSS per RTT above it.
func (c *TCPConn) growCwndLocked(acked int) {
	if c.cwnd == 0 {
		c.cwnd = tcpInitialCwndSegs * c.mss
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += min(acked, c.mss)
	} else {
		c.cwnd += max(1, c.mss*c.mss/c.cwnd)
	}
	if c.cwnd > tcpSndBufLimit {
		c.cwnd = tcpSndBufLimit
	}
}

// fastRetransmitLocked resends the oldest unacknowledged segment after
// three duplicate ACKs and halves the congestion window (Reno).
func (c *TCPConn) fastRetransmitLocked() {
	if c.state != tcpEstablished || len(c.sndBuf) == 0 {
		return
	}
	inFlight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(inFlight/2, 2*c.mss)
	c.cwnd = c.ssthresh + 3*c.mss
	c.retrans++
	c.retransBytes += uint64(min(c.mss, len(c.sndBuf)))
	c.measValid = false
	n := min(c.mss, len(c.sndBuf))
	// Rebuild the first outstanding segment without disturbing sndNxt.
	savedNxt := c.sndNxt
	c.sndNxt = c.sndUna
	c.sendSegmentLocked(pkt.TCPAck|pkt.TCPPsh, c.sndBuf[:n], 0)
	c.sndNxt = savedNxt
	c.armRTOLocked()
}

// Retransmissions reports how many loss-recovery events the connection
// has performed (fast retransmits plus timeouts).
func (c *TCPConn) Retransmissions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retrans
}

// RetransmittedBytes reports the total payload bytes this connection has
// sent more than once (go-back-N resends, fast retransmits, SACK hole
// fills, window probes). The loss-matrix tests gate the SACK path on
// this number staying below the go-back-N baseline.
func (c *TCPConn) RetransmittedBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retransBytes
}

// SACKEnabled reports whether the connection negotiated SACK.
func (c *TCPConn) SACKEnabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sackOK
}

// DebugString summarizes the connection state for diagnostics.
func (c *TCPConn) DebugString() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%s %s snd[una=%d nxt=%d buf=%d wnd=%d cwnd=%d ssthresh=%d] rcv[nxt=%d buf=%d ooo=%d adv=%d] sack[ok=%v sb=%d rec=%v] fin[snt=%v ack=%v rcvd=%v closed=%v] retrans=%d/%dB retries=%d rto=%v txq=%d err=%v",
		c.tuple, c.state,
		c.sndUna-c.iss, c.sndNxt-c.iss, len(c.sndBuf), c.sndWnd, c.cwnd, c.ssthresh,
		c.rcvNxt, len(c.rcvBuf), len(c.oooQ), c.lastAdv,
		c.sackOK, len(c.scoreboard), c.inRecovery,
		c.finSent, c.finAcked, c.rcvdFin, c.sndClosed,
		c.retrans, c.retransBytes, c.retries, c.rto, len(c.txq), c.connErr)
}

// TCPConns snapshots the stack's live TCP connections (diagnostics).
func (s *Stack) TCPConns() []*TCPConn {
	l := s.tcp
	l.mu.Lock()
	defer l.mu.Unlock()
	conns := make([]*TCPConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	return conns
}

// sampleRTTLocked folds one RTT sample into the smoothed estimators and
// recomputes the retransmission timeout (RFC 6298).
func (c *TCPConn) sampleRTTLocked(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	c.rto = min(max(rto, tcpMinRTO), tcpMaxRTO)
}
