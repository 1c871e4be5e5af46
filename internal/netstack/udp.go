package netstack

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/pkt"
)

// maxUDPPayload is the largest UDP payload an IPv4 datagram can carry.
const maxUDPPayload = 65535 - pkt.IPv4HeaderLen - pkt.UDPHeaderLen

// udpRecvQueueLen bounds a socket's receive queue in datagrams; arrivals
// beyond it are dropped, as UDP allows (and as netperf's UDP_STREAM
// goodput measurement relies on).
const udpRecvQueueLen = 512

type udpDatagram struct {
	data    []byte
	srcIP   pkt.IPv4
	srcPort uint16
}

// UDPConn is a blocking UDP socket.
type UDPConn struct {
	stack     *Stack
	localIP   pkt.IPv4 // zero = wildcard
	localPort uint16

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []udpDatagram
	closed   bool
	refused  bool // ICMP port-unreachable received for our traffic
	received uint64
	dropped  uint64
	// pollSrc is the source that delivered the last datagram, which a
	// read about to block busy-polls; nil when that was not a pollable
	// source (see BusyPoller).
	pollSrc BusyPoller

	// I/O deadlines (net.Conn semantics, on the model timeline).
	rdl deadline
	wdl deadline
}

// handleUnreachable routes an ICMP destination-unreachable back to the
// UDP socket whose datagram provoked it (identified by the quoted source
// port), surfacing ErrRefused on the next socket operation — the
// ECONNREFUSED behavior of connected UDP sockets.
func (s *Stack) handleUnreachable(code uint8, original []byte) {
	if code != pkt.ICMPCodePortUnreachable {
		return
	}
	// The quote is truncated to IP header + 8 bytes (RFC 792), so parse
	// the fields positionally rather than with the strict parser.
	if len(original) < pkt.IPv4HeaderLen+2 || original[0]>>4 != 4 {
		return
	}
	ihl := int(original[0]&0x0f) * 4
	if original[9] != pkt.ProtoUDP || len(original) < ihl+2 {
		return
	}
	srcPort := uint16(original[ihl])<<8 | uint16(original[ihl+1])
	l := s.udp
	l.mu.Lock()
	c := l.conns[srcPort]
	l.mu.Unlock()
	if c == nil {
		return
	}
	c.mu.Lock()
	c.refused = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// udpLayer demultiplexes datagrams onto sockets by destination port.
type udpLayer struct {
	stack *Stack
	mu    sync.Mutex
	conns map[uint16]*UDPConn
}

func newUDPLayer(s *Stack) *udpLayer {
	return &udpLayer{stack: s, conns: map[uint16]*UDPConn{}}
}

func (l *udpLayer) closeAll() {
	l.mu.Lock()
	conns := make([]*UDPConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// ListenUDP binds a UDP socket to port (0 = ephemeral).
func (s *Stack) ListenUDP(port uint16) (*UDPConn, error) {
	l := s.udp
	l.mu.Lock()
	defer l.mu.Unlock()
	if port == 0 {
		for {
			port = s.allocPort()
			if _, ok := l.conns[port]; !ok {
				break
			}
		}
	} else if _, ok := l.conns[port]; ok {
		return nil, fmt.Errorf("%w: udp/%d", ErrPortInUse, port)
	}
	c := &UDPConn{stack: s, localPort: port}
	c.cond = sync.NewCond(&c.mu)
	l.conns[port] = c
	return c, nil
}

func (l *udpLayer) input(h pkt.IPv4Header, payload []byte, src BusyPoller) {
	uh, data, err := pkt.ParseUDP(h.Src, h.Dst, payload)
	if err != nil {
		return
	}
	l.mu.Lock()
	c := l.conns[uh.DstPort]
	l.mu.Unlock()
	if c == nil {
		// Closed port: answer with ICMP port unreachable, quoting the
		// offending datagram so the sender can identify its socket.
		original := pkt.BuildIPv4(&pkt.IPv4Header{
			TTL: defaultTTL, Proto: pkt.ProtoUDP, Src: h.Src, Dst: h.Dst, ID: h.ID,
		}, payload)
		msg := pkt.BuildICMPDestUnreachable(pkt.ICMPCodePortUnreachable, original)
		_ = l.stack.ipOutput(pkt.ProtoICMP, h.Dst, h.Src, msg)
		return
	}
	c.mu.Lock()
	if c.closed || len(c.queue) >= udpRecvQueueLen {
		c.dropped++
		c.mu.Unlock()
		return
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	c.queue = append(c.queue, udpDatagram{data: buf, srcIP: h.Src, srcPort: uh.SrcPort})
	c.pollSrc = src
	c.received++
	c.cond.Signal()
	c.mu.Unlock()
}

// LocalPort returns the bound port.
func (c *UDPConn) LocalPort() uint16 { return c.localPort }

// LocalAddr returns the bound address (zero IP = wildcard).
func (c *UDPConn) LocalAddr() Addr { return Addr{IP: c.localIP, Port: c.localPort} }

// SetDeadline sets both the read and write deadlines (zero t clears).
func (c *UDPConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

// SetReadDeadline sets the deadline for ReadFrom calls on the stack's
// model timeline (compute it as stack.Model().Now().Add(d)). A zero t
// clears it; once it expires, blocked and future ReadFroms fail with
// os.ErrDeadlineExceeded until the deadline is reset.
func (c *UDPConn) SetReadDeadline(t time.Time) error {
	c.rdl.set(&c.mu, c.stack.model, t, c.cond.Broadcast)
	return nil
}

// SetWriteDeadline sets the deadline for WriteTo calls; WriteTo never
// blocks, so this only gates calls made after expiry.
func (c *UDPConn) SetWriteDeadline(t time.Time) error {
	c.wdl.set(&c.mu, c.stack.model, t, func() {})
	return nil
}

// Stats returns the datagrams delivered to and dropped at this socket.
func (c *UDPConn) Stats() (received, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.received, c.dropped
}

// WriteTo sends one datagram to dst.
func (c *UDPConn) WriteTo(data []byte, dst Addr) (int, error) {
	if len(data) > maxUDPPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrMsgTooLarge, len(data))
	}
	c.mu.Lock()
	closed, expired := c.closed, c.wdl.expired
	c.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	if expired {
		return 0, os.ErrDeadlineExceeded
	}
	s := c.stack
	s.model.Charge(s.model.Syscall)
	s.model.ChargeCopy(len(data)) // user -> kernel
	src, err := s.localIPFor(dst.IP)
	if err != nil {
		return 0, err
	}
	seg := pkt.BuildUDP(src, dst.IP, &pkt.UDPHeader{SrcPort: c.localPort, DstPort: dst.Port}, data)
	if err := s.ipOutput(pkt.ProtoUDP, src, dst.IP, seg); err != nil {
		return 0, err
	}
	return len(data), nil
}

// readableLocked reports whether ReadFrom would return without waiting:
// a queued datagram, a close, a refusal or an expired deadline. c.mu held.
func (c *UDPConn) readableLocked() bool {
	return len(c.queue) > 0 || c.closed || c.refused || c.rdl.expired
}

// ReadFrom blocks for the next datagram, copies its payload into b, and
// returns the byte count and source address. A datagram longer than b is
// truncated, as recvfrom does. An expired read deadline (SetReadDeadline
// on the stack's model timeline) fails with os.ErrDeadlineExceeded until
// the deadline is reset.
func (c *UDPConn) ReadFrom(b []byte) (int, Addr, error) {
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
		c.cond.Wait()
	}
	if c.rdl.expired {
		c.mu.Unlock()
		return 0, Addr{}, os.ErrDeadlineExceeded
	}
	if len(c.queue) == 0 {
		refused := c.refused
		c.refused = false // sticky error delivered once
		c.mu.Unlock()
		if refused {
			return 0, Addr{}, ErrRefused
		}
		return 0, Addr{}, ErrClosed
	}
	d := c.queue[0]
	c.queue[0] = udpDatagram{}
	if len(c.queue) == 1 {
		c.queue = c.queue[:0] // emptied: keep the backing array for the next arrival
	} else {
		c.queue = c.queue[1:]
	}
	c.mu.Unlock()

	n := copy(b, d.data)
	s := c.stack
	if waited && s.isLocalIP(d.srcIP) {
		// Same-host sender woke a blocked reader: process context switch.
		s.model.Charge(s.model.LocalWakeup)
	}
	s.model.Charge(s.model.Syscall)
	s.model.ChargeCopy(n) // kernel -> user
	return n, Addr{IP: d.srcIP, Port: d.srcPort}, nil
}

// Close releases the socket.
func (c *UDPConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	l := c.stack.udp
	l.mu.Lock()
	if l.conns[c.localPort] == c {
		delete(l.conns, c.localPort)
	}
	l.mu.Unlock()
	return nil
}
