// Package netstack is the guest operating system's network stack: Ethernet
// and ARP handling, IPv4 with fragmentation and reassembly, ICMP echo, UDP
// and TCP transports behind a blocking socket API, and — critically for
// XenLoop — netfilter-style hooks that let a module intercept every
// outgoing packet beneath the network layer and inject received packets
// back into layer-3 processing.
package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/costmodel"
	"repro/internal/pkt"
)

// Errors returned by stack operations.
var (
	ErrClosed      = errors.New("netstack: closed")
	ErrNoRoute     = errors.New("netstack: no route to host")
	ErrPortInUse   = errors.New("netstack: port in use")
	ErrTimeout     = errors.New("netstack: operation timed out")
	ErrRefused     = errors.New("netstack: connection refused")
	ErrReset       = errors.New("netstack: connection reset by peer")
	ErrMsgTooLarge = errors.New("netstack: message too large")
)

// Verdict is a netfilter hook decision.
type Verdict int

// Hook verdicts.
const (
	// VerdictAccept lets the packet continue down the standard path.
	VerdictAccept Verdict = iota
	// VerdictStolen means the hook took ownership of the packet; the
	// stack stops processing it.
	VerdictStolen
)

// OutPacket is presented to output hooks: a complete IPv4 datagram that
// has been routed but not yet fragmented or link-transmitted — the point
// "beneath the network layer" where the paper's XenLoop module sits.
//
// Datagram is backed by a pooled, reference-counted buffer leased by the
// stack. A hook returning VerdictStolen either calls TakeLease — assuming
// ownership of the buffer and the obligation to Release it — or copies
// Datagram before returning; the stack releases an untaken lease as soon
// as the hook chain ends, after which Datagram is invalid.
type OutPacket struct {
	// Iface is the chosen output interface.
	Iface *Iface
	// Header is the parsed IPv4 header of Datagram.
	Header pkt.IPv4Header
	// Datagram is the complete IPv4 packet (header + payload).
	Datagram []byte
	// NextHop is the next-hop IP the link layer would resolve.
	NextHop pkt.IPv4

	lease *buf.Buffer
}

// TakeLease transfers ownership of Datagram's pooled buffer to the
// caller, which must eventually Release it. For an OutPacket built
// without a lease (tests, resend paths) it returns a pooled copy, so the
// caller's obligations are identical either way.
func (op *OutPacket) TakeLease() *buf.Buffer {
	if op.lease == nil {
		return buf.FromBytes(op.Datagram)
	}
	b := op.lease
	op.lease = nil
	return b
}

// OutHook intercepts outgoing datagrams (netfilter POST_ROUTING).
type OutHook func(*OutPacket) Verdict

// EtherHandler receives raw frames of a registered ethertype, used for the
// XenLoop-type out-of-band control messages.
type EtherHandler func(ifc *Iface, eth pkt.EthHeader, payload []byte)

// Iface is a configured network interface.
type Iface struct {
	stack    *Stack
	dev      Device
	ip       pkt.IPv4
	mask     pkt.IPv4
	loopback bool
}

// IP returns the interface address.
func (i *Iface) IP() pkt.IPv4 { return i.ip }

// Mask returns the interface netmask.
func (i *Iface) Mask() pkt.IPv4 { return i.mask }

// MAC returns the device hardware address.
func (i *Iface) MAC() pkt.MAC { return i.dev.MAC() }

// Device returns the underlying device.
func (i *Iface) Device() Device { return i.dev }

// Name returns the device name.
func (i *Iface) Name() string { return i.dev.Name() }

// sendState is the immutable snapshot of everything the per-packet
// transmit path reads: the interface list (routing), the output hooks,
// and the closed flag. It is rebuilt under Stack.mu whenever any of those
// change (interface add, hook registration, close) and published with one
// atomic store, so routing and hook dispatch on the send path cost one
// atomic load instead of mutex round trips.
type sendState struct {
	ifaces  []*Iface
	loIface *Iface
	hooks   []OutHook
	closed  bool
}

// Stack is one host's network stack.
type Stack struct {
	// Hostname labels the stack in diagnostics.
	Hostname string

	model *costmodel.Model

	// send is the lock-free transmit-path view; see sendState.
	send atomic.Pointer[sendState]

	mu          sync.Mutex
	ifaces      []*Iface
	loIface     *Iface
	ethHandlers map[uint16]EtherHandler
	outHooks    []OutHook
	closed      bool

	arp   *arpTable
	reasm *reassembler
	udp   *udpLayer
	tcp   *tcpLayer
	icmp  *icmpLayer

	ipID      atomic.Uint32
	ephemeral atomic.Uint32

	// TCP tuning knobs (A/B benchmarking; defaults are the fast path).
	tcpNoSACK atomic.Bool  // true disables SACK negotiation on new connections
	tcpSegCap atomic.Int32 // >0 caps the coalesced segment payload (bytes)
}

// SetTCPSACK enables or disables SACK negotiation for connections opened
// after the call (default on). Established connections keep whatever they
// negotiated. The off position is the go-back-N baseline the loss-matrix
// tests and the tcpstream experiment compare against.
func (s *Stack) SetTCPSACK(on bool) { s.tcpNoSACK.Store(!on) }

// TCPSACKEnabled reports whether new connections will offer SACK.
func (s *Stack) TCPSACKEnabled() bool { return !s.tcpNoSACK.Load() }

// SetTCPSegCap bounds the payload of coalesced TCP segments offered on
// GSO-capable paths, for sweeping segment size in benchmarks. 0 restores
// the default (tcpMaxCoalesce). Applies to connections opened after the
// call; the cap never lifts the MSS above what the path supports.
func (s *Stack) SetTCPSegCap(n int) {
	if n < 0 {
		n = 0
	}
	s.tcpSegCap.Store(int32(n))
}

// publishSendLocked rebuilds the transmit-path snapshot from the
// authoritative fields. Callers hold s.mu.
func (s *Stack) publishSendLocked() {
	st := &sendState{
		ifaces:  append([]*Iface(nil), s.ifaces...),
		loIface: s.loIface,
		hooks:   append([]OutHook(nil), s.outHooks...),
		closed:  s.closed,
	}
	s.send.Store(st)
}

// New creates a stack with a loopback interface at 127.0.0.1.
func New(hostname string, model *costmodel.Model) *Stack {
	if model == nil {
		model = costmodel.Off()
	}
	s := &Stack{
		Hostname:    hostname,
		model:       model,
		ethHandlers: map[uint16]EtherHandler{},
	}
	s.ephemeral.Store(32768)
	s.arp = newARPTable(s)
	s.reasm = newReassembler()
	s.udp = newUDPLayer(s)
	s.tcp = newTCPLayer(s)
	s.icmp = newICMPLayer(s)

	lo := NewLoopback(model)
	s.loIface = &Iface{stack: s, dev: lo, ip: pkt.IP(127, 0, 0, 1), mask: pkt.Mask(8), loopback: true}
	lo.Attach(func(frame []byte) { s.deliverFrame(s.loIface, frame) })
	s.ifaces = append(s.ifaces, s.loIface)
	s.publishSendLocked() // no concurrency yet; mu not needed
	return s
}

// Model returns the stack's cost model.
func (s *Stack) Model() *costmodel.Model { return s.model }

// AddIface binds a device with an address and returns the interface.
func (s *Stack) AddIface(dev Device, ip pkt.IPv4, maskBits int) *Iface {
	ifc := &Iface{stack: s, dev: dev, ip: ip, mask: pkt.Mask(maskBits)}
	dev.Attach(func(frame []byte) { s.deliverFrame(ifc, frame) })
	s.mu.Lock()
	s.ifaces = append(s.ifaces, ifc)
	s.publishSendLocked()
	s.mu.Unlock()
	return ifc
}

// Ifaces returns the configured interfaces (loopback first).
func (s *Stack) Ifaces() []*Iface {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Iface, len(s.ifaces))
	copy(out, s.ifaces)
	return out
}

// DefaultIface returns the first non-loopback interface, or nil.
func (s *Stack) DefaultIface() *Iface {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ifc := range s.ifaces {
		if !ifc.loopback {
			return ifc
		}
	}
	return nil
}

// Close shuts the stack down: transports error out, devices detach.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ifaces := make([]*Iface, len(s.ifaces))
	copy(ifaces, s.ifaces)
	s.publishSendLocked()
	s.mu.Unlock()
	s.tcp.closeAll()
	s.udp.closeAll()
	for _, ifc := range ifaces {
		if lo, ok := ifc.dev.(*Loopback); ok {
			lo.Close()
		}
	}
}

// RegisterOutHook appends a netfilter-style output hook. Hooks run in
// registration order on every routed, unfragmented outgoing datagram that
// leaves through a non-loopback interface.
func (s *Stack) RegisterOutHook(h OutHook) {
	s.mu.Lock()
	s.outHooks = append(s.outHooks, h)
	s.publishSendLocked()
	s.mu.Unlock()
}

// UnregisterOutHooks removes all output hooks (module unload).
func (s *Stack) UnregisterOutHooks() {
	s.mu.Lock()
	s.outHooks = nil
	s.publishSendLocked()
	s.mu.Unlock()
}

// RegisterEtherHandler installs a handler for a private ethertype, e.g.
// the XenLoop-type control protocol.
func (s *Stack) RegisterEtherHandler(etherType uint16, h EtherHandler) {
	s.mu.Lock()
	s.ethHandlers[etherType] = h
	s.mu.Unlock()
}

// UnregisterEtherHandler removes a private ethertype handler.
func (s *Stack) UnregisterEtherHandler(etherType uint16) {
	s.mu.Lock()
	delete(s.ethHandlers, etherType)
	s.mu.Unlock()
}

// SendEther transmits a raw frame with the given ethertype out of ifc,
// bypassing IP. XenLoop uses this for out-of-band bootstrap messages.
func (s *Stack) SendEther(ifc *Iface, dst pkt.MAC, etherType uint16, payload []byte) error {
	frame := pkt.BuildFrame(dst, ifc.MAC(), etherType, payload)
	return ifc.dev.Transmit(frame)
}

// NeighborMAC consults the ARP cache (the "system-maintained neighbor
// cache" of the paper) without triggering resolution.
func (s *Stack) NeighborMAC(ip pkt.IPv4) (pkt.MAC, bool) {
	return s.arp.lookup(ip)
}

// deliverFrame is the link-layer receive entry point for every device.
func (s *Stack) deliverFrame(ifc *Iface, frame []byte) {
	s.model.Charge(s.model.SoftIRQ)
	eth, payload, err := pkt.ParseEth(frame)
	if err != nil {
		return
	}
	if !ifc.loopback && !eth.Dst.IsBroadcast() && eth.Dst != ifc.MAC() {
		return // not for us; no promiscuous mode
	}
	switch eth.EtherType {
	case pkt.EtherTypeARP:
		s.arp.input(ifc, payload)
	case pkt.EtherTypeIPv4:
		s.ipInput(payload, nil)
	default:
		s.mu.Lock()
		h := s.ethHandlers[eth.EtherType]
		s.mu.Unlock()
		if h != nil {
			h(ifc, eth, payload)
		}
	}
}

// InjectIP re-injects a complete IPv4 datagram into layer-3 receive
// processing, as XenLoop's receiver does after popping packets from the
// FIFO ("passes the packets to the network layer").
//
// The datagram may alias shared or pooled memory that the caller reuses
// the moment InjectIP returns (XenLoop drains its FIFO in place), so
// every layer-3/4 consumer that stashes payload bytes beyond the call —
// socket receive queues, the TCP out-of-order map, fragment reassembly —
// copies them first.
func (s *Stack) InjectIP(datagram []byte) {
	s.ipInput(datagram, nil)
}

// InjectIPFrom is InjectIP for a datagram drained from src, a receive
// source that blocked readers may busy-poll: the UDP socket or TCP
// connection the datagram reaches remembers src and polls it the next
// time a read finds it empty (see BusyPoller).
func (s *Stack) InjectIPFrom(datagram []byte, src BusyPoller) {
	s.ipInput(datagram, src)
}

// route selects the output interface and next hop for dst. It reads the
// published send snapshot and takes no lock — this runs per packet.
func (s *Stack) route(dst pkt.IPv4) (*Iface, pkt.IPv4, error) {
	st := s.send.Load()
	if st.closed {
		return nil, pkt.IPv4{}, ErrClosed
	}
	// Local addresses loop back, including our own interface addresses.
	if dst == pkt.IP(127, 0, 0, 1) {
		return st.loIface, dst, nil
	}
	for _, ifc := range st.ifaces {
		if !ifc.loopback && ifc.ip == dst {
			return st.loIface, dst, nil
		}
	}
	for _, ifc := range st.ifaces {
		if ifc.loopback {
			continue
		}
		if dst.InSubnet(ifc.ip, ifc.mask) {
			return ifc, dst, nil
		}
	}
	return nil, pkt.IPv4{}, fmt.Errorf("%w: %s", ErrNoRoute, dst)
}

// localIPFor returns the source address the stack would use toward dst.
func (s *Stack) localIPFor(dst pkt.IPv4) (pkt.IPv4, error) {
	ifc, _, err := s.route(dst)
	if err != nil {
		return pkt.IPv4{}, err
	}
	if ifc.loopback {
		// Talking to ourselves: use the concrete address when the
		// destination is one of our interface addresses.
		if dst != pkt.IP(127, 0, 0, 1) {
			return dst, nil
		}
	}
	return ifc.ip, nil
}

// isLocalIP reports whether ip is one of ours. Snapshot read: this runs
// on every received packet.
func (s *Stack) isLocalIP(ip pkt.IPv4) bool {
	if ip == pkt.IP(127, 0, 0, 1) {
		return true
	}
	for _, ifc := range s.send.Load().ifaces {
		if ifc.ip == ip {
			return true
		}
	}
	return false
}

// allocPort hands out an ephemeral port.
func (s *Stack) allocPort() uint16 {
	for {
		p := uint16(s.ephemeral.Add(1))
		if p >= 32768 {
			return p
		}
		// Wrapped: push back into the ephemeral range.
		s.ephemeral.Store(32768)
	}
}
