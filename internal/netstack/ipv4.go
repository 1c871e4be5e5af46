package netstack

import (
	"sort"
	"sync"
	"time"

	"repro/internal/buf"
	"repro/internal/pkt"
)

const defaultTTL = 64

// ipOutput routes and emits one IP payload. The complete datagram is
// offered to output hooks before fragmentation — the interception point
// XenLoop uses — and fragmented to the device MTU afterwards. TCP payloads
// on GSO-capable devices skip fragmentation (segmentation offload: the
// virtual path carries the large segment end to end).
func (s *Stack) ipOutput(proto uint8, src, dst pkt.IPv4, payload []byte) error {
	ifc, nextHop, err := s.route(dst)
	if err != nil {
		return err
	}
	if src.IsZero() {
		src = ifc.ip
		if ifc.loopback && dst != pkt.IP(127, 0, 0, 1) {
			src = dst // local-to-local over a concrete address
		}
	}
	s.model.Charge(s.model.StackPerPacket)
	hdr := pkt.IPv4Header{
		ID:    uint16(s.ipID.Add(1)),
		TTL:   defaultTTL,
		Proto: proto,
		Src:   src,
		Dst:   dst,
	}
	// Build the datagram into a leased pool buffer instead of a fresh
	// allocation: on the XenLoop fast path it is released right after the
	// FIFO copy, on the standard path right after link transmission.
	hdrBytes := hdr.Marshal(len(payload))
	lease := buf.Get(len(hdrBytes) + len(payload))
	datagram := lease.Bytes()
	copy(datagram, hdrBytes)
	copy(datagram[len(hdrBytes):], payload)
	return s.transmitDatagram(ifc, nextHop, hdr, datagram, payload, lease)
}

// transmitDatagram is the shared output tail: hand the complete datagram
// to the hook chain, then link-transmit (fragmenting to the device MTU if
// needed). lease, when non-nil, is the pooled buffer backing datagram; it
// is released once the datagram has been stolen or transmitted.
func (s *Stack) transmitDatagram(ifc *Iface, nextHop pkt.IPv4, hdr pkt.IPv4Header, datagram, payload []byte, lease *buf.Buffer) error {
	if ifc.loopback {
		frame := pkt.BuildFrame(pkt.MAC{}, pkt.MAC{}, pkt.EtherTypeIPv4, datagram)
		if lease != nil {
			lease.Release()
		}
		return ifc.dev.Transmit(frame)
	}

	// Netfilter output hooks see the whole, unfragmented datagram. The
	// hook list comes from the send snapshot already loaded per packet —
	// no lock on the transmit path.
	hooks := s.send.Load().hooks
	if len(hooks) > 0 {
		op := &OutPacket{Iface: ifc, Header: hdr, Datagram: datagram, NextHop: nextHop, lease: lease}
		op.Header.TotalLen = len(datagram)
		for _, h := range hooks {
			if h(op) == VerdictStolen {
				if op.lease != nil {
					op.lease.Release() // the hook copied instead of taking it
				}
				return nil
			}
		}
		lease = op.lease
	}

	maxPayload := ifc.dev.MTU() - pkt.IPv4HeaderLen
	if hdr.Proto == pkt.ProtoTCP && ifc.dev.GSOMaxSize() > 0 && ifc.dev.GSOMaxSize() > maxPayload {
		maxPayload = ifc.dev.GSOMaxSize()
	}
	if len(payload) <= maxPayload {
		s.arp.resolveAndSend(ifc, nextHop, datagram)
		if lease != nil {
			lease.Release()
		}
		return nil
	}
	if lease != nil {
		lease.Release() // fragments/sub-segments are rebuilt from the payload
	}

	// Software GSO: a coalesced TCP segment too large for this device —
	// the netfront fallback path when the XenLoop channel declined it —
	// is split back into self-contained wire segments rather than IP
	// fragments, so a single lost piece costs one MSS, not the datagram.
	if hdr.Proto == pkt.ProtoTCP {
		subs, err := pkt.SegmentTCP(hdr.Src, hdr.Dst, payload, maxPayload)
		if err != nil {
			return err
		}
		for _, sub := range subs {
			sh := hdr
			sh.ID = uint16(s.ipID.Add(1))
			s.arp.resolveAndSend(ifc, nextHop, pkt.BuildIPv4(&sh, sub))
		}
		return nil
	}

	// Fragment: offsets must be multiples of 8.
	chunk := maxPayload &^ 7
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		flags := uint16(pkt.IPFlagMoreFragments)
		if end >= len(payload) {
			end = len(payload)
			flags = 0
		}
		fh := hdr
		fh.Flags = flags
		fh.FragOff = off
		frag := pkt.BuildIPv4(&fh, payload[off:end])
		s.arp.resolveAndSend(ifc, nextHop, frag)
	}
	return nil
}

// ResendDatagram re-routes and transmits an already-built IP datagram.
// XenLoop uses it to resend packets it saved from its channels before a
// migration, "once the migration completes" (paper §3.4), and the
// benchmarks use it to drive the transmit path with prebuilt packets.
//
// The datagram is not reassembled into a fresh buffer: it travels the
// output path (hooks, fragmentation) backed by the caller's bytes, with
// its mutable IP header fields (ID, TTL, checksum) refreshed in place.
// The caller must own the backing array; hooks that keep the packet copy
// it (see OutPacket), so the caller may reuse the array once the call
// returns.
func (s *Stack) ResendDatagram(datagram []byte) error {
	h, payload, err := pkt.ParseIPv4(datagram)
	if err != nil {
		return err
	}
	if len(datagram) > 0 && datagram[0] != 0x45 {
		// Options present (never emitted by this stack): fall back to
		// rebuilding rather than rewriting a long header in place.
		return s.ipOutput(h.Proto, h.Src, h.Dst, payload)
	}
	ifc, nextHop, err := s.route(h.Dst)
	if err != nil {
		return err
	}
	s.model.Charge(s.model.StackPerPacket)
	h.ID = uint16(s.ipID.Add(1))
	h.TTL = defaultTTL
	h.Flags = 0
	h.FragOff = 0
	copy(datagram, h.Marshal(len(payload)))
	return s.transmitDatagram(ifc, nextHop, h, datagram, payload, nil)
}

// transmitIPResolved builds the final frame once the next-hop MAC is known.
func (s *Stack) transmitIPResolved(ifc *Iface, dstMAC pkt.MAC, datagram []byte) {
	frame := pkt.BuildFrame(dstMAC, ifc.MAC(), pkt.EtherTypeIPv4, datagram)
	_ = ifc.dev.Transmit(frame)
}

// ipInput is layer-3 receive: validate, reassemble fragments, dispatch to
// the transport. src is the busy-pollable source the packet was drained
// from (InjectIPFrom), nil for a device or InjectIP.
func (s *Stack) ipInput(data []byte, src BusyPoller) {
	h, payload, err := pkt.ParseIPv4(data)
	if err != nil {
		return
	}
	if !s.isLocalIP(h.Dst) && !h.Dst.IsBroadcast() {
		return // we do not forward
	}
	s.model.Charge(s.model.StackPerPacket)
	if h.IsFragment() {
		full, hdr, ok := s.reasm.add(h, payload)
		if !ok {
			return
		}
		h = hdr
		payload = full
	}
	switch h.Proto {
	case pkt.ProtoICMP:
		s.icmp.input(h, payload)
	case pkt.ProtoUDP:
		s.udp.input(h, payload, src)
	case pkt.ProtoTCP:
		s.tcp.input(h, payload, src)
	}
}

// --- fragment reassembly ---

type reasmKey struct {
	src, dst pkt.IPv4
	id       uint16
	proto    uint8
}

type reasmBuf struct {
	created  time.Time
	frags    map[int][]byte // offset -> data
	totalLen int            // set when the final fragment arrives; -1 unknown
}

const (
	reasmTimeout    = 3 * time.Second
	reasmMaxBuffers = 256
)

// reassembler implements IPv4 fragment reassembly with hole detection and
// timeout-based garbage collection. A datagram missing any fragment is
// never delivered — which is exactly how fragment loss collapses UDP
// goodput on the netfront/netback path.
type reassembler struct {
	mu   sync.Mutex
	bufs map[reasmKey]*reasmBuf
}

func newReassembler() *reassembler {
	return &reassembler{bufs: map[reasmKey]*reasmBuf{}}
}

func (r *reassembler) add(h pkt.IPv4Header, payload []byte) ([]byte, pkt.IPv4Header, bool) {
	key := reasmKey{src: h.Src, dst: h.Dst, id: h.ID, proto: h.Proto}
	now := time.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.gcLocked(now)

	b, ok := r.bufs[key]
	if !ok {
		if len(r.bufs) >= reasmMaxBuffers {
			// Under pressure, evict the oldest partial datagram — its
			// missing fragment is almost certainly lost. Refusing new
			// datagrams instead would blackhole all fragmented traffic
			// until the stale partials time out.
			r.evictOldestLocked()
		}
		b = &reasmBuf{created: now, frags: map[int][]byte{}, totalLen: -1}
		r.bufs[key] = b
	}
	// Copy-on-stash: payload may alias a FIFO view or pooled buffer that
	// the caller recycles after ipInput returns (see InjectIP).
	b.frags[h.FragOff] = append([]byte(nil), payload...)
	if !h.MoreFragments() {
		b.totalLen = h.FragOff + len(payload)
	}
	if b.totalLen < 0 {
		return nil, h, false
	}
	// Check contiguity from 0 to totalLen.
	offs := make([]int, 0, len(b.frags))
	for off := range b.frags {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	next := 0
	for _, off := range offs {
		if off > next {
			return nil, h, false // hole
		}
		if end := off + len(b.frags[off]); end > next {
			next = end
		}
	}
	if next < b.totalLen {
		return nil, h, false
	}
	full := make([]byte, b.totalLen)
	for off, frag := range b.frags {
		copy(full[off:], frag)
	}
	delete(r.bufs, key)
	h.Flags = 0
	h.FragOff = 0
	return full, h, true
}

func (r *reassembler) evictOldestLocked() {
	var oldestKey reasmKey
	var oldest time.Time
	first := true
	for key, b := range r.bufs {
		if first || b.created.Before(oldest) {
			oldest = b.created
			oldestKey = key
			first = false
		}
	}
	if !first {
		delete(r.bufs, oldestKey)
	}
}

func (r *reassembler) gcLocked(now time.Time) {
	for key, b := range r.bufs {
		if now.Sub(b.created) > reasmTimeout {
			delete(r.bufs, key)
		}
	}
}
