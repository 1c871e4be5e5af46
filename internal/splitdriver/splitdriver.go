// Package splitdriver implements Xen's split network-driver architecture:
// netfront in the guest and netback in the driver domain, communicating
// through grant-table-backed descriptor rings and event channels, with the
// driver domain's software bridge joining the vifs (paper §2, Fig. 1).
//
// This is the baseline data path XenLoop is evaluated against: every
// packet between co-resident guests crosses guest -> netback -> bridge ->
// netback -> guest, paying grant copies, hypercalls, event dispatches and
// domain switches along the way.
package splitdriver

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bridge"
	"repro/internal/buf"
	"repro/internal/costmodel"
	"repro/internal/hypervisor"
	"repro/internal/pkt"
	"repro/internal/ring"
)

// Errors returned by the split driver.
var (
	ErrDetached = errors.New("splitdriver: device detached")
	ErrTooLarge = errors.New("splitdriver: frame exceeds slot buffer")
)

// VirtGSOSize is the TSO segment size the virtual interface advertises
// (Xen 3.2 netfront supports TSO; this is why TCP streams over the
// netfront path run far ahead of UDP in the paper's Table 2).
const VirtGSOSize = 24576

// vifShared is the shared-memory block a guest grants to the driver
// domain at connect time: four descriptor rings plus the grant references
// of every slot buffer, mirroring how the real netfront stores data-page
// grant references in ring requests.
type vifShared struct {
	tx, txc, rx, rxc *ring.Ring
	txBufs, rxBufs   []*ring.SlotBuffer
	txRefs, rxRefs   []hypervisor.GrantRef
}

// Netfront is the guest-side device. It implements the netstack Device
// contract.
type Netfront struct {
	ifname string
	mac    pkt.MAC
	guest  *hypervisor.Domain
	model  *costmodel.Model

	mu     sync.Mutex
	cond   *sync.Cond
	sh     *vifShared
	shRef  hypervisor.GrantRef
	txPort hypervisor.Port
	rxPort hypervisor.Port
	txFree []uint16
	closed bool
	back   *netback

	recvMu sync.Mutex
	recv   func(frame []byte)
	rxq    chan *buf.Buffer
	quit   chan struct{}

	// evBusy counts event handlers (txCompleteEvent/rxEvent) still
	// inside their body. Disconnect waits for it to reach zero before
	// recycling slot buffers, so no straggling upcall can read a buffer
	// that a later attach is already reusing.
	evBusy atomic.Int32

	stats Stats
}

// Stats counts netfront traffic.
type Stats struct {
	mu                 sync.Mutex
	TxPackets, TxBytes uint64
	RxPackets, RxBytes uint64
	RxDropped          uint64
	// TxAbandoned counts frames left on the TX ring at Disconnect: queued
	// but never processed by the backend (the in-flight loss window a vif
	// detach opens). Observable loss accounting for failover tests.
	TxAbandoned uint64
}

// netback is the driver-domain side of one vif.
type netback struct {
	dom0    *hypervisor.Domain
	guestID hypervisor.DomID
	model   *costmodel.Model
	sh      *vifShared
	shRef   hypervisor.GrantRef
	txPort  hypervisor.Port
	rxPort  hypervisor.Port
	br      *bridge.Bridge
	port    *bridge.Port

	mu      sync.Mutex
	closed  bool
	rxDrops uint64
}

// Connect creates a vif for guest, wiring netfront to a fresh netback on
// the guest's current machine and attaching it to br. The handshake runs
// through XenStore exactly as on real Xen: the guest publishes its ring
// grant reference and event channel ports under device/vif/0 and the
// backend picks them up.
func Connect(guest *hypervisor.Domain, br *bridge.Bridge, mac pkt.MAC) (*Netfront, error) {
	nf := &Netfront{
		ifname: "eth0",
		mac:    mac,
		guest:  guest,
		model:  guest.Hypervisor().Model(),
		rxq:    make(chan *buf.Buffer, 1024),
		quit:   make(chan struct{}),
	}
	nf.cond = sync.NewCond(&nf.mu)
	if err := nf.attach(br); err != nil {
		return nil, err
	}
	go nf.rxLoop()
	go nf.watchdog()
	return nf, nil
}

// attach performs the frontend+backend connection on the guest's current
// machine (used at Connect and again after migration).
func (nf *Netfront) attach(br *bridge.Bridge) error {
	guest := nf.guest
	hv := guest.Hypervisor()
	dom0 := hv.Dom0()
	size := ring.DefaultSize

	sh := &vifShared{
		tx: ring.New(size), txc: ring.New(size),
		rx: ring.New(size), rxc: ring.New(size),
		txBufs: make([]*ring.SlotBuffer, size),
		rxBufs: make([]*ring.SlotBuffer, size),
		txRefs: make([]hypervisor.GrantRef, size),
		rxRefs: make([]hypervisor.GrantRef, size),
	}
	for i := 0; i < size; i++ {
		sh.txBufs[i] = ring.NewSlotBuffer()
		sh.rxBufs[i] = ring.NewSlotBuffer()
		sh.txRefs[i] = guest.GrantAccess(0, sh.txBufs[i])
		sh.rxRefs[i] = guest.GrantAccess(0, sh.rxBufs[i])
	}
	shRef := guest.GrantAccess(0, sh)

	txPort, err := guest.AllocUnboundPort(0)
	if err != nil {
		return err
	}
	rxPort, err := guest.AllocUnboundPort(0)
	if err != nil {
		return err
	}

	// Publish the connection parameters in XenStore.
	base := guest.StorePath() + "/device/vif/0"
	for k, v := range map[string]string{
		"ring-ref":         strconv.FormatUint(uint64(shRef), 10),
		"event-channel-tx": strconv.FormatUint(uint64(txPort), 10),
		"event-channel-rx": strconv.FormatUint(uint64(rxPort), 10),
		"mac":              nf.mac.String(),
	} {
		if err := guest.StoreWrite(base+"/"+k, v); err != nil {
			return err
		}
	}

	nf.mu.Lock()
	nf.sh = sh
	nf.shRef = shRef
	nf.txPort = txPort
	nf.rxPort = rxPort
	nf.txFree = nf.txFree[:0]
	for i := 0; i < size; i++ {
		nf.txFree = append(nf.txFree, uint16(i))
		sh.rx.Push(ring.Desc{ID: uint16(i)}) // post all receive buffers
	}
	nf.closed = false
	nf.mu.Unlock()

	if err := guest.SetEventHandler(txPort, nf.txCompleteEvent); err != nil {
		return err
	}
	if err := guest.SetEventHandler(rxPort, nf.rxEvent); err != nil {
		return err
	}

	nb, err := connectBackend(dom0, guest.ID(), br)
	if err != nil {
		return err
	}
	nf.mu.Lock()
	nf.back = nb
	nf.mu.Unlock()
	return nil
}

// connectBackend is the driver-domain half of the handshake: read the
// frontend's XenStore entries, map the shared block, bind the event
// channels, join the bridge.
func connectBackend(dom0 *hypervisor.Domain, guestID hypervisor.DomID, br *bridge.Bridge) (*netback, error) {
	base := fmt.Sprintf("/local/domain/%d/device/vif/0", guestID)
	readUint := func(key string) (uint64, error) {
		v, err := dom0.StoreRead(base + "/" + key)
		if err != nil {
			return 0, err
		}
		return strconv.ParseUint(v, 10, 32)
	}
	ref, err := readUint("ring-ref")
	if err != nil {
		return nil, err
	}
	txp, err := readUint("event-channel-tx")
	if err != nil {
		return nil, err
	}
	rxp, err := readUint("event-channel-rx")
	if err != nil {
		return nil, err
	}

	obj, err := dom0.MapGrant(guestID, hypervisor.GrantRef(ref))
	if err != nil {
		return nil, err
	}
	sh, ok := obj.(*vifShared)
	if !ok {
		return nil, fmt.Errorf("splitdriver: ring-ref %d is not a vif shared block", ref)
	}
	nb := &netback{
		dom0:    dom0,
		guestID: guestID,
		model:   dom0.Hypervisor().Model(),
		sh:      sh,
		shRef:   hypervisor.GrantRef(ref),
		br:      br,
	}
	if nb.txPort, err = dom0.BindInterdomain(guestID, hypervisor.Port(txp)); err != nil {
		return nil, err
	}
	if nb.rxPort, err = dom0.BindInterdomain(guestID, hypervisor.Port(rxp)); err != nil {
		return nil, err
	}
	// Join the bridge before installing processTx: the guest may already
	// have frames on the tx ring and notify the moment the handler is in,
	// and processTx forwards them through nb.port.
	nb.port = br.AddPort(fmt.Sprintf("vif%d.0", guestID), nb.deliverToGuest, false)
	if err := dom0.SetEventHandler(nb.txPort, nb.processTx); err != nil {
		br.RemovePort(nb.port)
		return nil, err
	}
	// The rx channel only carries back->front notifications; nothing to
	// handle on the backend side.
	if err := dom0.SetEventHandler(nb.rxPort, func() {}); err != nil {
		br.RemovePort(nb.port)
		return nil, err
	}
	_ = dom0.StoreWrite(base+"/backend-state", "connected")
	return nb, nil
}

// --- netstack.Device implementation ---

// Name returns the guest-visible interface name.
func (nf *Netfront) Name() string { return nf.ifname }

// MAC returns the vif hardware address (stable across migration).
func (nf *Netfront) MAC() pkt.MAC { return nf.mac }

// MTU returns the standard virtual interface MTU.
func (nf *Netfront) MTU() int { return 1500 }

// GSOMaxSize advertises TSO on the virtual path.
func (nf *Netfront) GSOMaxSize() int { return VirtGSOSize }

// Attach installs the guest stack's receive callback.
func (nf *Netfront) Attach(recv func(frame []byte)) {
	nf.recvMu.Lock()
	nf.recv = recv
	nf.recvMu.Unlock()
}

// Transmit queues one frame on the TX ring, blocking while the ring is
// full, and kicks the backend if it is parked.
func (nf *Netfront) Transmit(frame []byte) error {
	if len(frame) > ring.SlotBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(frame))
	}
	nf.model.Charge(nf.model.NetfrontPerPacket)
	nf.mu.Lock()
	for !nf.closed && len(nf.txFree) == 0 {
		nf.cond.Wait()
	}
	if nf.closed {
		nf.mu.Unlock()
		return ErrDetached
	}
	id := nf.txFree[len(nf.txFree)-1]
	nf.txFree = nf.txFree[:len(nf.txFree)-1]
	copy(nf.sh.txBufs[id].Data, frame)
	nf.sh.tx.Push(ring.Desc{ID: id, Len: uint32(len(frame))})
	kick := nf.sh.tx.NeedKick()
	port := nf.txPort
	nf.mu.Unlock()

	nf.stats.mu.Lock()
	nf.stats.TxPackets++
	nf.stats.TxBytes += uint64(len(frame))
	nf.stats.mu.Unlock()

	if kick {
		_ = nf.guest.NotifyPort(port)
	}
	return nil
}

// txCompleteEvent runs in the guest's event context when the backend has
// consumed TX requests: recycle slot buffers and wake blocked senders.
func (nf *Netfront) txCompleteEvent() {
	nf.evBusy.Add(1)
	defer nf.evBusy.Add(-1)
	nf.mu.Lock()
	sh := nf.sh
	if sh == nil || nf.closed {
		nf.mu.Unlock()
		return
	}
	nf.mu.Unlock()
	for {
		for {
			d, ok := sh.txc.Pop()
			if !ok {
				break
			}
			nf.mu.Lock()
			nf.txFree = append(nf.txFree, d.ID)
			nf.cond.Signal()
			nf.mu.Unlock()
		}
		if sh.txc.Park() {
			return
		}
	}
}

// rxEvent runs in the guest's event context when the backend has filled
// receive buffers: copy each frame out, repost the buffer, and queue the
// frame for stack delivery on the netfront receive goroutine. Queueing
// (rather than delivering inline) keeps the event dispatcher free — stack
// processing may block on a full TX ring, whose completions arrive on
// this very dispatcher.
func (nf *Netfront) rxEvent() {
	nf.evBusy.Add(1)
	defer nf.evBusy.Add(-1)
	nf.mu.Lock()
	sh := nf.sh
	closed := nf.closed
	nf.mu.Unlock()
	if sh == nil || closed {
		return
	}
	for {
		for {
			d, ok := sh.rxc.Pop()
			if !ok {
				break
			}
			// Lease a pooled buffer for the frame rather than allocating:
			// rxLoop releases it once the stack is done (every stashing
			// consumer copies — see netstack.InjectIP).
			frame := buf.Get(int(d.Len))
			copy(frame.Bytes(), sh.rxBufs[d.ID].Data[:d.Len])
			sh.rx.Push(ring.Desc{ID: d.ID}) // repost the buffer
			select {
			case nf.rxq <- frame:
			default:
				frame.Release()
				nf.stats.mu.Lock()
				nf.stats.RxDropped++
				nf.stats.mu.Unlock()
			}
		}
		if sh.rxc.Park() {
			return
		}
	}
}

// rxLoop delivers received frames into the guest stack.
func (nf *Netfront) rxLoop() {
	for {
		select {
		case frame := <-nf.rxq:
			nf.recvMu.Lock()
			recv := nf.recv
			nf.recvMu.Unlock()
			nf.stats.mu.Lock()
			nf.stats.RxPackets++
			nf.stats.RxBytes += uint64(frame.Len())
			nf.stats.mu.Unlock()
			if recv != nil {
				recv(frame.Bytes())
			}
			frame.Release()
		case <-nf.quit:
			return
		}
	}
}

// watchdogTick is the ring-stall scan period. Two consecutive ticks with
// pending work and a frozen consumer index mark a ring as stuck, so
// recovery from a lost notification takes at most ~2 ticks.
const watchdogTick = 2 * time.Millisecond

// stalled reports whether a ring has pending descriptors whose consumer
// made no progress since the last scan — the signature of a lost event
// notification (the 1-bit pending protocol retires the kick obligation
// when the producer observes a parked consumer; if that one kick is
// lost, nothing ever retries). prev holds the previous scan's state.
func stalled(r *ring.Ring, prevCons *uint32, prevPending *bool) bool {
	pending := r.Pending() > 0
	cons := r.ConsumerIndex()
	stuck := pending && *prevPending && cons == *prevCons
	*prevCons, *prevPending = cons, pending
	return stuck
}

// watchdog recovers the vif from lost event notifications: when a ring
// holds work across two scan ticks without consumer progress, the kick
// is re-issued — NotifyPort toward the backend for the TX request ring,
// RaiseLocal (a poll-mode rescan in our own event context) for the two
// completion rings. A healthy vif pays three atomic loads per tick; a
// stuck one recovers within milliseconds instead of wedging a blocked
// Transmit forever.
func (nf *Netfront) watchdog() {
	t := nf.model.NewTicker(watchdogTick)
	defer t.Stop()
	var (
		txCons, txcCons, rxcCons uint32
		txPend, txcPend, rxcPend bool
	)
	for {
		select {
		case <-t.C:
		case <-nf.quit:
			return
		}
		nf.mu.Lock()
		sh, closed := nf.sh, nf.closed
		txPort, rxPort := nf.txPort, nf.rxPort
		nf.mu.Unlock()
		if closed || sh == nil {
			txPend, txcPend, rxcPend = false, false, false
			continue
		}
		if stalled(sh.tx, &txCons, &txPend) {
			_ = nf.guest.NotifyPort(txPort) // backend missed its TX kick
		}
		if stalled(sh.txc, &txcCons, &txcPend) {
			nf.guest.RaiseLocal(txPort) // we missed the completion kick
		}
		if stalled(sh.rxc, &rxcCons, &rxcPend) {
			nf.guest.RaiseLocal(rxPort) // we missed the receive kick
		}
	}
}

// TxRxCounts returns packet counters (for tests and tools).
func (nf *Netfront) TxRxCounts() (tx, rx, rxDropped uint64) {
	nf.stats.mu.Lock()
	defer nf.stats.mu.Unlock()
	return nf.stats.TxPackets, nf.stats.RxPackets, nf.stats.RxDropped
}

// Disconnect detaches the vif: backend leaves the bridge, event channels
// close, the grant is revoked, XenStore entries disappear. The Netfront
// object stays usable for a later Reattach (migration).
func (nf *Netfront) Disconnect() {
	nf.mu.Lock()
	if nf.closed {
		nf.mu.Unlock()
		return
	}
	nf.closed = true
	nb := nf.back
	sh := nf.sh
	txPort, rxPort := nf.txPort, nf.rxPort
	nf.back = nil
	nf.cond.Broadcast()
	nf.mu.Unlock()

	if nb != nil {
		nb.close()
	}
	// Frames still on the TX ring were queued but never reached the
	// backend; they are lost with the detach. Keep the loss observable.
	if sh != nil {
		if abandoned := sh.tx.Pending(); abandoned > 0 {
			nf.stats.mu.Lock()
			nf.stats.TxAbandoned += uint64(abandoned)
			nf.stats.mu.Unlock()
		}
	}
	_ = nf.guest.ClosePort(txPort)
	_ = nf.guest.ClosePort(rxPort)
	if sh != nil {
		// Wait out straggling event handlers (closed is already set, so
		// new ones return at the top), then release the grants. A buffer
		// whose EndAccess succeeds is unreachable — no mapping, no copy
		// in flight (copies hold the grant-table lock), no handler — and
		// safe to recycle for the next attach.
		for nf.evBusy.Load() != 0 {
			runtime.Gosched()
		}
		for i := range sh.txRefs {
			if nf.guest.EndAccess(sh.txRefs[i]) == nil {
				sh.txBufs[i].Recycle()
			}
			if nf.guest.EndAccess(sh.rxRefs[i]) == nil {
				sh.rxBufs[i].Recycle()
			}
		}
		_ = nf.guest.EndAccess(nf.shRef)
	}
	_ = nf.guest.StoreRemove(nf.guest.StorePath() + "/device/vif/0")
}

// Reattach reconnects the vif on the guest's (possibly new) machine,
// keeping the device identity — and therefore the guest's IP and MAC —
// intact across migration.
func (nf *Netfront) Reattach(br *bridge.Bridge) error {
	return nf.attach(br)
}

// Shutdown permanently stops the device.
func (nf *Netfront) Shutdown() {
	nf.Disconnect()
	close(nf.quit)
	// rxLoop is exiting: return queued receive leases to the pool. The
	// quiet-period drain (rather than one non-blocking sweep) also
	// catches a frame an in-flight rxEvent enqueues concurrently.
	for {
		select {
		case frame := <-nf.rxq:
			frame.Release()
		case <-nf.model.After(2 * time.Millisecond):
			return
		}
	}
}

// --- netback side ---

// processTx runs in Dom0's event context: drain the guest's TX ring,
// grant-copy each packet out of guest memory, complete the request, and
// forward the frame through the bridge.
func (nb *netback) processTx() {
	nb.mu.Lock()
	closed := nb.closed
	nb.mu.Unlock()
	if closed {
		return
	}
	sh := nb.sh
	for {
		for {
			d, ok := sh.tx.Pop()
			if !ok {
				break
			}
			nb.model.Charge(nb.model.NetbackPerPacket)
			frame := make([]byte, d.Len)
			if _, err := nb.dom0.GrantCopyIn(nb.guestID, sh.txRefs[d.ID], frame, 0); err != nil {
				// Guest vanished mid-operation (migration); stop.
				return
			}
			sh.txc.Push(ring.Desc{ID: d.ID})
			if sh.txc.NeedKick() {
				_ = nb.dom0.NotifyPort(nb.txPort)
			}
			nb.port.Input(frame)
		}
		if sh.tx.Park() {
			return
		}
	}
}

// deliverToGuest is the bridge's delivery function: grant-copy the frame
// into a posted guest receive buffer and complete it. With no posted
// buffer available the frame is dropped, exactly as a saturated RX ring
// drops packets on real Xen.
func (nb *netback) deliverToGuest(frame []byte) {
	nb.mu.Lock()
	if nb.closed {
		nb.rxDrops++ // detach race: frame arrived for a closing vif
		nb.mu.Unlock()
		return
	}
	sh := nb.sh
	d, ok := sh.rx.Pop()
	if !ok {
		nb.rxDrops++
		nb.mu.Unlock()
		return
	}
	nb.mu.Unlock()

	nb.model.Charge(nb.model.NetbackPerPacket)
	if len(frame) > ring.SlotBytes {
		frame = frame[:ring.SlotBytes]
	}
	if _, err := nb.dom0.GrantCopyOut(nb.guestID, sh.rxRefs[d.ID], frame, 0); err != nil {
		return
	}
	nb.mu.Lock()
	if nb.closed {
		nb.rxDrops++
		nb.mu.Unlock()
		return
	}
	sh.rxc.Push(ring.Desc{ID: d.ID, Len: uint32(len(frame))})
	kick := sh.rxc.NeedKick()
	port := nb.rxPort
	nb.mu.Unlock()
	if kick {
		_ = nb.dom0.NotifyPort(port)
	}
}

func (nb *netback) close() {
	nb.mu.Lock()
	if nb.closed {
		nb.mu.Unlock()
		return
	}
	nb.closed = true
	nb.mu.Unlock()
	nb.br.RemovePort(nb.port)
	_ = nb.dom0.ClosePort(nb.txPort)
	_ = nb.dom0.ClosePort(nb.rxPort)
	_ = nb.dom0.UnmapGrant(nb.guestID, nb.shRef)
}

// RxDrops reports frames dropped for want of posted receive buffers.
func (nf *Netfront) RxDrops() uint64 {
	nf.mu.Lock()
	nb := nf.back
	nf.mu.Unlock()
	if nb == nil {
		return 0
	}
	nb.mu.Lock()
	defer nb.mu.Unlock()
	return nb.rxDrops
}
