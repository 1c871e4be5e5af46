package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autotune"
	"repro/internal/buf"
	"repro/internal/faultinject"
	"repro/internal/fifo"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/netstack"
	"repro/internal/pkt"
	"repro/internal/trace"
)

// Channel states.
const (
	chanBootstrapping int32 = iota
	chanConnected
	chanInactive
)

// Channel is one bidirectional inter-VM channel: two FIFOs (one per
// direction) plus one bidirectional event channel (paper §3.3). The
// listener/connector distinction exists only during bootstrap; data
// transfer is fully symmetric.
type Channel struct {
	mod   *Module
	peer  Identity
	state atomic.Int32

	// Channel endpoint resources. For the listener, out/in are the
	// descriptors it allocated and granted; for the connector they are
	// the mapped foreign descriptors. resMu orders their assignment (in
	// the bootstrap goroutine) against teardown (releaseChannel, possibly
	// from an announce while the handshake is still in flight): setup
	// checks the state under resMu and backs out if the channel was
	// already released. The data path never takes resMu — send and the
	// worker only run once the channel is connected, which happens
	// strictly after assignment.
	resMu sync.Mutex
	out   *fifo.FIFO // we produce
	in    *fifo.FIFO // we consume
	port  hypervisor.Port

	listener   bool
	outRef     hypervisor.GrantRef // grants made (listener) or mapped (connector)
	inRef      hypervisor.GrantRef
	generation uint32
	bornNs     int64 // metrics.Now() at channel creation, for the bootstrap histogram

	// released makes releaseChannel idempotent: teardown can arrive from
	// several directions at once (worker noticing the inactive flag, an
	// announcement dropping the peer, Detach) and the resources must be
	// returned exactly once.
	released atomic.Bool

	// bootClaim serializes connector-side setup: only one create-channel
	// message may be mid-mapping at a time. It is reset on failure so a
	// retransmitted create can retry.
	bootClaim atomic.Bool

	// The waiting list is the slow path, entered only when the FIFO is
	// full. waitMu guards it; the fast path never takes waitMu — it reads
	// nWaiting (a mirror of len(waiting), updated under waitMu at every
	// mutation) to decide whether ordering forces it to queue.
	waitMu   sync.Mutex
	nWaiting atomic.Int32
	waiting  []*buf.Buffer // leased packets awaiting FIFO space, in order
	scratch  [][]byte      // reusable view slice for batched waiting-list pushes

	signal chan struct{}
	quit   chan struct{}
	once   sync.Once

	// rxMu is the single-consumer guard of the incoming FIFO: whoever
	// drains it — the worker, a busy-polling reader (pollers.go) or
	// teardown — holds rxMu from the ring read through the last
	// injection, so two drainers can never reorder packets between them.
	// Pollers only TryLock: a held guard means someone is already
	// draining.
	rxMu sync.Mutex

	// Receive-mode selection, by what the channel carries (bulk). paced
	// turns on whenever an entry larger than one standard frame is pushed
	// or drained, and off when the worker polls a whole hold-off window
	// without work; rxRun counts packets received since the last push,
	// and more than oneWayRun of them mark a one-way stream. A bulk
	// channel keeps the NAPI-style worker (pacing and hold-off) and
	// busy-polling readers leave it alone; any other is drained by its
	// blocked readers, and its worker parks as soon as a pass comes up
	// empty. pollers counts the readers polling the channel right now;
	// asleep is set while the worker is parked, so the last poller to
	// stop knows to re-arm notification.
	rxRun   atomic.Int32
	paced   atomic.Bool
	pollers atomic.Int32
	asleep  atomic.Bool

	// Lifecycle bookkeeping (read/written only when the module is
	// flow-controlled). refBit is the CLOCK reference bit: set by send
	// and receive activity, latched into lastActive and cleared by each
	// sweep; a channel whose bit stayed clear is the preferred eviction
	// victim. lastActive is the model-clock time of the last sweep that
	// found the bit set.
	refBit     atomic.Bool
	lastActive atomic.Int64

	// Receive-scheduling knobs. Historically the compile-time constants
	// below; now per-channel atomics initialized to those constants and
	// rewritten only by the autotune epoch loop (module.tuneOnce), so a
	// module without a controller behaves bit-for-bit as before. The
	// worker reads them once per loop pass, never per packet. The holdoff
	// is also the budget of a blocked reader's busy poll (pollers.go),
	// read once per poll.
	knobHoldoffNs atomic.Int64
	knobPaceNs    atomic.Int64
	knobBatch     atomic.Int32

	// Per-epoch traffic counters for the controller's rate estimate,
	// swapped to zero by each tuning epoch. Bumped only when tuning is
	// enabled (Module.tuneOn), so the default datapath pays one
	// predictable branch.
	txEpoch atomic.Uint64
	rxEpoch atomic.Uint64

	// tuner is this channel's feedback controller (nil unless the module
	// enables autotuning). Only the module's tuning goroutine calls it.
	tuner *autotune.Controller
}

// holdoff / pace / drainBatch read the channel's current knob settings.
func (ch *Channel) holdoff() time.Duration { return time.Duration(ch.knobHoldoffNs.Load()) }
func (ch *Channel) pace() time.Duration    { return time.Duration(ch.knobPaceNs.Load()) }
func (ch *Channel) drainBatch() int        { return int(ch.knobBatch.Load()) }

// Knobs returns the channel's live receive-scheduling settings.
func (ch *Channel) Knobs() autotune.Knobs {
	return autotune.Knobs{Holdoff: ch.holdoff(), Pace: ch.pace(), Batch: ch.drainBatch()}
}

// Connected reports whether the channel carries data traffic.
func (ch *Channel) Connected() bool { return ch.state.Load() == chanConnected }

// Peer returns the channel's remote identity.
func (ch *Channel) Peer() Identity { return ch.peer }

// WaitingLen reports the current waiting-list length.
func (ch *Channel) WaitingLen() int {
	return int(ch.nWaiting.Load())
}

// FIFOSizeBytes reports the per-direction capacity (0 before bootstrap).
func (ch *Channel) FIFOSizeBytes() int {
	if ch.out == nil {
		return 0
	}
	return ch.out.SizeBytes()
}

// send shepherds one outgoing packet into the FIFO. Verdicts: Stolen if
// the packet now travels (or waits) on the XenLoop channel, Accept if it
// must use the standard path (too large, channel going down, waiting list
// overflow). On Stolen the channel takes over the packet's buffer lease;
// on Accept the lease stays with the stack.
//
// The common case — FIFO has room, no waiters — acquires no lock: the
// nWaiting gate is one atomic read and Push claims ring space with a CAS.
// Concurrent senders serialize only on the ring cursor itself. Per-sender
// packet order is preserved (a sender whose packet queued sees nWaiting>0
// for its next packet and queues behind it); order *between* concurrent
// senders is unspecified, as it already was when they raced for sendMu.
func (ch *Channel) send(op *netstack.OutPacket) netstack.Verdict {
	m := ch.mod
	datagram := op.Datagram
	if len(datagram) > ch.out.MaxPacket() {
		m.stats.PktsTooLarge.Add(1)
		return netstack.VerdictAccept
	}
	// t0 doubles as the FIFO entry's push timestamp: the residency
	// histogram on the receive side measures from FIFO entry, the
	// hook-to-push one here measures hook entry to push completion.
	var t0 int64
	if m.latOn {
		t0 = metrics.Now()
	}
	if ch.nWaiting.Load() == 0 {
		pushed, err := ch.out.PushAt(datagram, t0)
		if err != nil {
			return netstack.VerdictAccept // inactive: teardown under way
		}
		if pushed {
			m.model.ChargeCopy(len(datagram)) // sender-side copy onto the FIFO
			m.stats.PktsChannel.Add(1)
			if m.tuneOn {
				ch.txEpoch.Add(1)
			}
			m.stats.BytesChannel.Add(uint64(len(datagram)))
			ch.notePush(len(datagram))
			if t0 != 0 {
				m.lat.hookToPush.Observe(metrics.Now() - t0)
			}
			if m.cfg.NotifyEveryPush || ch.out.NeedKickConsumer() {
				_ = m.dom.NotifyPort(ch.port)
			}
			return netstack.VerdictStolen
		}
	}
	return ch.enqueueWaiting(op, t0)
}

// enqueueWaiting is the slow path: FIFO full, or ordering requires
// queueing behind earlier waiters. Takes waitMu. t0 is the send-hook
// entry timestamp (0 when latency metrics are off); it rides the buffer
// lease so the eventual FIFO push still measures from hook entry.
func (ch *Channel) enqueueWaiting(op *netstack.OutPacket, t0 int64) netstack.Verdict {
	m := ch.mod
	ch.waitMu.Lock()
	if ch.out.Descriptor().Inactive.Load() {
		// Teardown: releaseChannel has purged (or is about to purge) the
		// waiting list; adding now would leak the lease.
		ch.waitMu.Unlock()
		return netstack.VerdictAccept
	}
	if len(ch.waiting) == 0 {
		// The worker drained the list between our gate check and here:
		// retry the direct push rather than queueing unnecessarily.
		pushed, err := ch.out.PushAt(op.Datagram, t0)
		if err != nil {
			ch.waitMu.Unlock()
			return netstack.VerdictAccept
		}
		if pushed {
			ch.waitMu.Unlock()
			m.model.ChargeCopy(len(op.Datagram))
			m.stats.PktsChannel.Add(1)
			if m.tuneOn {
				ch.txEpoch.Add(1)
			}
			m.stats.BytesChannel.Add(uint64(len(op.Datagram)))
			ch.notePush(len(op.Datagram))
			if t0 != 0 {
				m.lat.hookToPush.Observe(metrics.Now() - t0)
			}
			if m.cfg.NotifyEveryPush || ch.out.NeedKickConsumer() {
				_ = m.dom.NotifyPort(ch.port)
			}
			return netstack.VerdictStolen
		}
	}
	if len(ch.waiting) >= m.cfg.MaxWaitingPackets {
		ch.waitMu.Unlock()
		m.stats.PktsStandard.Add(1)
		return netstack.VerdictAccept
	}
	lease := op.TakeLease()
	lease.StampNs = t0
	ch.waiting = append(ch.waiting, lease)
	ch.nWaiting.Store(int32(len(ch.waiting)))
	m.stats.PktsWaiting.Add(1)
	m.stats.WaitingDepthMax.Observe(uint64(len(ch.waiting)))
	// Tell the consumer we are stalled, then re-check once: the consumer
	// may have freed space and tested the flag between our failed push and
	// the flag store (the lost-wakeup race), in which case we raise our own
	// worker instead of waiting for a notification that will never come.
	// The drain itself stays in worker context — the softirq model — so a
	// saturating sender queues behind the ring's real pace rather than
	// polling the ring from the transmit path.
	ch.out.SetProducerWaiting()
	selfKick := ch.out.CanFit(ch.waiting[0].Len())
	ch.waitMu.Unlock()
	if selfKick {
		ch.event()
	}
	return netstack.VerdictStolen
}

// event is the channel's event-channel upcall: it wakes the worker. The
// upcall itself stays tiny so the domain's event dispatcher is never
// blocked by protocol processing.
func (ch *Channel) event() {
	select {
	case ch.signal <- struct{}{}:
	default:
	}
}

// rxHoldoff is the default poll window. A paced (bulk) channel's worker
// stays in polling mode this long after its queues run dry before
// re-arming event notification (NAPI-style interrupt mitigation): the
// window comfortably exceeds a saturating sender's inter-packet gap, so
// steady streams are served entirely by polling and event-channel traffic
// only signals genuine transitions — first packet after idle, and
// ring-full producer stalls. On any other channel the same window is how
// long a socket read about to block busy-polls the channel instead
// (pollers.go). Per-channel knob since the autotune controller; the
// default-drift test pins this value to autotune.DefaultHoldoff.
const rxHoldoff = 25 * time.Microsecond

// worker is the channel's receive/waiting-list goroutine.
func (ch *Channel) worker() {
	for {
		got := ch.drainIncoming()
		ch.drainWaiting()
		if ch.inactive() {
			ch.mod.peerDisengaged(ch)
			return
		}
		if ch.pacedPass() {
			if got {
				// Polling mode runs at softirq pacing: let the ring
				// accumulate for one period so the next pass drains a batch.
				// Throughput through a small ring is then bounded by ring
				// capacity per period — the paper's Fig. 5 effect — while a
				// large ring buffers a full period of traffic and never
				// stalls the sender.
				ch.coalescePause()
				continue
			}
			if ch.pollHoldoff() {
				continue // work arrived while polling: stay in polling mode
			}
			// A whole window without work: the burst is over, and until
			// the next bulk entry the channel's readers may poll it.
			ch.paced.Store(false)
		} else if got {
			continue // drain until a pass comes up empty, then park
		}
		if !ch.park() {
			continue // more packets arrived (or teardown began) while parking
		}
		t := ch.mod.model.NewTimer(parkWatchdog)
		select {
		case <-ch.signal:
		case <-ch.quit:
			t.Stop()
			return
		case <-t.C():
			// Lost-notification insurance: event channels carry one bit and
			// a notification can be lost outright (hypervisor under
			// pressure, or injected via FPNotifyDrop). Data sitting in the
			// ring — or an inactive flag set by the peer — would otherwise
			// never wake us. Rescan unconditionally.
		}
		t.Stop()
		ch.asleep.Store(false)
	}
}

// inactive reports whether either end has begun teardown. Inactive is
// terminal (see fifo.ParkConsumer), so every poll and park loop exits on
// it.
func (ch *Channel) inactive() bool {
	return ch.out.Descriptor().Inactive.Load() || ch.in.Descriptor().Inactive.Load()
}

// pacedPass reports whether this worker pass runs paced: on a channel
// that carries bulk traffic, and on every channel under the virtual
// engine, where no reader busy-polls (see pollHoldoff). Bulk keeps the
// paced worker as a receive context in parallel with the application: a
// reader that drained 64 KiB segments inline would serialize their
// receive copy with its own work.
func (ch *Channel) pacedPass() bool {
	return ch.bulk() || ch.mod.model.Virtual()
}

// bulk reports whether the channel carries bulk traffic: a bulk-sized
// entry crossed it recently (paced), or it is receiving a one-way stream.
func (ch *Channel) bulk() bool {
	return ch.paced.Load() || ch.rxRun.Load() > oneWayRun
}

// park arms event notification and reports whether the worker may sleep.
// While a reader busy-polls this channel the ring stays unparked
// (producers need not notify: the reader drains), and the last poller to
// stop re-parks on the worker's behalf — asleep, set before the poller
// count is read, is what it checks. Either the worker sees the poller or
// the poller sees asleep, so one of them always arms the ring. A reader
// stops polling as soon as the channel turns bulk or inactive (Poll), so
// a worker never sleeps unarmed behind a reader that has left the ring.
func (ch *Channel) park() bool {
	ch.asleep.Store(true)
	var ok bool
	if ch.pollers.Load() > 0 {
		ok = ch.in.Empty() && !ch.inactive()
	} else {
		ok = ch.in.ParkConsumer()
	}
	if !ok {
		ch.asleep.Store(false)
	}
	return ok
}

// parkWatchdog bounds how long a parked worker trusts the event channel.
// It only costs a timer wakeup and an empty drain pass on an idle
// channel; the latency win when a notification is genuinely lost is the
// difference between 2ms and forever.
const parkWatchdog = 2 * time.Millisecond

// coalescePeriod is the default pacing of a paced (bulk) channel's
// worker. A real receiving VM's softirq runs when the scheduler gets to
// it, not the instant each packet lands; modeling that granularity is
// what lets a saturating sender actually fill a small ring between
// passes. Unpaced channels never pay it: their blocked readers drain
// inline, and a parked worker is dispatched via the event channel.
// Per-channel knob since the autotune controller; pinned to
// autotune.DefaultPace by the default-drift test.
const coalescePeriod = 35 * time.Microsecond

// coalescePause yields the processor for one pacing period (aborting
// early on teardown) so producer and application goroutines run while the
// ring accumulates the next batch. Under the virtual engine the pause
// parks on the event queue instead of yielding: the ring still
// accumulates one virtual period of traffic, preserving the Fig. 5
// capacity-per-period effect.
func (ch *Channel) coalescePause() {
	period := ch.pace()
	if ch.mod.model.Virtual() {
		ch.mod.model.Sleep(period)
		return
	}
	start := time.Now()
	for time.Since(start) < period {
		if ch.inactive() {
			return
		}
		runtime.Gosched()
	}
}

// pollHoldoff busy-polls (yielding the processor each pass, so producer
// and application goroutines run underneath) for up to the channel's
// holdoff knob, and reports whether the incoming ring or the waiting
// list picked up work.
//
// Under the virtual engine there is no window to poll: wall-clock
// spinning would hold virtual time still, and a virtual sleep here
// would delay every arrival by up to the holdoff (the busy-poll's whole
// point is that it catches arrivals instantly). The worker goes
// straight to the parked state instead — senders then notify on first
// push, which is the event-driven behavior the holdoff exists to
// mitigate, and the notification costs are charged on the virtual
// timeline like any other.
func (ch *Channel) pollHoldoff() bool {
	if ch.mod.model.Virtual() {
		return false
	}
	window := ch.holdoff()
	start := time.Now()
	for time.Since(start) < window {
		if !ch.in.Empty() {
			return true
		}
		ch.waitMu.Lock()
		headLen := -1
		if len(ch.waiting) > 0 {
			headLen = ch.waiting[0].Len()
		}
		ch.waitMu.Unlock()
		if headLen >= 0 && ch.out.CanFit(headLen) {
			return true
		}
		if ch.inactive() {
			return true // let the main loop handle teardown
		}
		runtime.Gosched()
	}
	return false
}

// drainRxBatch is the default bound on how many packets one
// drainIncoming pass stages before processing them, so a saturating
// sender cannot keep the worker inside the drain loop forever.
// Per-channel knob since the autotune controller; pinned to
// autotune.DefaultBatch by the default-drift test.
const drainRxBatch = 256

// drainIncoming drains pending packets in batched passes. Each pass
// copies the FIFO views into leased pool buffers — the receiver-side copy
// of the two-copy data path, freeing FIFO space for the sender *before*
// any protocol processing, which is the property §3.3 chose two-copy for
// — and only then charges the copies and injects the packets into layer-3
// receive. After freeing space it notifies a producer that reported a
// full FIFO. It waits for the single-consumer guard; drainIncomingLocked
// is the body for a caller that already holds it.
func (ch *Channel) drainIncoming() bool {
	ch.rxMu.Lock()
	defer ch.rxMu.Unlock()
	return ch.drainIncomingLocked()
}

// drainIncomingLocked is drainIncoming with ch.rxMu held.
func (ch *Channel) drainIncomingLocked() bool {
	m := ch.mod
	// Snapshot the endpoint resources: besides the worker (which starts
	// strictly after assignment), teardownAll drains channels that may
	// still be mid-bootstrap, racing the setup goroutine's assignment.
	ch.resMu.Lock()
	in, port := ch.in, ch.port
	ch.resMu.Unlock()
	if in == nil {
		return false // torn down mid-bootstrap
	}
	n := 0
	if m.cfg.ZeroCopyReceive {
		// No receive copy: the stack processes each packet in place while
		// it still occupies FIFO space (§3.3's rejected alternative). The
		// batched drain amortizes the consumer lock and the front-index
		// publication over the whole backlog instead of paying both per
		// packet. Only residency is measured here: in-place injection has
		// no separate delivery step to time.
		var nowZC int64
		if m.latOn {
			nowZC = metrics.Now()
		}
		n = in.DrainIntoTS(func(p []byte, pushNs int64) bool {
			if pushNs != 0 && nowZC != 0 {
				m.lat.residency.Observe(nowZC - pushNs)
			}
			if len(p) > stdMTUDatagram {
				ch.noteBulk()
			}
			m.stack.InjectIPFrom(p, busyPoller{ch})
			return true
		})
		if n > 0 {
			m.lat.drainBatch.Observe(int64(n))
		}
	} else {
		limit := ch.drainBatch()
		batch := make([]*buf.Buffer, 0, 32)
		for {
			batch = batch[:0]
			in.DrainIntoTS(func(view []byte, pushNs int64) bool {
				if len(view) > stdMTUDatagram {
					ch.noteBulk()
				}
				b := buf.FromBytes(view)
				b.StampNs = pushNs
				batch = append(batch, b)
				return len(batch) < limit
			})
			if len(batch) == 0 {
				break
			}
			// Batch occupancy feeds the controller: a median pinned at
			// the limit means the bound, not the traffic, ended the pass.
			m.lat.drainBatch.Observe(int64(len(batch)))
			// drainNow anchors the residency measurement at the moment the
			// batch left the ring; prev walks forward so each packet's
			// delivery time covers exactly its own copy + injection.
			var drainNow int64
			if m.latOn {
				drainNow = metrics.Now()
			}
			prev := drainNow
			for i, b := range batch {
				m.model.ChargeCopy(b.Len()) // receiver-side copy off the FIFO
				m.stack.InjectIPFrom(b.Bytes(), busyPoller{ch})
				if m.latOn {
					now := metrics.Now()
					if b.StampNs != 0 {
						m.lat.residency.Observe(drainNow - b.StampNs)
					}
					m.lat.deliver.Observe(now - prev)
					prev = now
				}
				b.Release()
				batch[i] = nil
			}
			n += len(batch)
			if in.ConsumeProducerWaiting() {
				// A sender stalled on a full ring resumes only here, after
				// the batch is processed — one notification per batch, and
				// the ring-cycle latency a small FIFO really costs.
				_ = m.dom.NotifyPort(port)
			}
		}
	}
	if n == 0 {
		return false
	}
	if m.flowCtl {
		ch.refBit.Store(true) // receive traffic also keeps a channel resident
	}
	if m.tuneOn {
		ch.rxEpoch.Add(uint64(n)) // controller rate input, swapped per epoch
	}
	m.stats.PktsReceived.Add(uint64(n))
	ch.rxRun.Add(int32(n))
	if in.ConsumeProducerWaiting() {
		_ = m.dom.NotifyPort(port) // space freed: wake the peer's sender
	}
	return true
}

// drainWaiting moves waiting-list packets into the FIFO as space allows.
func (ch *Channel) drainWaiting() {
	if ch.out == nil {
		return // torn down mid-bootstrap
	}
	ch.waitMu.Lock()
	kick := ch.drainWaitingLocked()
	ch.waitMu.Unlock()
	if kick {
		_ = ch.mod.dom.NotifyPort(ch.port)
	}
}

// drainWaitingLocked pushes queued packets batch-wise and reports whether
// the consumer needs a kick. If packets remain it sets the waiting flag
// and then re-checks for space: should the consumer have freed space (and
// found the flag still clear) in the meantime, the producer sees that
// space here and keeps draining itself instead of stalling forever — the
// lost-wakeup race of the original one-shot flag protocol. waitMu held.
func (ch *Channel) drainWaitingLocked() bool {
	m := ch.mod
	if ch.out == nil {
		return false
	}
	pushed := 0
	for len(ch.waiting) > 0 {
		var now int64
		if m.latOn {
			now = metrics.Now()
		}
		views := ch.scratch[:0]
		for _, b := range ch.waiting {
			views = append(views, b.Bytes())
		}
		n, err := ch.out.PushBatchAt(views, now)
		ch.scratch = views[:0]
		for i := 0; i < n; i++ {
			b := ch.waiting[i]
			m.model.ChargeCopy(b.Len())
			m.stats.PktsChannel.Add(1)
			m.stats.BytesChannel.Add(uint64(b.Len()))
			ch.notePush(b.Len())
			if b.StampNs != 0 && now != 0 {
				// Hook entry to (batched) FIFO push: the time a packet spent
				// on the waiting list is part of the send-side latency.
				m.lat.hookToPush.Observe(now - b.StampNs)
			}
			b.Release()
			ch.waiting[i] = nil
		}
		ch.waiting = ch.waiting[n:]
		pushed += n
		if m.tuneOn && n > 0 {
			ch.txEpoch.Add(uint64(n))
		}
		if err == fifo.ErrTooLarge {
			// Cannot ever fit (FIFO shrank across migration?): drop it
			// rather than wedge the queue.
			ch.waiting[0].Release()
			ch.waiting[0] = nil
			ch.waiting = ch.waiting[1:]
			m.stats.PktsTooLarge.Add(1)
			ch.nWaiting.Store(int32(len(ch.waiting)))
			continue
		}
		ch.nWaiting.Store(int32(len(ch.waiting)))
		if err != nil || len(ch.waiting) == 0 {
			break
		}
		ch.out.SetProducerWaiting()
		if !ch.out.CanFit(ch.waiting[0].Len()) {
			break // consumer will see the flag when it next frees space
		}
		// Space appeared after the flag store: the consumer may already
		// have tested (and missed) the flag, so keep draining ourselves.
	}
	if len(ch.waiting) == 0 && cap(ch.waiting) > 0 {
		ch.waiting = ch.waiting[:0]
	}
	return pushed > 0 && (m.cfg.NotifyEveryPush || ch.out.NeedKickConsumer())
}

// takeWaiting removes the waiting list and returns the queued datagrams
// as plain copies (for migration save), releasing the leases.
func (ch *Channel) takeWaiting() [][]byte {
	ch.waitMu.Lock()
	defer ch.waitMu.Unlock()
	out := make([][]byte, 0, len(ch.waiting))
	for i, b := range ch.waiting {
		out = append(out, append([]byte(nil), b.Bytes()...))
		b.Release()
		ch.waiting[i] = nil
	}
	ch.waiting = nil
	ch.nWaiting.Store(0)
	return out
}

// purgeWaiting releases every queued lease and returns how many packets
// were dropped. Called during teardown after the out descriptor is marked
// inactive, so no new packet can join the list afterward (enqueueWaiting
// checks the flag under waitMu); without this, leases queued at Detach
// time would never return to the pool.
func (ch *Channel) purgeWaiting() int {
	ch.waitMu.Lock()
	n := len(ch.waiting)
	for i, b := range ch.waiting {
		b.Release()
		ch.waiting[i] = nil
	}
	ch.waiting = nil
	ch.nWaiting.Store(0)
	ch.waitMu.Unlock()
	return n
}

// stop terminates the worker.
func (ch *Channel) stop() {
	ch.once.Do(func() { close(ch.quit) })
}

// --- bootstrap ---

// newChannel builds a channel object in the bootstrapping state with
// the knob atomics at their defaults (the historical constants) and,
// when the module tunes, a fresh per-channel controller. Every creation
// site goes through here so a channel can never run with zero knobs.
func (m *Module) newChannel(peer Identity) *Channel {
	ch := &Channel{
		mod:    m,
		peer:   peer,
		bornNs: metrics.Now(),
		signal: make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	ch.knobHoldoffNs.Store(int64(rxHoldoff))
	ch.knobPaceNs.Store(int64(coalescePeriod))
	ch.knobBatch.Store(drainRxBatch)
	if m.tuneOn {
		ch.tuner = m.tune.hooks.NewController()
		k := ch.tuner.Knobs()
		ch.knobHoldoffNs.Store(int64(k.Holdoff))
		ch.knobPaceNs.Store(int64(k.Pace))
		ch.knobBatch.Store(int32(k.Batch))
	}
	ch.lastActive.Store(m.model.NowNs())
	ch.state.Store(chanBootstrapping)
	return ch
}

// startBootstrapLocked creates the channel object and kicks off the
// handshake. The guest with the smaller ID acts as listener (it creates
// the FIFOs and the event channel); the larger-ID guest is the connector.
// When the connector side observes traffic first, it asks the listener to
// begin via a channel-request message. m.mu must be held.
func (m *Module) startBootstrapLocked(mac pkt.MAC, peerDom hypervisor.DomID) *Channel {
	if m.flowCtl && !m.admitChannelLocked(mac, m.model.NowNs()) {
		return nil // over budget or in holddown: flow stays on netfront
	}
	ch := m.newChannel(Identity{Dom: peerDom, MAC: mac})
	m.channels[mac] = ch
	m.publishRoutesLocked()
	if m.self.Dom < peerDom {
		ch.listener = true
		go m.listenerBootstrap(ch)
	} else {
		go m.requestChannel(ch)
	}
	return ch
}

// listenerBootstrap allocates the shared FIFOs and event channel, then
// sends create-channel with up to cfg.BootstrapRetries retransmissions.
func (m *Module) listenerBootstrap(ch *Channel) {
	// Failpoint: the listener stalls before allocating anything — a
	// descheduled or dying peer from the connector's point of view. The
	// connector's request retries and timeout must cover the gap.
	_ = faultinject.Fire(faultinject.FPBootstrapStall)
	// The FIFO size is the one knob that cannot move after creation (the
	// descriptor pages are granted to the peer), so it is picked here,
	// once, from the flow's observed rate class — a hot flow re-forming
	// its channel (migration, eviction/re-admission) gets a ring sized
	// for the traffic it already demonstrated. Without tuning this is
	// exactly cfg.FIFOSizeBytes.
	fifoBytes := m.tuneFIFOSize(ch.peer.MAC)
	outDesc := fifo.NewDescriptor(fifoBytes)
	inDesc := fifo.NewDescriptor(fifoBytes)
	// Acquire the two budgeted grant pages before taking resMu: under
	// grant-page pressure this can evict a victim and wait for its
	// teardown (which itself needs resMu ordering) to return pages.
	outRef, inRef, err := m.grantChannelPages(ch.peer, outDesc, inDesc)
	if err != nil {
		trace.Record(trace.KindChannelDn, m.actor(), "bootstrap to %s aborted: %v", ch.peer.MAC, err)
		m.abortBootstrap(ch)
		return
	}
	ch.resMu.Lock()
	if ch.state.Load() == chanInactive {
		// Released before setup (peer vanished from an announcement):
		// return the grants we just took; nothing else durable exists.
		ch.resMu.Unlock()
		_ = m.dom.EndAccess(outRef)
		_ = m.dom.EndAccess(inRef)
		return
	}
	ch.out = fifo.Attach(outDesc)
	ch.in = fifo.Attach(inDesc)
	ch.outRef = outRef
	ch.inRef = inRef
	port, err := m.dom.AllocUnboundPort(ch.peer.Dom)
	if err != nil {
		ch.resMu.Unlock()
		m.abortBootstrap(ch)
		return
	}
	ch.port = port
	_ = m.dom.SetEventHandler(port, ch.event)
	// Generations distinguish channel incarnations to the same peer (a
	// stale ack must not connect a new handshake). A per-module
	// monotonic counter can never collide across fast reconnects —
	// unlike the truncated wall-clock stamp used previously — and keeps
	// same-seed runs identical under the virtual clock.
	ch.generation = m.generation.Add(1)

	msg := (&createChannelMsg{
		Listener:   m.Self(),
		OutRef:     ch.outRef,
		InRef:      ch.inRef,
		Port:       port,
		Generation: ch.generation,
	}).marshal()
	ch.resMu.Unlock()

	timeout := m.cfg.BootstrapTimeout
	for attempt := 0; attempt < m.cfg.BootstrapRetries; attempt++ {
		if ch.Connected() {
			return
		}
		m.sendControl(ch.peer.MAC, msg)
		deadline := m.model.After(timeout)
	waitAck:
		for {
			select {
			case <-deadline:
				break waitAck
			case <-ch.quit:
				return
			case <-m.model.After(10 * time.Millisecond):
				if ch.Connected() {
					return
				}
			}
		}
		// Back off between retransmissions (doubling, capped at 4× the
		// configured timeout): on a lossy control path immediate retries
		// only add to the loss, and the peer may be mid-migration.
		if timeout < 4*m.cfg.BootstrapTimeout {
			timeout *= 2
		}
	}
	if !ch.Connected() {
		m.abortBootstrap(ch)
	}
}

// requestChannel (connector-initiated bootstrap): ask the smaller-ID peer
// to act as listener.
func (m *Module) requestChannel(ch *Channel) {
	msg := (&simpleMsg{Kind: msgChannelReq, Sender: m.Self()}).marshal()
	timeout := m.cfg.BootstrapTimeout
	for attempt := 0; attempt < m.cfg.BootstrapRetries; attempt++ {
		if ch.Connected() {
			return
		}
		m.sendControl(ch.peer.MAC, msg)
		select {
		case <-m.model.After(timeout):
		case <-ch.quit:
			return
		}
		if timeout < 4*m.cfg.BootstrapTimeout {
			timeout *= 2 // same backoff as the listener's retransmissions
		}
	}
	if !ch.Connected() {
		m.abortBootstrap(ch)
	}
}

// handleCreateChannel is the connector side of the handshake: map the two
// descriptor grants, bind the event channel, and ack.
func (m *Module) handleCreateChannel(msg *createChannelMsg) {
	m.mu.Lock()
	if m.detached {
		m.mu.Unlock()
		return
	}
	if _, known := m.peers[msg.Listener.MAC]; !known {
		// Announcement may not have reached us yet; trust the handshake.
		m.peers[msg.Listener.MAC] = msg.Listener.Dom
		m.publishRoutesLocked()
	}
	ch := m.channels[msg.Listener.MAC]
	if ch != nil && ch.Connected() {
		m.mu.Unlock()
		if ch.generation == msg.Generation {
			// Duplicate create (our ack was lost): re-ack.
			m.sendControl(msg.Listener.MAC, (&simpleMsg{Kind: msgChannelAck, Sender: m.Self(), Generation: msg.Generation}).marshal())
		}
		return
	}
	if ch == nil {
		// The listener already spent its grant pages on this channel, so
		// admit if at all possible — evict a victim at the cap — and
		// refuse only when every slot is pinned or the flow is barred.
		// A refused listener retransmits and eventually aborts, freeing
		// its pages.
		if m.flowCtl && !m.admitChannelLocked(msg.Listener.MAC, m.model.NowNs()) {
			m.mu.Unlock()
			return
		}
		ch = m.newChannel(msg.Listener)
		m.channels[msg.Listener.MAC] = ch
		m.publishRoutesLocked()
	}
	m.mu.Unlock()

	if ch.listener {
		return // both sides listener: impossible by ID ordering
	}
	if !ch.bootClaim.CompareAndSwap(false, true) {
		return // another create for this channel is already mid-mapping
	}

	// Map the descriptor grants: our IN is the listener's OUT. Every
	// failure path unmaps whatever was mapped and resets the claim so a
	// retransmitted create gets a fresh attempt.
	inObj, err := m.dom.MapGrant(msg.Listener.Dom, msg.OutRef)
	if err != nil {
		ch.bootClaim.Store(false)
		return
	}
	outObj, err := m.dom.MapGrant(msg.Listener.Dom, msg.InRef)
	if err != nil {
		m.unmapEventually(msg.Listener.Dom, msg.OutRef)
		ch.bootClaim.Store(false)
		return
	}
	inDesc, ok1 := inObj.(*fifo.Descriptor)
	outDesc, ok2 := outObj.(*fifo.Descriptor)
	if !ok1 || !ok2 {
		m.unmapEventually(msg.Listener.Dom, msg.OutRef)
		m.unmapEventually(msg.Listener.Dom, msg.InRef)
		ch.bootClaim.Store(false)
		return
	}
	port, err := m.dom.BindInterdomain(msg.Listener.Dom, msg.Port)
	if err != nil {
		m.unmapEventually(msg.Listener.Dom, msg.OutRef)
		m.unmapEventually(msg.Listener.Dom, msg.InRef)
		ch.bootClaim.Store(false)
		return
	}
	ch.resMu.Lock()
	if ch.state.Load() == chanInactive {
		// Released while we were mapping (announce churn): back out the
		// resources we just acquired; releaseChannel saw nil fields.
		ch.resMu.Unlock()
		_ = m.dom.ClosePort(port)
		m.unmapEventually(msg.Listener.Dom, msg.OutRef)
		m.unmapEventually(msg.Listener.Dom, msg.InRef)
		return
	}
	ch.in = fifo.Attach(inDesc)
	ch.out = fifo.Attach(outDesc)
	ch.inRef = msg.OutRef // remember foreign refs for unmap at teardown
	ch.outRef = msg.InRef
	ch.port = port
	ch.generation = msg.Generation
	_ = m.dom.SetEventHandler(port, ch.event)
	ch.resMu.Unlock()

	if ch.state.CompareAndSwap(chanBootstrapping, chanConnected) {
		m.stats.ChannelsOpened.Add(1)
		m.lat.bootstrap.Observe(metrics.Now() - ch.bornNs)
		trace.Record(trace.KindChannelUp, m.actor(), "connected to dom%d %s (connector side, fifo %dB)", ch.peer.Dom, ch.peer.MAC, ch.out.SizeBytes())
		go ch.worker()
	}
	m.sendControl(msg.Listener.MAC, (&simpleMsg{Kind: msgChannelAck, Sender: m.Self(), Generation: msg.Generation}).marshal())
}

// handleChannelAck completes the listener side.
func (m *Module) handleChannelAck(msg *simpleMsg) {
	m.mu.Lock()
	ch := m.channels[msg.Sender.MAC]
	m.mu.Unlock()
	if ch == nil || !ch.listener || ch.generation != msg.Generation {
		return
	}
	if ch.state.CompareAndSwap(chanBootstrapping, chanConnected) {
		m.stats.ChannelsOpened.Add(1)
		m.lat.bootstrap.Observe(metrics.Now() - ch.bornNs)
		trace.Record(trace.KindChannelUp, m.actor(), "connected to dom%d %s (listener side)", ch.peer.Dom, ch.peer.MAC)
		go ch.worker()
	}
}

// handleChannelReq makes the smaller-ID guest start listening when the
// connector saw traffic first.
func (m *Module) handleChannelReq(msg *simpleMsg) {
	m.mu.Lock()
	if m.detached {
		m.mu.Unlock()
		return
	}
	if _, known := m.peers[msg.Sender.MAC]; !known {
		m.peers[msg.Sender.MAC] = msg.Sender.Dom
		m.publishRoutesLocked()
	}
	if m.self.Dom >= msg.Sender.Dom {
		m.mu.Unlock()
		return // requester got the ordering wrong; ignore
	}
	if ch := m.channels[msg.Sender.MAC]; ch != nil {
		m.mu.Unlock()
		return // bootstrap already in progress (or connected)
	}
	m.startBootstrapLocked(msg.Sender.MAC, msg.Sender.Dom)
	m.mu.Unlock()
}

// abortBootstrap gives up on a handshake ("before giving up", §3.3).
func (m *Module) abortBootstrap(ch *Channel) {
	m.mu.Lock()
	if m.channels[ch.peer.MAC] == ch {
		delete(m.channels, ch.peer.MAC)
		m.publishRoutesLocked()
	}
	m.mu.Unlock()
	m.releaseChannel(ch, false)
}

// quiesceWait bounds how long teardown waits for producers that claimed
// FIFO space just before the inactive flag landed to finish publishing.
const quiesceWait = 50 * time.Millisecond

// releaseChannel disengages this endpoint: mark the shared descriptors
// inactive, deliver what is already in our incoming FIFO, notify the peer
// so it disengages too, stop the worker, and release grants/mappings and
// the event channel. The disengagement steps are slightly asymmetric
// between listener and connector (§3.3). Idempotent: teardown races
// (worker vs announce vs Detach) resolve through ch.released and the
// resources are returned exactly once.
func (m *Module) releaseChannel(ch *Channel, notifyPeer bool) {
	// Swap the state first: a bootstrap goroutine that has not yet
	// assigned resources will observe chanInactive under resMu and back
	// out instead of setting up a channel nobody will ever tear down. The
	// swap also elects exactly one caller to count the close, even if that
	// caller goes on to lose the release race below.
	wasConnected := ch.state.Swap(chanInactive) == chanConnected
	if wasConnected {
		m.stats.ChannelsClosed.Add(1)
		trace.Record(trace.KindChannelDn, m.actor(), "disengaging channel to dom%d %s", ch.peer.Dom, ch.peer.MAC)
	}
	if !ch.released.CompareAndSwap(false, true) {
		return // another teardown path already released the resources
	}
	ch.resMu.Lock()
	out, in, port := ch.out, ch.in, ch.port
	outRef, inRef := ch.outRef, ch.inRef
	ch.resMu.Unlock()
	if out != nil {
		out.Descriptor().Inactive.Store(true)
	}
	if in != nil {
		in.Descriptor().Inactive.Store(true)
	}
	if in != nil {
		// Wait out peer producers that claimed space before they saw the
		// inactive flag, then deliver everything already in our FIFO.
		// Without this final drain, packets pushed during the teardown
		// window would silently vanish and the channel's conservation
		// property (every packet pushed is received exactly once) breaks.
		t := metrics.Now()
		in.AwaitQuiesce(quiesceWait)
		ch.drainIncoming()
		m.lat.quiesce.Observe(metrics.Now() - t)
	}
	// Inactive is set, so no sender can queue a new lease; return the ones
	// already queued to the pool (migration save takes them earlier via
	// takeWaiting, leaving this a no-op).
	if purged := ch.purgeWaiting(); purged > 0 {
		m.stats.PktsPurged.Add(uint64(purged))
	}
	if wasConnected && notifyPeer && port != 0 {
		_ = m.dom.NotifyPort(port)
	}
	ch.stop()
	if port != 0 {
		_ = m.dom.ClosePort(port)
	}
	if ch.listener {
		m.endAccessEventually(outRef)
		m.endAccessEventually(inRef)
	} else if out != nil {
		m.unmapEventually(ch.peer.Dom, outRef)
		m.unmapEventually(ch.peer.Dom, inRef)
	}
}

// releaseRetries/releaseBackoffCap bound the background grant-release
// retry loops: ~0.5s of total patience, far below the leak-settle windows
// the tests use.
const (
	releaseRetries    = 20
	releaseBackoffCap = 32 * time.Millisecond
)

// endAccessEventually revokes a listener-side grant, retrying in the
// background while the peer still holds a mapping: peer disengagement is
// asynchronous (it may still be draining our FIFO), so the first attempt
// racing it is normal, not an error. The loop stops when the revoke
// succeeds, the error becomes terminal (bad ref — e.g. the whole table
// was destroyed by migration), or the domain's machine identity changes
// (the old table died wholesale with the old identity).
func (m *Module) endAccessEventually(ref hypervisor.GrantRef) {
	if ref == 0 {
		return
	}
	if err := m.dom.EndAccess(ref); !errors.Is(err, hypervisor.ErrGrantInUse) {
		return
	}
	hv := m.dom.Hypervisor()
	go func() {
		backoff := time.Millisecond
		for i := 0; i < releaseRetries; i++ {
			m.model.Sleep(backoff)
			if backoff < releaseBackoffCap {
				backoff *= 2
			}
			if m.dom.Hypervisor() != hv {
				return // migrated away: the old grant table no longer exists
			}
			if err := m.dom.EndAccess(ref); !errors.Is(err, hypervisor.ErrGrantInUse) {
				return
			}
		}
	}()
}

// unmapEventually releases a connector-side mapping, retrying transient
// failures (injected unmap faults) in the background. Terminal errors —
// the granter is gone, the ref is bad — mean the hypervisor already tore
// the mapping state down; retrying would touch an unrelated domain that
// reused the ID.
func (m *Module) unmapEventually(peer hypervisor.DomID, ref hypervisor.GrantRef) {
	if ref == 0 {
		return
	}
	terminal := func(err error) bool {
		return err == nil || errors.Is(err, hypervisor.ErrNoDomain) || errors.Is(err, hypervisor.ErrBadGrant)
	}
	if terminal(m.dom.UnmapGrant(peer, ref)) {
		return
	}
	hv := m.dom.Hypervisor()
	go func() {
		backoff := time.Millisecond
		for i := 0; i < releaseRetries; i++ {
			m.model.Sleep(backoff)
			if backoff < releaseBackoffCap {
				backoff *= 2
			}
			if m.dom.Hypervisor() != hv {
				return // migrated away: the old mapping died with the old identity
			}
			if terminal(m.dom.UnmapGrant(peer, ref)) {
				return
			}
		}
	}()
}

// peerDisengaged runs on the worker when the peer marked the channel
// inactive: drain whatever is left, then release our side.
func (m *Module) peerDisengaged(ch *Channel) {
	ch.drainIncoming()
	m.mu.Lock()
	if m.channels[ch.peer.MAC] == ch {
		delete(m.channels, ch.peer.MAC)
		m.publishRoutesLocked()
	}
	m.mu.Unlock()
	m.releaseChannel(ch, false)
}

// stdMTUDatagram is the largest IP datagram one standard Ethernet frame
// carries. Channel packets above it are "jumbo": coalesced (GSO) TCP
// segments that travel the FIFO whole but would be split back to wire
// MSS on the netfront path. They are also what marks a channel as
// carrying bulk traffic (see Channel.paced).
const stdMTUDatagram = 1500

// oneWayRun is how many packets a channel may receive with nothing sent
// back before it counts as carrying a one-way stream, which is bulk
// traffic whatever its packet size. A request/response exchange keeps at
// most a few packets outstanding in each direction, far below it.
const oneWayRun = 16

// notePush accounts one channel packet of n bytes pushed onto the FIFO:
// it ends the receive run and, for a jumbo packet, bumps the jumbo
// counter and marks the channel as carrying bulk traffic.
func (ch *Channel) notePush(n int) {
	if ch.rxRun.Load() != 0 {
		ch.rxRun.Store(0)
	}
	if n > stdMTUDatagram {
		ch.mod.stats.PktsJumbo.Add(1)
		ch.noteBulk()
	}
}

// noteBulk turns the channel paced: bulk traffic crossed it. The load
// first keeps a stream of large packets from rewriting a shared line.
func (ch *Channel) noteBulk() {
	if !ch.paced.Load() {
		ch.paced.Store(true)
	}
}
