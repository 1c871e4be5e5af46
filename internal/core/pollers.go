package core

import "time"

// busyPoller is a channel's netstack.BusyPoller: a socket read about to
// block on an empty socket that this channel delivered to last drains the
// channel inline instead of sleeping until the worker delivers (Linux's
// socket busy-poll, napi_busy_loop, which polls the socket's sk_napi_id).
// For request/response traffic the reader that is waiting for the reply
// is the cheapest receive context there is: no event, no worker wake, no
// socket wake. Bulk channels are left to their paced worker, which
// copies 64 KiB segments in parallel with the application rather than in
// its way. The channel passes it to netstack.InjectIPFrom with every
// packet it drains, which is how sockets learn what to poll.
type busyPoller struct{ ch *Channel }

// pollable reports whether a reader may poll ch: connected, not carrying
// bulk traffic and not in teardown. The state check comes first — it
// orders the reads of ch.in and ch.out after bootstrap assigned them.
func (ch *Channel) pollable() bool {
	return ch.state.Load() == chanConnected && !ch.bulk() && !ch.inactive()
}

// PollStart registers the poller and un-parks the channel's incoming
// ring, so producers stop notifying while a reader drains. The window is
// the channel's holdoff — the poll budget is the holdoff knob — and 0
// under the virtual engine, where a wall-clock spin would hold virtual
// time still (the rule pollHoldoff follows).
func (p busyPoller) PollStart() time.Duration {
	ch := p.ch
	if ch.mod.model.Virtual() || !ch.pollable() {
		return 0
	}
	window := ch.holdoff()
	if window <= 0 {
		return 0
	}
	// Count first, then un-park: a worker that parks in between sees the
	// count and leaves the ring unparked (see Channel.park).
	ch.pollers.Add(1)
	ch.in.UnparkConsumer()
	return window
}

// Poll drains the channel when it has packets and its guard is free; a
// held guard means the worker or another reader is already draining it.
// A bulk entry at the head turns the channel paced instead of being
// drained here, so the paced worker copies it. Poll reports false once
// the channel is no longer pollable — paced, torn down or inactive —
// which ends the reader's poll, so PollStop hands the ring back to the
// worker at once.
func (p busyPoller) Poll() bool {
	ch := p.ch
	if !ch.pollable() {
		return false
	}
	if ch.in.Empty() || !ch.rxMu.TryLock() {
		return true
	}
	if n, ok := ch.in.HeadLen(); ok && n > stdMTUDatagram {
		ch.noteBulk() // PollStop wakes the sleeping worker: the ring is not empty
	} else {
		ch.drainIncomingLocked()
	}
	ch.rxMu.Unlock()
	return true
}

// PollStop deregisters the poller. The last one out re-parks the ring if
// the channel's worker sleeps, and wakes the worker when packets landed
// after the final pass (or teardown began): ParkConsumer fails on both,
// so nothing is left in a ring nobody will be told about.
func (p busyPoller) PollStop() {
	ch := p.ch
	if ch.pollers.Add(-1) == 0 && ch.asleep.Load() && !ch.in.ParkConsumer() {
		ch.event()
	}
}
