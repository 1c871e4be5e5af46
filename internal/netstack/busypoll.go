package netstack

import (
	"runtime"
	"time"
)

// BusyPoller is a receive source that a socket read about to block may
// poll instead of sleeping at once — the stack-side half of Linux's
// socket busy-poll (SO_BUSY_POLL, napi_busy_loop): the reader that is
// already waiting does the polling, so an arrival is delivered by the
// goroutine that wants it rather than by a woken receive context.
//
// A socket polls only the source that last delivered to it (Linux's
// sk_napi_id): InjectIPFrom tags every socket a datagram reaches with its
// source, and any other delivery — a device, InjectIP — clears the tag.
// A socket without a tag never polls.
type BusyPoller interface {
	// PollStart begins one reader's poll and returns how long it may
	// poll; 0 means the source is not worth polling, and then PollStop
	// must not be called.
	PollStart() time.Duration
	// Poll makes one pass over the source, delivering what it finds
	// into the stack. It returns false once the source can no longer be
	// polled (gone, inactive or handed back to its own receive context),
	// which ends the poll early.
	Poll() bool
	// PollStop ends a poll that PollStart began.
	PollStop()
}

// busyPoll polls src until ready reports true, the source's window
// closes, or the source stops being pollable. Socket reads call it
// without their lock held, just before they would wait; ready takes that
// lock itself. Each pass yields the processor so that, with fewer
// processors than runnable goroutines, the sender the reader is waiting
// for still runs.
func busyPoll(src BusyPoller, ready func() bool) {
	window := src.PollStart()
	if window <= 0 {
		return
	}
	start := time.Now()
	for src.Poll() && !ready() && time.Since(start) < window {
		runtime.Gosched()
	}
	src.PollStop()
}
