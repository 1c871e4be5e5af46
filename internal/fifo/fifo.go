// Package fifo implements XenLoop's lockless inter-VM FIFO (paper §3.3):
// a producer-consumer circular buffer living in shared memory between two
// guests, carrying variable-size packets as an 8-byte metadata word
// followed by the payload padded to 8 bytes. Timestamped entries (PushAt)
// insert one extra header word carrying the producer's push clock, which
// the latency instrumentation reads back on the consumer side.
//
// Synchronization-free by construction: the maximum number of 8-byte
// entries is 2^k (k ≤ 31) while the free-running front and back indices
// are m = 32 bits wide; front is advanced only by the consumer and back
// only by the producer, so no cross-domain locking is needed. Concurrent
// producers within one domain coordinate lock-free through a reservation
// cursor: each producer CASes `reserve` forward to claim a region, writes
// its entry into the claimed (disjoint) words, then publishes by advancing
// `back` in reservation order. Concurrent consumers within one domain
// still serialize on a consumer-local lock.
package fifo

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
)

// WordBytes is the FIFO entry granularity.
const WordBytes = 8

// DefaultSizeBytes is the per-direction FIFO capacity used in the paper's
// evaluation ("we set the FIFO size at 64 KB in each direction").
const DefaultSizeBytes = 64 * 1024

// entryMagic marks a valid metadata word, guarding against index bugs.
const entryMagic = 0x584C // "XL"

// entryMagicTS marks a timestamped entry: the metadata word is followed
// by one extra header word carrying the producer's push timestamp
// (metrics.Now nanoseconds), which the consumer's drain subtracts to
// measure FIFO residency. Untimed entries (entryMagic) keep the original
// one-word header, so the uninstrumented path pays nothing, and a packet
// so large that the extra word would no longer fit in the ring is pushed
// untimed rather than rejected — the datapath never loses a packet to
// observability.
const entryMagicTS = 0x5854 // "XT"

// tsWords is the extra header footprint of a timestamped entry.
const tsWords = 1

// tombMagic marks a dead entry: a producer claimed the words, then saw
// the channel go inactive. The claim cannot be withdrawn (the reservation
// cursor only moves forward), so the producer publishes a tombstone to
// keep the word accounting intact — AwaitQuiesce needs every claim to
// resolve — and the consumer's drain skips it. The packet itself is
// reported ErrInactive to the caller, which falls back to the standard
// path; without the tombstone the packet would be counted as sent on the
// channel yet never delivered whenever the claim raced teardown's final
// drain.
const tombMagic = 0x4458 // "XD"

// Errors.
var (
	ErrTooLarge = errors.New("fifo: packet larger than FIFO capacity")
	ErrInactive = errors.New("fifo: channel marked inactive")
)

// Descriptor is the shared state of one FIFO direction: index words,
// status flags and the data area. It is the object a XenLoop grant
// reference resolves to; both endpoints hold the same Descriptor, so all
// fields are shared memory. (The paper stores data-page grant references
// inside a descriptor page; we fold descriptor and data into one shared
// block, which preserves the protocol while keeping the simulation safe.)
type Descriptor struct {
	front atomic.Uint32 // consumer-owned, free-running
	back  atomic.Uint32 // producer-owned, free-running: entries below it are published

	// reserve is the producers' staging cursor (back <= reserve). A
	// producer claims [reserve, reserve+need) with a CAS, writes the entry
	// into those words, then publishes by advancing back over its region
	// once all earlier reservations have published. The consumer never
	// reads it; space accounting on the producer side uses reserve so a
	// claimed-but-unpublished region is never handed out twice.
	reserve atomic.Uint32

	// Inactive is set during channel teardown; both sides observe it and
	// disengage (paper §3.3, "channel teardown").
	Inactive atomic.Bool

	// consumerParked supports event suppression: the consumer parks
	// before sleeping; a producer kicks only a parked consumer.
	consumerParked atomic.Bool

	// producerWaiting is set when the producer has packets on its
	// waiting list; the consumer notifies back after freeing space.
	producerWaiting atomic.Bool

	sizeWords uint32
	mask      uint32
	data      []byte
}

// Bytes exposes the data area for the grant-copy interface.
func (d *Descriptor) Bytes() []byte { return d.data }

// FIFO is one endpoint's handle on a Descriptor. The producer side is
// lock-free (reservation cursor in the Descriptor); the consumer side
// keeps an endpoint-local lock.
type FIFO struct {
	desc   *Descriptor
	consMu sync.Mutex
}

// NewDescriptor allocates the shared state for one direction. sizeBytes
// is rounded up to a power-of-two number of 8-byte words (minimum 64
// words); sizes beyond 2^31 words are rejected by construction of int.
func NewDescriptor(sizeBytes int) *Descriptor {
	if sizeBytes < 64*WordBytes {
		sizeBytes = 64 * WordBytes
	}
	words := uint32(1)
	for int(words)*WordBytes < sizeBytes {
		words <<= 1
	}
	return &Descriptor{
		sizeWords: words,
		mask:      words - 1,
		data:      make([]byte, int(words)*WordBytes),
	}
}

// Attach wraps a shared Descriptor in an endpoint handle.
func Attach(desc *Descriptor) *FIFO { return &FIFO{desc: desc} }

// Descriptor returns the shared descriptor.
func (f *FIFO) Descriptor() *Descriptor { return f.desc }

// SizeBytes returns the FIFO capacity in bytes.
func (f *FIFO) SizeBytes() int { return int(f.desc.sizeWords) * WordBytes }

// MaxPacket returns the largest packet the FIFO can ever hold.
func (f *FIFO) MaxPacket() int { return int(f.desc.sizeWords-1) * WordBytes }

// wordsFor returns the entry footprint of an n-byte packet.
func wordsFor(n int) uint32 { return 1 + uint32((n+WordBytes-1)/WordBytes) }

// Push appends one packet. It returns ErrInactive after teardown began,
// ErrTooLarge if the packet can never fit, and (nil, false) — no error,
// not pushed — when the FIFO currently lacks space (caller queues on its
// waiting list).
//
// Push is safe for concurrent producers and acquires no lock: it claims a
// region with one CAS on the reservation cursor, copies the packet in, and
// publishes by advancing back in reservation order.
//
// Ownership contract: Push copies p into the FIFO (the sender-side copy of
// the paper's two-copy data path) and never retains p; the caller keeps
// ownership and may reuse or release the backing buffer as soon as Push
// returns, whatever the result.
func (f *FIFO) Push(p []byte) (bool, error) { return f.PushAt(p, 0) }

// PushAt is Push with a producer timestamp: pushNs (a metrics.Now value;
// 0 means untimed) rides in the entry header and comes back out of
// DrainIntoTS on the consumer side, giving the residency measurement a
// clock that crossed the shared memory with the packet. A packet so
// large that the timestamp word would push it past ring capacity is
// degraded to an untimed entry instead of being refused.
func (f *FIFO) PushAt(p []byte, pushNs int64) (bool, error) {
	d := f.desc
	if d.Inactive.Load() {
		return false, ErrInactive
	}
	need := wordsFor(len(p))
	if need > d.sizeWords {
		return false, ErrTooLarge
	}
	if pushNs != 0 {
		if need+tsWords <= d.sizeWords {
			need += tsWords
		} else {
			pushNs = 0
		}
	}
	for {
		res := d.reserve.Load()
		if need > d.sizeWords-(res-d.front.Load()) {
			return false, nil
		}
		if !d.reserve.CompareAndSwap(res, res+need) {
			continue // another producer claimed; re-read and retry
		}
		if d.Inactive.Load() {
			// Teardown raced our claim: the consumer may already have made
			// its final drain decision. Resolve the claim with a tombstone
			// and hand the packet back to the standard path.
			f.writeTombstone(res, need)
			f.publish(res, res+need)
			return false, ErrInactive
		}
		f.writeEntry(res, p, pushNs)
		f.publish(res, res+need)
		return true, nil
	}
}

// PushBatch appends packets in order until the FIFO runs out of space,
// returning how many were pushed. The whole fitting prefix is claimed with
// one reservation CAS and published with one back advance, amortizing the
// shared atomics that Push pays per packet. Like Push it is safe for
// concurrent producers, copies every packet and retains none of them. A
// packet that can never fit stops the batch with ErrTooLarge (pkts[n] is
// the offender); ErrInactive reports teardown.
func (f *FIFO) PushBatch(pkts [][]byte) (int, error) { return f.PushBatchAt(pkts, 0) }

// PushBatchAt is PushBatch with one producer timestamp shared by the
// whole batch (the caller reads the clock once per batch, not per
// packet). Per-packet degradation matches PushAt: an entry whose
// timestamped footprint would exceed ring capacity is written untimed.
func (f *FIFO) PushBatchAt(pkts [][]byte, pushNs int64) (int, error) {
	d := f.desc
	if d.Inactive.Load() {
		return 0, ErrInactive
	}
	// entryNeed returns one packet's footprint and whether it carries the
	// timestamp word; the accounting pass and the write pass below must
	// agree, so both use it.
	entryNeed := func(n int) (uint32, int64) {
		need := wordsFor(n)
		if pushNs != 0 && need+tsWords <= d.sizeWords {
			return need + tsWords, pushNs
		}
		return need, 0
	}
	for {
		res := d.reserve.Load()
		free := d.sizeWords - (res - d.front.Load())
		n := 0
		words := uint32(0)
		var err error
		for _, p := range pkts {
			need, _ := entryNeed(len(p))
			if wordsFor(len(p)) > d.sizeWords {
				err = ErrTooLarge
				break
			}
			if need > free {
				break
			}
			free -= need
			words += need
			n++
		}
		if n == 0 {
			return 0, err
		}
		if !d.reserve.CompareAndSwap(res, res+words) {
			continue // lost the claim race; recompute against fresh cursors
		}
		if d.Inactive.Load() {
			// Teardown raced the claim: one spanning tombstone resolves the
			// whole region (see Push).
			f.writeTombstone(res, words)
			f.publish(res, res+words)
			return 0, ErrInactive
		}
		w := res
		for i := 0; i < n; i++ {
			need, ts := entryNeed(len(pkts[i]))
			f.writeEntry(w, pkts[i], ts)
			w += need
		}
		f.publish(res, res+words)
		return n, err
	}
}

// publish advances back over [from, to) once every earlier reservation has
// published. back only ever equals `from` after all predecessors have
// advanced it there, so the CAS doubles as the in-order wait; the brief
// spin covers a predecessor mid-copy.
func (f *FIFO) publish(from, to uint32) {
	d := f.desc
	for !d.back.CompareAndSwap(from, to) {
		runtime.Gosched()
	}
}

// writeTombstone marks a claimed region of `words` words as dead: one
// metadata word whose payload length makes the entry span exactly the
// region, so the consumer's cursor arithmetic is unchanged.
func (f *FIFO) writeTombstone(idx, words uint32) {
	var meta [WordBytes]byte
	binary.LittleEndian.PutUint16(meta[0:2], tombMagic)
	binary.LittleEndian.PutUint32(meta[2:6], (words-1)*WordBytes)
	f.writeWords(idx, meta[:])
}

// writeEntry stores the header (one metadata word, plus a timestamp word
// when pushNs != 0) and payload at the claimed index. The caller owns the
// entry's full footprint by reservation.
func (f *FIFO) writeEntry(idx uint32, p []byte, pushNs int64) {
	// Metadata word: magic | length | sequence-low (diagnostics).
	var meta [WordBytes]byte
	if pushNs != 0 {
		binary.LittleEndian.PutUint16(meta[0:2], entryMagicTS)
		binary.LittleEndian.PutUint32(meta[2:6], uint32(len(p)))
		f.writeWords(idx, meta[:])
		var ts [WordBytes]byte
		binary.LittleEndian.PutUint64(ts[:], uint64(pushNs))
		f.writeWords(idx+1, ts[:])
		f.writeWords(idx+2, p)
		return
	}
	binary.LittleEndian.PutUint16(meta[0:2], entryMagic)
	binary.LittleEndian.PutUint32(meta[2:6], uint32(len(p)))
	f.writeWords(idx, meta[:])
	f.writeWords(idx+1, p)
}

// CanFit reports whether an n-byte packet would fit right now (measured
// against the reservation cursor, so regions claimed by in-flight
// producers count as used). A producer that queued packets and set the
// waiting flag re-checks with CanFit to close the race where the consumer
// freed space (and tested the flag) between the failed push and the flag
// store. CanFit reserves headroom for the timestamp word whenever one
// could be carried, so a positive answer holds for timed and untimed
// pushes alike.
func (f *FIFO) CanFit(n int) bool {
	d := f.desc
	need := wordsFor(n)
	if need+tsWords <= d.sizeWords {
		need += tsWords
	}
	return need <= d.sizeWords-(d.reserve.Load()-d.front.Load())
}

// Pop removes the next packet into a fresh buffer (the receiver-side copy
// of the paper's two-copy data path).
func (f *FIFO) Pop() ([]byte, bool) {
	var out []byte
	ok := f.pop(func(p []byte) {
		out = make([]byte, len(p))
		copy(out, p)
	})
	return out, ok
}

// PopZeroCopy hands the packet bytes to fn in place and frees the FIFO
// space only after fn returns. This is the rejected alternative the paper
// evaluates in §3.3: protocol processing holds FIFO space and
// back-pressures the sender. Kept for the ablation benchmarks.
func (f *FIFO) PopZeroCopy(fn func(p []byte)) bool {
	return f.pop(fn)
}

// drainPublishQuarter bounds how much consumed space DrainInto
// accumulates (a quarter ring) before publishing the front index
// mid-batch, so a long drain does not starve the producer of the space it
// has already freed.
const drainPublishQuarter = 4

// DrainInto pops every packet currently in the FIFO, handing each to fn
// as a view directly into the ring — no per-packet allocation, no copy
// unless the packet wraps the ring edge (then it is staged through a
// pooled buffer). The view is valid only for the duration of the call;
// fn must copy anything it stashes. Every packet handed to fn is
// consumed; fn returning false stops the drain early. The front index is
// published once per quarter-ring of consumed space rather than per
// packet, amortizing the shared atomics. Returns the number of packets
// drained.
func (f *FIFO) DrainInto(fn func(view []byte) bool) int {
	return f.DrainIntoTS(func(view []byte, _ int64) bool { return fn(view) })
}

// DrainIntoTS is DrainInto handing fn the producer's push timestamp
// alongside each packet view (0 for untimed entries), so the consumer can
// measure FIFO residency without any side channel.
func (f *FIFO) DrainIntoTS(fn func(view []byte, pushNs int64) bool) int {
	d := f.desc
	f.consMu.Lock()
	defer f.consMu.Unlock()
	front := d.front.Load()
	lastPub := front
	back := d.back.Load()
	publishQuantum := d.sizeWords / drainPublishQuarter
	n := 0
	cont := true
	for cont {
		if front == back {
			back = d.back.Load() // refresh: packets may have landed mid-drain
			if front == back {
				break
			}
		}
		var meta [WordBytes]byte
		f.readWords(front, meta[:])
		magic := binary.LittleEndian.Uint16(meta[0:2])
		if magic == tombMagic {
			// Dead entry from a push that raced teardown: free the words,
			// deliver nothing.
			front += wordsFor(int(binary.LittleEndian.Uint32(meta[2:6])))
			if front-lastPub >= publishQuantum {
				d.front.Store(front)
				lastPub = front
			}
			continue
		}
		hdr := uint32(1)
		var pushNs int64
		if magic == entryMagicTS {
			var ts [WordBytes]byte
			f.readWords(front+1, ts[:])
			pushNs = int64(binary.LittleEndian.Uint64(ts[:]))
			hdr += tsWords
		} else if magic != entryMagic {
			// Corrupted entry: resynchronize by draining everything (see pop).
			front = d.back.Load()
			break
		}
		length := int(binary.LittleEndian.Uint32(meta[2:6]))
		off := int((front+hdr)&d.mask) * WordBytes
		if off+length <= len(d.data) {
			cont = fn(d.data[off:off+length], pushNs)
		} else {
			// Wrapped packet: stage through a pooled buffer, not a fresh
			// allocation.
			b := buf.Get(length)
			s := b.Bytes()
			c := copy(s, d.data[off:])
			copy(s[c:], d.data)
			cont = fn(s, pushNs)
			b.Release()
		}
		front += hdr - 1 + wordsFor(length)
		n++
		if front-lastPub >= publishQuantum {
			d.front.Store(front)
			lastPub = front
		}
	}
	if front != lastPub {
		d.front.Store(front)
	}
	return n
}

func (f *FIFO) pop(fn func(p []byte)) bool {
	d := f.desc
	f.consMu.Lock()
	defer f.consMu.Unlock()
	for {
		front := d.front.Load()
		if front == d.back.Load() {
			return false
		}
		var meta [WordBytes]byte
		f.readWords(front, meta[:])
		magic := binary.LittleEndian.Uint16(meta[0:2])
		length := int(binary.LittleEndian.Uint32(meta[2:6]))
		if magic == tombMagic {
			// Dead entry (push raced teardown): free the words and look at
			// the next entry.
			d.front.Store(front + wordsFor(length))
			continue
		}
		hdr := uint32(1)
		if magic == entryMagicTS {
			hdr += tsWords
		} else if magic != entryMagic {
			// Corrupted entry: resynchronize by draining everything. Should
			// be unreachable; kept as a hard stop for index bugs.
			d.front.Store(d.back.Load())
			return false
		}
		// Read in place, then free the space.
		f.withSlice(front+hdr, length, fn)
		d.front.Store(front + hdr - 1 + wordsFor(length))
		return true
	}
}

// AwaitQuiesce waits until no producer reservation is outstanding
// (reserve == back), or until maxWait elapses, and reports whether the
// FIFO quiesced. Teardown calls it after setting Inactive: from that
// point new pushes are refused at entry, but a producer that claimed a
// region just before the flag landed is still copying — once reserve and
// back agree, every such in-flight push has published and a final drain
// observes all of them. A false return means a claimed region never
// published (only possible if a producer died mid-copy).
func (f *FIFO) AwaitQuiesce(maxWait time.Duration) bool {
	d := f.desc
	deadline := time.Now().Add(maxWait)
	for d.reserve.Load() != d.back.Load() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// HeadLen reports the payload length of the next entry without consuming
// it, and false when the FIFO is empty. The answer holds only for a
// caller that excludes every other consumer of this endpoint meanwhile.
func (f *FIFO) HeadLen() (int, bool) {
	d := f.desc
	front := d.front.Load()
	if front == d.back.Load() {
		return 0, false
	}
	var meta [WordBytes]byte
	f.readWords(front, meta[:])
	return int(binary.LittleEndian.Uint32(meta[2:6])), true
}

// Empty reports whether the FIFO has no packets.
func (f *FIFO) Empty() bool {
	return f.desc.front.Load() == f.desc.back.Load()
}

// UsedBytes reports the occupied capacity.
func (f *FIFO) UsedBytes() int {
	d := f.desc
	return int(d.back.Load()-d.front.Load()) * WordBytes
}

// --- event-suppression and waiting-list flags (shared) ---

// ParkConsumer marks the consumer as about to sleep; it returns false —
// cancelling the park — if packets arrived in the meantime or the FIFO is
// inactive. Inactive is terminal: once set it is never cleared, so every
// later ParkConsumer also returns false. A loop that drains until the
// park succeeds must therefore test Inactive itself and exit on it, or it
// spins forever once either end disengages.
func (f *FIFO) ParkConsumer() bool {
	d := f.desc
	d.consumerParked.Store(true)
	if !f.Empty() || d.Inactive.Load() {
		d.consumerParked.Store(false)
		return false
	}
	return true
}

// UnparkConsumer clears the parked mark without waiting for a producer
// to consume it: a consumer context that is about to poll the ring tells
// producers not to notify. Whoever stops polling last must ParkConsumer
// again, or later pushes raise no event.
func (f *FIFO) UnparkConsumer() { f.desc.consumerParked.Store(false) }

// NeedKickConsumer reports (and consumes) whether the consumer is parked;
// a true result obliges the producer to send one event notification.
func (f *FIFO) NeedKickConsumer() bool { return f.desc.consumerParked.Swap(false) }

// SetProducerWaiting records that the producer has queued packets on its
// waiting list because the FIFO was full.
func (f *FIFO) SetProducerWaiting() { f.desc.producerWaiting.Store(true) }

// ConsumeProducerWaiting reports (and clears) the waiting flag; the
// consumer calls it after freeing space and notifies the producer on true.
func (f *FIFO) ConsumeProducerWaiting() bool { return f.desc.producerWaiting.Swap(false) }

// --- wrapped data access ---

func (f *FIFO) writeWords(word uint32, p []byte) {
	d := f.desc
	off := int(word&d.mask) * WordBytes
	n := copy(d.data[off:], p)
	if n < len(p) {
		copy(d.data, p[n:])
	}
}

func (f *FIFO) readWords(word uint32, p []byte) {
	d := f.desc
	off := int(word&d.mask) * WordBytes
	n := copy(p, d.data[off:])
	if n < len(p) {
		copy(p[n:], d.data)
	}
}

// withSlice presents length bytes starting at word to fn, avoiding a copy
// when the region does not wrap.
func (f *FIFO) withSlice(word uint32, length int, fn func(p []byte)) {
	d := f.desc
	off := int(word&d.mask) * WordBytes
	if off+length <= len(d.data) {
		fn(d.data[off : off+length])
		return
	}
	buf := make([]byte, length)
	n := copy(buf, d.data[off:])
	copy(buf[n:], d.data)
	fn(buf)
}
