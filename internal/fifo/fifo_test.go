package fifo

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestPushPopRoundTrip(t *testing.T) {
	f := Attach(NewDescriptor(4096))
	msg := []byte("a packet payload")
	ok, err := f.Push(msg)
	if err != nil || !ok {
		t.Fatalf("push: %v %v", ok, err)
	}
	got, ok := f.Pop()
	if !ok || !bytes.Equal(got, msg) {
		t.Fatalf("pop: %q ok=%v", got, ok)
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty fifo")
	}
}

func TestSizeRounding(t *testing.T) {
	f := Attach(NewDescriptor(60000))
	if f.SizeBytes() != 65536 {
		t.Fatalf("size %d, want 65536 (next power of two)", f.SizeBytes())
	}
	if f.MaxPacket() != 65528 {
		t.Fatalf("max packet %d", f.MaxPacket())
	}
}

func TestFullBehaviour(t *testing.T) {
	f := Attach(NewDescriptor(1024)) // 128 words
	big := make([]byte, 500)         // 1+63 words each
	ok, err := f.Push(big)
	if !ok || err != nil {
		t.Fatalf("first push: %v %v", ok, err)
	}
	ok, err = f.Push(big) // 64+64 = 128 words exactly
	if !ok || err != nil {
		t.Fatalf("second push: %v %v", ok, err)
	}
	ok, err = f.Push([]byte{1})
	if ok || err != nil {
		t.Fatalf("push into full fifo: ok=%v err=%v", ok, err)
	}
	if _, ok := f.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if ok, _ := f.Push([]byte{1}); !ok {
		t.Fatal("push after freeing space failed")
	}
}

func TestTooLarge(t *testing.T) {
	f := Attach(NewDescriptor(1024))
	if _, err := f.Push(make([]byte, 2000)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
	// The paper's 64 KB FIFO must accept a maximum-size IP datagram
	// (65,527 bytes of UDP over IPv4) when empty.
	f64 := Attach(NewDescriptor(DefaultSizeBytes))
	if ok, err := f64.Push(make([]byte, 65527)); !ok || err != nil {
		t.Fatalf("64 KB FIFO rejected a full-size datagram: %v %v", ok, err)
	}
}

func TestInactiveRejectsPush(t *testing.T) {
	f := Attach(NewDescriptor(1024))
	f.Descriptor().Inactive.Store(true)
	if _, err := f.Push([]byte{1}); !errors.Is(err, ErrInactive) {
		t.Fatalf("expected ErrInactive, got %v", err)
	}
}

func TestWraparoundIntegrity(t *testing.T) {
	f := Attach(NewDescriptor(512)) // tiny: forces wrap constantly
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		msg := make([]byte, 1+r.Intn(200))
		r.Read(msg)
		ok, err := f.Push(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("unexpectedly full")
		}
		got, ok := f.Pop()
		if !ok || !bytes.Equal(got, msg) {
			t.Fatalf("iteration %d: wraparound corrupted packet (%d vs %d bytes)", i, len(got), len(msg))
		}
	}
}

func TestSharedDescriptorBothEndpoints(t *testing.T) {
	// Producer and consumer attach to the same descriptor — the
	// grant-mapped shared memory situation.
	desc := NewDescriptor(4096)
	producer := Attach(desc)
	consumer := Attach(desc)
	msg := []byte("cross-domain")
	if ok, _ := producer.Push(msg); !ok {
		t.Fatal("push failed")
	}
	got, ok := consumer.Pop()
	if !ok || !bytes.Equal(got, msg) {
		t.Fatal("consumer did not observe producer's packet")
	}
}

func TestParkKickProtocol(t *testing.T) {
	f := Attach(NewDescriptor(4096))
	if !f.ParkConsumer() {
		t.Fatal("park on empty fifo refused")
	}
	_, _ = f.Push([]byte{1})
	if !f.NeedKickConsumer() {
		t.Fatal("push onto parked fifo needs a kick")
	}
	_, _ = f.Push([]byte{2})
	if f.NeedKickConsumer() {
		t.Fatal("second push should not kick (consumer awake)")
	}
	// Park with data pending must refuse.
	if f.ParkConsumer() {
		t.Fatal("park with packets pending")
	}
}

func TestProducerWaitingFlag(t *testing.T) {
	f := Attach(NewDescriptor(4096))
	f.SetProducerWaiting()
	if !f.ConsumeProducerWaiting() {
		t.Fatal("waiting flag lost")
	}
	if f.ConsumeProducerWaiting() {
		t.Fatal("waiting flag not consumed")
	}
}

func TestZeroCopyPop(t *testing.T) {
	f := Attach(NewDescriptor(4096))
	msg := []byte("zero copy view")
	_, _ = f.Push(msg)
	var seen []byte
	used := f.UsedBytes()
	ok := f.PopZeroCopy(func(p []byte) {
		seen = append([]byte(nil), p...)
		// Space is still held while the callback runs.
		if f.UsedBytes() != used {
			t.Error("space freed during zero-copy processing")
		}
	})
	if !ok || !bytes.Equal(seen, msg) {
		t.Fatalf("zero-copy pop: %q", seen)
	}
	if f.UsedBytes() != 0 {
		t.Fatal("space not freed after zero-copy callback")
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	f := Attach(NewDescriptor(8192))
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			msg := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
			ok, err := f.Push(msg)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			p, ok := f.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			want := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
			if !bytes.Equal(p, want) {
				t.Errorf("packet %d corrupted: %v", i, p)
				return
			}
			i++
		}
	}()
	wg.Wait()
}

func TestConcurrentProducersSerialize(t *testing.T) {
	// "Multiple producer threads ... handled by using producer-local
	// spin-locks" — packets from concurrent senders must never interleave
	// or corrupt.
	f := Attach(NewDescriptor(1 << 16))
	const producers, per = 4, 2000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				msg := []byte{byte(p), byte(i), byte(i >> 8)}
				for {
					ok, err := f.Push(msg)
					if err != nil {
						t.Error(err)
						return
					}
					if ok {
						break
					}
					runtime.Gosched()
				}
			}
		}(p)
	}
	counts := make([]int, producers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := make([]int, producers)
		for got := 0; got < producers*per; {
			p, ok := f.Pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			id := int(p[0])
			seq := int(p[1]) | int(p[2])<<8
			if seq != next[id] {
				t.Errorf("producer %d out of order: %d want %d", id, seq, next[id])
				return
			}
			next[id]++
			counts[id]++
			got++
		}
	}()
	wg.Wait()
	<-done
	for p, c := range counts {
		if c != per {
			t.Fatalf("producer %d delivered %d/%d", p, c, per)
		}
	}
}

// Property: any sequence of packets round-trips in order with exact
// contents through a FIFO sized to hold them.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(packets [][]byte) bool {
		fi := Attach(NewDescriptor(1 << 20))
		var kept [][]byte
		for _, p := range packets {
			if len(p) > 4096 {
				p = p[:4096]
			}
			ok, err := fi.Push(p)
			if err != nil || !ok {
				return false
			}
			kept = append(kept, p)
		}
		for _, want := range kept {
			got, ok := fi.Pop()
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		_, ok := fi.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadLenPeeksWithoutConsuming(t *testing.T) {
	f := Attach(NewDescriptor(4096))
	if _, ok := f.HeadLen(); ok {
		t.Fatal("HeadLen on an empty FIFO reported an entry")
	}
	for _, n := range []int{3000, 7} {
		if ok, err := f.PushAt(make([]byte, n), 42); !ok || err != nil {
			t.Fatalf("push %d: %v %v", n, ok, err)
		}
	}
	for _, want := range []int{3000, 7} {
		if n, ok := f.HeadLen(); !ok || n != want {
			t.Fatalf("HeadLen = %d, %v; want %d", n, ok, want)
		}
		if n, ok := f.HeadLen(); !ok || n != want {
			t.Fatalf("second HeadLen = %d, %v; want %d (peek consumed)", n, ok, want)
		}
		p, ok := f.Pop()
		if !ok || len(p) != want {
			t.Fatalf("Pop = %d bytes, %v; want %d", len(p), ok, want)
		}
	}
}
