package splitdriver

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bridge"
	"repro/internal/hypervisor"
	"repro/internal/netstack"
	"repro/internal/pkt"
)

// testHost is one machine with a bridge and two para-virtualized guests
// whose stacks talk through the netfront/netback path.
type testHost struct {
	hv     *hypervisor.Hypervisor
	br     *bridge.Bridge
	g1, g2 *hypervisor.Domain
	s1, s2 *netstack.Stack
	n1, n2 *Netfront
}

func newTestHost(t *testing.T) *testHost {
	t.Helper()
	hv := hypervisor.New(hypervisor.Config{Machine: "host"})
	br := bridge.New(hv.Model(), hv.Counters())

	h := &testHost{hv: hv, br: br}
	h.g1 = hv.CreateDomain("guest1", 0)
	h.g2 = hv.CreateDomain("guest2", 0)

	var err error
	h.n1, err = Connect(h.g1, br, pkt.XenMAC(0, byte(h.g1.ID()), 0))
	if err != nil {
		t.Fatal(err)
	}
	h.n2, err = Connect(h.g2, br, pkt.XenMAC(0, byte(h.g2.ID()), 0))
	if err != nil {
		t.Fatal(err)
	}
	h.s1 = netstack.New("guest1", hv.Model())
	h.s2 = netstack.New("guest2", hv.Model())
	h.s1.AddIface(h.n1, pkt.IP(10, 0, 0, 1), 24)
	h.s2.AddIface(h.n2, pkt.IP(10, 0, 0, 2), 24)
	t.Cleanup(func() {
		h.s1.Close()
		h.s2.Close()
		h.n1.Shutdown()
		h.n2.Shutdown()
	})
	return h
}

func TestXenStoreHandshakePublished(t *testing.T) {
	h := newTestHost(t)
	base := h.g1.StorePath() + "/device/vif/0"
	for _, key := range []string{"ring-ref", "event-channel-tx", "event-channel-rx", "mac"} {
		if _, err := h.hv.Store().Read(0, base+"/"+key); err != nil {
			t.Fatalf("xenstore %s: %v", key, err)
		}
	}
	if v, _ := h.hv.Store().Read(0, base+"/backend-state"); v != "connected" {
		t.Fatalf("backend-state %q", v)
	}
}

func TestPingAcrossSplitDriver(t *testing.T) {
	h := newTestHost(t)
	rtt, err := h.s1.Ping(pkt.IP(10, 0, 0, 2), 56, 2*time.Second)
	if err != nil {
		t.Fatalf("ping guest2: %v", err)
	}
	if rtt <= 0 {
		t.Fatal("non-positive rtt")
	}
}

func TestUDPAcrossSplitDriver(t *testing.T) {
	h := newTestHost(t)
	srv, err := h.s2.ListenUDP(5000)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := h.s1.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("via netfront and netback")
	if _, err := cli.WriteTo(msg, netstack.Addr{IP: pkt.IP(10, 0, 0, 2), Port: 5000}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	_ = srv.SetReadDeadline(h.s2.Model().Now().Add(2 * time.Second))
	n, src, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) || src.IP != pkt.IP(10, 0, 0, 1) {
		t.Fatalf("got %q from %s", buf[:n], src)
	}
}

func TestUDPFragmentationAcrossSplitDriver(t *testing.T) {
	h := newTestHost(t)
	srv, _ := h.s2.ListenUDP(5001)
	cli, _ := h.s1.ListenUDP(0)
	msg := make([]byte, 20000) // > vif MTU 1500: fragments cross the rings
	rand.New(rand.NewSource(3)).Read(msg)
	if _, err := cli.WriteTo(msg, netstack.Addr{IP: pkt.IP(10, 0, 0, 2), Port: 5001}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32000)
	_ = srv.SetReadDeadline(h.s2.Model().Now().Add(3 * time.Second))
	n, _, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], msg) {
		t.Fatal("fragmented datagram corrupted across split driver")
	}
}

func TestTCPBulkAcrossSplitDriver(t *testing.T) {
	h := newTestHost(t)
	ln, err := h.s2.ListenTCP(netstack.Addr{Port: 6000})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2 << 20
	src := make([]byte, total)
	rand.New(rand.NewSource(9)).Read(src)
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		var all []byte
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			all = append(all, buf[:n]...)
			if err != nil {
				break
			}
		}
		got <- all
	}()

	conn, err := h.s1.DialTCP(netstack.Addr{IP: pkt.IP(10, 0, 0, 2), Port: 6000})
	if err != nil {
		t.Fatal(err)
	}
	// TSO: the negotiated MSS must reflect the virtual device's GSO size.
	if conn.MSS() <= 1460 {
		t.Fatalf("MSS %d: TSO not negotiated on virtual path", conn.MSS())
	}
	if _, err := conn.Write(src); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case all := <-got:
		if !bytes.Equal(all, src) {
			t.Fatalf("bulk corrupted: %d bytes vs %d", len(all), len(src))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer timed out")
	}
}

func TestGrantAndEventMechanismsExercised(t *testing.T) {
	h := newTestHost(t)
	before := h.hv.Counters().Snapshot()
	if _, err := h.s1.Ping(pkt.IP(10, 0, 0, 2), 56, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	diff := h.hv.Counters().Snapshot().Sub(before)
	// One ping round trip must cross the bridge twice and use grant
	// copies in both netbacks (tx + rx on each direction = 4).
	if diff.FramesBridged < 2 {
		t.Fatalf("bridge not traversed: %+v", diff)
	}
	if diff.GrantCopies < 4 {
		t.Fatalf("grant copies not used: %+v", diff)
	}
	if diff.Hypercalls == 0 || diff.Events == 0 {
		t.Fatalf("hypercalls/events not charged: %+v", diff)
	}
}

func TestDisconnectStopsTraffic(t *testing.T) {
	h := newTestHost(t)
	h.n2.Disconnect()
	if _, err := h.s1.Ping(pkt.IP(10, 0, 0, 2), 56, 300*time.Millisecond); err == nil {
		t.Fatal("ping succeeded to disconnected guest")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	h := newTestHost(t)
	if err := h.n1.Transmit(make([]byte, 40000)); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestManySmallPacketsNoLeakage(t *testing.T) {
	h := newTestHost(t)
	srv, _ := h.s2.ListenUDP(5002)
	cli, _ := h.s1.ListenUDP(0)
	// Prime the neighbor cache; a cold burst would overflow the ARP
	// pending queue, which is correct UDP behavior but not under test.
	model := h.s2.Model()
	buf := make([]byte, 64)
	_, _ = cli.WriteTo([]byte{0xff}, netstack.Addr{IP: pkt.IP(10, 0, 0, 2), Port: 5002})
	_ = srv.SetReadDeadline(model.Now().Add(2 * time.Second))
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}
	const n = 2000 // several times the ring size
	done := make(chan int, 1)
	go func() {
		received := 0
		for received < n {
			_ = srv.SetReadDeadline(model.Now().Add(2 * time.Second))
			if _, _, err := srv.ReadFrom(buf); err != nil {
				break
			}
			received++
		}
		done <- received
	}()
	for i := 0; i < n; i++ {
		_, _ = cli.WriteTo([]byte{byte(i), byte(i >> 8)}, netstack.Addr{IP: pkt.IP(10, 0, 0, 2), Port: 5002})
		if i%32 == 0 {
			time.Sleep(time.Millisecond) // pace below the reader's drain rate
		}
	}
	received := <-done
	// UDP may legitimately drop under queue overflow; require high (not
	// perfect) delivery across many ring cycles.
	if received < n*9/10 {
		t.Fatalf("delivered only %d/%d datagrams", received, n)
	}
}

// TestTxNotifyDuringBackendConnect reattaches a vif while the guest keeps
// a frame on the tx ring and notifies the tx port without pause, so the
// first processTx upcall lands while connectBackend is still running —
// the reattach sequence every suspend/resume and migration drives. The
// backend must be on the bridge before that upcall can run: otherwise
// processTx forwards through a nil port (a panic), and under -race the
// unordered write and read of the port is reported.
func TestTxNotifyDuringBackendConnect(t *testing.T) {
	hv := hypervisor.New(hypervisor.Config{Machine: "host"})
	br := bridge.New(hv.Model(), hv.Counters())
	g := hv.CreateDomain("guest", 0)
	nf, err := Connect(g, br, pkt.XenMAC(0, byte(g.ID()), 0))
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Shutdown()
	frame := pkt.BuildFrame(pkt.BroadcastMAC, nf.MAC(), pkt.EtherTypeIPv4, make([]byte, 64))
	for i := 0; i < 20; i++ {
		nf.Disconnect()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			queued := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !queued {
					// Fails with ErrDetached until attach reopens the vif.
					queued = nf.Transmit(frame) == nil
				}
				nf.mu.Lock()
				port := nf.txPort
				nf.mu.Unlock()
				_ = g.NotifyPort(port) // errors until the backend binds
			}
		}()
		err := nf.Reattach(br)
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("reattach %d: %v", i, err)
		}
	}
}
