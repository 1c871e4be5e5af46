package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bridge"
	"repro/internal/buf"
	"repro/internal/costmodel"
	"repro/internal/fifo"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/netstack"
	"repro/internal/pkt"
	"repro/internal/ring"
	"repro/internal/testbed"
	"repro/internal/xenstore"
)

// sink keeps the compiler from discarding a probe's work.
var sink int

// timeOps calls fn, which performs batch ops, until budget has passed,
// and returns the mean ns and heap allocations per op.
func timeOps(budget time.Duration, batch int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, n := nowNs(), 0
	for nowNs()-t0 < int64(budget) {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16 * batch
	}
	elapsed := nowNs() - t0
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// nullDev is a network device that drops what it is given; the probes
// that use it steal or inject every packet before a device is reached.
type nullDev struct{}

func (nullDev) Name() string              { return "null0" }
func (nullDev) MAC() pkt.MAC              { return pkt.XenMAC(9, 9, 0) }
func (nullDev) MTU() int                  { return 1500 }
func (nullDev) GSOMaxSize() int           { return 0 }
func (nullDev) Transmit([]byte) error     { return nil }
func (nullDev) Attach(func(frame []byte)) {}

const probeCount = 34

// runProbes times each layer's public entry points in isolation, under
// costmodel.Off(), from outside: ns per op from a count over an elapsed
// time, allocations per op from MemStats around the same loop. The budget
// is split evenly over the probes. A probe that cannot be set up reads 0.
func runProbes(seconds float64) map[string]float64 {
	each := time.Duration(seconds / probeCount * float64(time.Second))
	m := map[string]float64{}
	src, dst := pkt.IP(10, 9, 0, 1), pkt.IP(10, 9, 0, 2)

	// fifo: batched and single-packet cycles. 32 packets of each size fit
	// the ring they are pushed into.
	for _, c := range []struct {
		name      string
		pkt, ring int
	}{{"64", 64, 64 << 10}, {"1500", 1500, 64 << 10}, {"64k", 65535, 4 << 20}} {
		d := fifo.NewDescriptor(c.ring)
		prod, cons := fifo.Attach(d), fifo.Attach(d)
		batch := make([][]byte, 32)
		for i := range batch {
			batch[i] = make([]byte, c.pkt)
		}
		m["fifo.cycle_ns_per_pkt_"+c.name], _ = timeOps(each, len(batch), func() {
			n, _ := prod.PushBatch(batch)
			sink += n - cons.DrainInto(func(v []byte) bool { sink += len(v); return true })
		})
	}
	{
		d := fifo.NewDescriptor(fifo.DefaultSizeBytes)
		prod, cons := fifo.Attach(d), fifo.Attach(d)
		p := make([]byte, 64)
		m["fifo.single_push_pop_ns_64"], m["fifo.allocs_per_pkt"] = timeOps(each, 1, func() {
			_, _ = prod.Push(p)
			out, _ := cons.Pop()
			sink += len(out)
		})
	}

	// buf
	m["buf.get_release_ns_64"], m["buf.allocs_per_get"] = timeOps(each, 1, func() { buf.Get(64).Release() })
	m["buf.get_release_ns_64k"], _ = timeOps(each, 1, func() { buf.Get(64 << 10).Release() })

	// pkt
	p64, p1448, p16k := make([]byte, 64), make([]byte, 1448), make([]byte, 16<<10)
	m["pkt.udp_build_parse_ns_64"], _ = timeOps(each, 1, func() {
		seg := pkt.BuildUDP(src, dst, &pkt.UDPHeader{SrcPort: 1, DstPort: 2}, p64)
		_, body, _ := pkt.ParseUDP(src, dst, seg)
		sink += len(body)
	})
	m["pkt.tcp_build_parse_ns_1448"], _ = timeOps(each, 1, func() {
		seg := pkt.BuildTCP(src, dst, &pkt.TCPHeader{SrcPort: 1, DstPort: 2, Flags: pkt.TCPAck, Window: 1000}, p1448)
		_, body, _ := pkt.ParseTCP(src, dst, seg)
		sink += len(body)
	})
	m["pkt.checksum_ns_per_kib"], _ = timeOps(each, 16, func() { sink += int(pkt.Checksum(p16k)) })
	big := pkt.BuildTCP(src, dst, &pkt.TCPHeader{SrcPort: 1, DstPort: 2, Flags: pkt.TCPAck}, make([]byte, 64<<10-40))
	m["pkt.segment_tcp_ns_per_64k"], _ = timeOps(each, 1, func() {
		segs, _ := pkt.SegmentTCP(src, dst, big, 1480)
		sink += len(segs)
	})

	// netstack, one direction at a time: transmit down to a hook of the
	// benchmark's own that steals the packet, and receive from InjectIP up
	// to the socket.
	{
		st := netstack.New("probe", costmodel.Off())
		st.AddIface(nullDev{}, src, 24)
		st.RegisterOutHook(func(*netstack.OutPacket) netstack.Verdict { return netstack.VerdictStolen })
		if c, err := st.ListenUDP(5000); err == nil {
			to := netstack.Addr{IP: dst, Port: 5000}
			m["netstack.udp_tx_ns_64"], _ = timeOps(each, 1, func() { _, _ = c.WriteTo(p64, to) })
			in := pkt.BuildIPv4(&pkt.IPv4Header{TTL: 64, Proto: pkt.ProtoUDP, Src: dst, Dst: src},
				pkt.BuildUDP(dst, src, &pkt.UDPHeader{SrcPort: 5000, DstPort: 5000}, p64))
			got := make([]byte, 128)
			m["netstack.udp_rx_ns_64"], _ = timeOps(each, 1, func() {
				st.InjectIP(in)
				n, _, _ := c.ReadFrom(got)
				sink += n
			})
		}
		st.Close()
	}

	// netstack over its own loopback, and each path's code-only RTT: the
	// workloads' own loops on a zero-cost model.
	phaseOn := func(scenario testbed.Scenario, build func(*session) (phase, error), use func(phaseStats, float64)) {
		s, err := openSession("probe", 1, scenario, costmodel.Off())
		if err != nil {
			return
		}
		defer s.close()
		p, err := build(s)
		if err != nil {
			return
		}
		p.run(limit{n: 200}, nil)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st := p.run(limit{d: each}, nil)
		runtime.ReadMemStats(&m1)
		if st.failed == 0 && len(st.lat) > 0 {
			use(st, float64(m1.Mallocs-m0.Mallocs)/float64(st.ops))
		}
	}
	p50 := func(st phaseStats) float64 {
		slices.Sort(st.lat)
		return float64(quantile(st.lat, 0.5))
	}
	udp := func(s *session) (phase, error) { return s.udpRR(1, 0, 0, rrDeadline) }
	phaseOn(testbed.NativeLoopback, udp, func(st phaseStats, allocs float64) {
		m["netstack.udp_loop_rtt_ns"], m["netstack.allocs_per_udp_pkt"] = p50(st), allocs/2
	})
	phaseOn(testbed.NativeLoopback, func(s *session) (phase, error) { return s.tcpRR(1, 0) }, func(st phaseStats, _ float64) {
		m["netstack.tcp_loop_rtt_ns"] = p50(st)
	})
	phaseOn(testbed.NativeLoopback, func(s *session) (phase, error) { return s.stream(1, 0) }, func(st phaseStats, _ float64) {
		m["netstack.tcp_loop_mbps"] = float64(st.bytes) * 8 / 1e6 / st.elapsed.Seconds()
	})
	phaseOn(testbed.NativeLoopback, func(s *session) (phase, error) { return s.churn(1, 0) }, func(st phaseStats, _ float64) {
		m["netstack.tcp_connect_close_ns"] = p50(st)
	})
	phaseOn(testbed.XenLoop, udp, func(st phaseStats, _ float64) { m["core.chan_udp_rtt_off_us"] = p50(st) / 1e3 })
	phaseOn(testbed.NetfrontNetback, udp, func(st phaseStats, _ float64) { m["splitdriver.nf_udp_rtt_off_us"] = p50(st) / 1e3 })

	// ring and bridge
	r := ring.New(0)
	m["ring.push_pop_ns"], _ = timeOps(each, 1, func() {
		r.Push(ring.Desc{ID: 1, Len: 64})
		d, _ := r.Pop()
		sink += int(d.Len)
	})
	{
		br := bridge.New(nil, nil)
		macA, macB := pkt.XenMAC(1, 1, 0), pkt.XenMAC(1, 2, 0)
		pa := br.AddPort("a", func([]byte) {}, false)
		pb := br.AddPort("b", func(f []byte) { sink += len(f) }, false)
		ab := pkt.BuildFrame(macB, macA, pkt.EtherTypeIPv4, p64)
		pa.Input(ab)
		pb.Input(pkt.BuildFrame(macA, macB, pkt.EtherTypeIPv4, p64)) // both addresses learned
		m["bridge.forward_ns_per_frame"], _ = timeOps(each, 1, func() { pa.Input(ab) })
	}

	// hypervisor: event channel and grant table between two guests.
	{
		hv := hypervisor.New(hypervisor.Config{Machine: "probe"})
		d1, d2 := hv.CreateDomain("p1", 0), hv.CreateDomain("p2", 0)
		unbound, err := d1.AllocUnboundPort(d2.ID())
		if err == nil {
			var port hypervisor.Port
			if port, err = d2.BindInterdomain(d1.ID(), unbound); err == nil {
				entered := make(chan int64, 1)
				_ = d1.SetEventHandler(unbound, func() { entered <- nowNs() })
				var total, n int64
				for t0 := nowNs(); nowNs()-t0 < int64(each); n++ {
					sent := nowNs()
					_ = d2.NotifyPort(port)
					total += <-entered - sent
				}
				m["hypervisor.notify_to_handler_ns"] = float64(total) / float64(n)
			}
		}
		slot := ring.NewSlotBuffer()
		m["hypervisor.grant_map_unmap_ns"], _ = timeOps(each, 1, func() {
			ref := d1.GrantAccess(d2.ID(), slot)
			_, _ = d2.MapGrant(d1.ID(), ref)
			_ = d2.UnmapGrant(d1.ID(), ref)
			_ = d1.EndAccess(ref)
		})
		ref := d1.GrantAccess(d2.ID(), slot)
		m["hypervisor.grant_copy_ns_per_kib"], _ = timeOps(each, 16, func() {
			n, _ := d2.GrantCopyIn(d1.ID(), ref, p16k, 0)
			sink += n
		})
		_ = d1.EndAccess(ref)
		slot.Recycle()
	}

	// xenstore
	{
		store := xenstore.New()
		const path = "/local/domain/0/probe/key"
		m["xenstore.write_ns"], _ = timeOps(each, 1, func() { _ = store.Write(0, path, "v") })
		m["xenstore.read_ns"], _ = timeOps(each, 1, func() {
			v, _ := store.Read(0, path)
			sink += len(v)
		})
		if w, err := store.Watch(0, "/local/domain/0/probe"); err == nil {
			m["xenstore.watch_fire_ns"], _ = timeOps(each, 1, func() {
				_ = store.Write(0, path, "v")
				<-w.C
			})
			w.Cancel()
		}
	}

	// costmodel: how far a calibrated spin overshoots, and the virtual
	// clock's event rate and charge cost.
	for _, c := range []struct {
		name string
		d    time.Duration
	}{{"1us", time.Microsecond}, {"18us", 18 * time.Microsecond}} {
		ns, _ := timeOps(each, 1, func() { costmodel.SleepPrecise(c.d) })
		m["costmodel.spin_overshoot_ns_"+c.name] = ns - float64(c.d)
	}
	{
		vc := costmodel.NewVirtualClock()
		vm := costmodel.Off().WithVirtual(vc)
		var wg sync.WaitGroup
		var events [2]int
		t0 := nowNs()
		for g := range events {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for nowNs()-t0 < int64(each) {
					vm.Sleep(10 * time.Microsecond)
					events[g]++
				}
			}()
		}
		wg.Wait()
		m["costmodel.virt_sleep_events_per_s"] = float64(events[0]+events[1]) / (float64(nowNs()-t0) / 1e9)
		m["costmodel.virt_charge_ns"], _ = timeOps(each, 1, func() { vc.Charge(time.Microsecond) })
		vc.Close()
	}

	// metrics
	var h metrics.Histogram
	v := int64(1)
	m["metrics.hist_observe_ns"], _ = timeOps(each, 1, func() { h.Observe(v); v = (v*3 + 1) & 0xfffff })
	return m
}
