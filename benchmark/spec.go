package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// smoke_test.go checks that the file and these tables agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"chan_rr", "channel, back-to-back 1-byte UDP then TCP request/response: consumer stays polling, so netstack tx/rx and core pacing set the RTT"},
	{"chan_rr_sparse", "channel, same UDP RR with 300us think time: every packet finds a parked consumer, so evtchn notify and the core wake path do the work"},
	{"chan_stream", "channel, one TCP connection of 16 KiB writes verified at the receiver: TCP segmentation, window, coalescing and fifo bulk copy dominate"},
	{"chan_pps", "channel, 64-byte sequence-numbered UDP datagrams under an in-flight window of 64: per-packet cost with bytes irrelevant, loss is a failure"},
	{"conn_churn", "channel, dial, echo 64-4096 bytes, close, repeat: uses netstack TCP as a state machine (handshake, FIN, linger, tables), not as a pipe"},
	{"chan_flap", "channel, UDP RR while a seed-chosen guest is suspended and resumed every 40-120 txns: control plane re-engagement and netfront fallback"},
	{"nf_base", "netfront/netback, UDP RR, TCP RR and TCP stream phases: the denominator of every headline ratio; a channel-only change must read no change"},
	{"virt_rr", "channel on the virtual clock, UDP RR: the discrete-event engine is the layer; host time per simulated transaction"},
}

// Every workload reports every end-to-end metric. An op is the workload's
// unit of work (README.md, "Workloads"); a workload with several phases
// reports the cost of one op of each phase (sums of the phase figures).
var endToEnd = []metricDef{
	{"op_p50_us", "us", "lower", 0.12},
	{"op_tail_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_op", "us", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	// Isolated probes, costmodel.Off(), calls timed from outside.
	{"fifo.cycle_ns_per_pkt_64", "ns", "lower", 0},
	{"fifo.cycle_ns_per_pkt_1500", "ns", "lower", 0},
	{"fifo.cycle_ns_per_pkt_64k", "ns", "lower", 0},
	{"fifo.single_push_pop_ns_64", "ns", "lower", 0},
	{"fifo.allocs_per_pkt", "count", "lower", 0},
	{"buf.get_release_ns_64", "ns", "lower", 0},
	{"buf.get_release_ns_64k", "ns", "lower", 0},
	{"buf.allocs_per_get", "count", "lower", 0},
	{"pkt.udp_build_parse_ns_64", "ns", "lower", 0},
	{"pkt.tcp_build_parse_ns_1448", "ns", "lower", 0},
	{"pkt.checksum_ns_per_kib", "ns", "lower", 0},
	{"pkt.segment_tcp_ns_per_64k", "ns", "lower", 0},
	{"netstack.udp_tx_ns_64", "ns", "lower", 0},
	{"netstack.udp_rx_ns_64", "ns", "lower", 0},
	{"netstack.udp_loop_rtt_ns", "ns", "lower", 0},
	{"netstack.tcp_loop_rtt_ns", "ns", "lower", 0},
	{"netstack.tcp_loop_mbps", "Mbit/s", "higher", 0},
	{"netstack.tcp_connect_close_ns", "ns", "lower", 0},
	{"netstack.allocs_per_udp_pkt", "count", "lower", 0},
	{"ring.push_pop_ns", "ns", "lower", 0},
	{"bridge.forward_ns_per_frame", "ns", "lower", 0},
	{"hypervisor.notify_to_handler_ns", "ns", "lower", 0},
	{"hypervisor.grant_map_unmap_ns", "ns", "lower", 0},
	{"hypervisor.grant_copy_ns_per_kib", "ns", "lower", 0},
	{"xenstore.write_ns", "ns", "lower", 0},
	{"xenstore.read_ns", "ns", "lower", 0},
	{"xenstore.watch_fire_ns", "ns", "lower", 0},
	{"costmodel.spin_overshoot_ns_1us", "ns", "lower", 0},
	{"costmodel.spin_overshoot_ns_18us", "ns", "lower", 0},
	{"costmodel.virt_sleep_events_per_s", "1/s", "higher", 0},
	{"costmodel.virt_charge_ns", "ns", "lower", 0},
	{"metrics.hist_observe_ns", "ns", "lower", 0},
	{"core.chan_udp_rtt_off_us", "us", "lower", 0},
	{"splitdriver.nf_udp_rtt_off_us", "us", "lower", 0},

	// In situ: deltas across the traced window, and the benchmark's own
	// spans. A span or counter the workload never touches reads 0.
	{"phase.udp_rr_p50_us", "us", "lower", 0},
	{"phase.tcp_rr_p50_us", "us", "lower", 0},
	{"phase.stream_mbps", "Mbit/s", "higher", 0},
	{"span.txn_us", "us", "lower", 0},
	{"span.client_send_us", "us", "lower", 0},
	{"span.fwd_deliver_us", "us", "lower", 0},
	{"span.server_turn_us", "us", "lower", 0},
	{"span.server_send_us", "us", "lower", 0},
	{"span.rev_deliver_us", "us", "lower", 0},
	{"span.write_call_us", "us", "lower", 0},
	{"span.read_wait_us", "us", "lower", 0},
	{"span.dial_us", "us", "lower", 0},
	{"span.exchange_us", "us", "lower", 0},
	{"span.close_us", "us", "lower", 0},
	{"span.suspend_resume_ms", "ms", "lower", 0},
	{"span.fallback_ms", "ms", "lower", 0},
	{"span.fallback_txns", "count", "lower", 0},
	{"core.hook_to_push_ns_mean", "ns", "lower", 0},
	{"core.fifo_residency_ns_mean", "ns", "lower", 0},
	{"core.drain_to_deliver_ns_mean", "ns", "lower", 0},
	{"core.drain_batch_pkts_mean", "count", "higher", 0},
	{"core.channel_share", "ratio", "higher", 0},
	{"core.waiting_share", "ratio", "lower", 0},
	{"core.too_large_share", "ratio", "lower", 0},
	{"core.jumbo_share", "ratio", "higher", 0},
	{"core.bytes_per_channel_pkt", "B", "higher", 0},
	{"core.pkts_per_op", "count", "lower", 0},
	{"core.bootstrap_ms_mean", "ms", "lower", 0},
	{"core.teardown_quiesce_ms_mean", "ms", "lower", 0},
	{"core.channels_opened", "count", "lower", 0},
	{"hypervisor.hypercalls_per_op", "count", "lower", 0},
	{"hypervisor.events_per_op", "count", "lower", 0},
	{"hypervisor.domain_switches_per_op", "count", "lower", 0},
	{"hypervisor.grant_maps_per_op", "count", "lower", 0},
	{"hypervisor.grant_copies_per_op", "count", "lower", 0},
	{"hypervisor.copied_bytes_per_payload_byte", "ratio", "lower", 0},
	{"hypervisor.charged_us_per_op", "us", "lower", 0},
	{"hypervisor.leaked_resources", "count", "lower", 0},
	{"bridge.frames_per_op", "count", "lower", 0},
	{"netstack.tcp_retrans_segs", "count", "lower", 0},
	{"netstack.tcp_retrans_bytes", "B", "lower", 0},
	{"netstack.tcp_conns_retained", "count", "lower", 0},
	{"netstack.udp_sock_drop_share", "ratio", "lower", 0},
	{"buf.gets_per_op", "count", "lower", 0},
	{"buf.oversize_share", "ratio", "lower", 0},
	{"buf.outstanding_after", "count", "lower", 0},
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.alloc_bytes_per_op", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"go.goroutines_peak", "count", "lower", 0},
	{"costmodel.virt_rtt_p50_us", "us", "lower", 0},
	{"costmodel.virt_rtt_mean_over_p50", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}
