package main

import (
	"repro/internal/costmodel"
	"repro/internal/metrics"
)

// phaseTrace is one traced phase's spans and their aggregate.
type phaseTrace struct {
	Phase   string              `json:"phase"`
	Summary map[string]spanStat `json:"summary"`
	Spans   []span              `json:"spans"`
}

func collectTraces(w window) []phaseTrace {
	var out []phaseTrace
	for i, tr := range w.tracers {
		spans := tr.all()
		out = append(out, phaseTrace{w.phases[i].name, aggregate(spans), spans})
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// flat names the running totals inSitu takes deltas of: both modules'
// counters summed, the machine's mechanism counts, and what those
// mechanisms were charged under the calibrated model.
func (c *counters) flat() map[string]float64 {
	cal, h := costmodel.Calibrated(), c.hv
	f := map[string]float64{
		"chan": float64(c.xa.PktsChannel + c.xb.PktsChannel), "std": float64(c.xa.PktsStandard + c.xb.PktsStandard),
		"waiting": float64(c.xa.PktsWaiting + c.xb.PktsWaiting), "tooLarge": float64(c.xa.PktsTooLarge + c.xb.PktsTooLarge),
		"jumbo": float64(c.xa.PktsJumbo + c.xb.PktsJumbo), "chanBytes": float64(c.xa.BytesChannel + c.xb.BytesChannel),
		"opened":     float64(c.xa.ChannelsOpened + c.xb.ChannelsOpened),
		"hypercalls": float64(h.Hypercalls), "events": float64(h.Events), "switches": float64(h.DomainSwitches),
		"grantMaps": float64(h.GrantMaps), "grantCopies": float64(h.GrantCopies), "copied": float64(h.BytesCopied),
		"bridged": float64(h.FramesBridged),
		"chargedNs": float64(h.Hypercalls)*float64(cal.Hypercall) + float64(h.DomainSwitches)*float64(cal.DomainSwitch) +
			float64(h.Events)*float64(cal.EventDispatch) + float64(h.GrantMaps)*float64(cal.GrantMap+cal.GrantUnmap) +
			float64(h.GrantCopies)*float64(cal.GrantCopyFixed) + float64(h.BytesCopied)*cal.GrantCopyPerByteNS,
		"retransSegs": float64(c.retransSegs), "retransBytes": float64(c.retransBytes),
		"udpRecv": float64(c.udpRecv), "udpDrop": float64(c.udpDrop),
		"gets": float64(c.gets), "oversize": float64(c.over),
		"mallocs": float64(c.mem.Mallocs), "allocBytes": float64(c.mem.TotalAlloc),
		"gcs": float64(c.mem.NumGC), "gcPauseNs": float64(c.mem.PauseTotalNs),
	}
	// The stage histograms' log2 quantiles are too coarse to be metrics;
	// their sums and counts give exact means.
	for name, h := range map[string][2]metrics.HistogramSnapshot{
		"hookToPush": {c.xa.HookToPush, c.xb.HookToPush}, "residency": {c.xa.FIFOResidency, c.xb.FIFOResidency},
		"deliver": {c.xa.DrainToDeliver, c.xb.DrainToDeliver}, "batch": {c.xa.DrainBatch, c.xb.DrainBatch},
		"bootstrap": {c.xa.Bootstrap, c.xb.Bootstrap}, "quiesce": {c.xa.TeardownQuiesce, c.xb.TeardownQuiesce},
	} {
		f[name+"Sum"], f[name+"N"] = float64(h[0].Sum+h[1].Sum), float64(h[0].Count+h[1].Count)
	}
	return f
}

// inSitu turns a traced window into the per-layer metrics that are read
// where the work happens: span means, counter deltas per op, shares. As
// with the end-to-end figures, a per-op value of a workload with several
// phases is the sum over its phases (one op of each).
func inSitu(w window, traces []phaseTrace, overhead float64, leaked int, outstanding int64) map[string]float64 {
	edges := make([]map[string]float64, len(w.edges))
	for i := range w.edges {
		edges[i] = w.edges[i].flat()
	}
	last := len(edges) - 1
	delta := func(key string) float64 { return edges[last][key] - edges[0][key] }
	perOp := func(key string) float64 {
		var sum float64
		for i, p := range w.phases {
			sum += ratio(edges[i+1][key]-edges[i][key], float64(p.ops))
		}
		return sum
	}
	mean := func(hist string) float64 { return ratio(delta(hist+"Sum"), delta(hist+"N")) }

	// Phases and spans; what a workload has no phase or span for reads 0.
	m := map[string]float64{
		"phase.udp_rr_p50_us": 0, "phase.tcp_rr_p50_us": 0, "phase.stream_mbps": 0,
		"costmodel.virt_rtt_p50_us": 0, "costmodel.virt_rtt_mean_over_p50": 0,
		"trace.overhead_frac": overhead,
	}
	var payload int64
	for i, p := range w.phases {
		payload += p.bytes
		switch p.name {
		case "udp_rr", "tcp_rr":
			m["phase."+p.name+"_p50_us"] = float64(quantile(p.lat, 0.5)) / 1e3
		case "stream":
			m["phase.stream_mbps"] = float64(p.bytes) * 8 / 1e6 / p.elapsed.Seconds()
		}
		for _, name := range []string{"txn", "client_send", "fwd_deliver", "server_turn", "server_send", "rev_deliver",
			"write_call", "read_wait", "dial", "exchange", "close"} {
			m["span."+name+"_us"] += traces[i].Summary[name].MeanNs / 1e3
		}
		m["span.suspend_resume_ms"] += traces[i].Summary["suspend_resume"].MeanNs / 1e6
		m["span.fallback_ms"] += traces[i].Summary["fallback"].MeanNs / 1e6
		m["span.fallback_txns"] += ratio(float64(w.tracers[i].fallbackTxns), float64(p.ops))
		if len(p.simLat) > 0 {
			var sum int64
			for _, v := range p.simLat {
				sum += v
			}
			p50 := float64(quantile(p.simLat, 0.5))
			m["costmodel.virt_rtt_p50_us"] = p50 / 1e3
			m["costmodel.virt_rtt_mean_over_p50"] = ratio(float64(sum)/float64(len(p.simLat)), p50)
		}
	}

	m["core.hook_to_push_ns_mean"] = mean("hookToPush")
	m["core.fifo_residency_ns_mean"] = mean("residency")
	m["core.drain_to_deliver_ns_mean"] = mean("deliver")
	m["core.drain_batch_pkts_mean"] = mean("batch")
	m["core.bootstrap_ms_mean"] = mean("bootstrap") / 1e6
	m["core.teardown_quiesce_ms_mean"] = mean("quiesce") / 1e6
	m["core.channel_share"] = ratio(delta("chan"), delta("chan")+delta("std"))
	m["core.waiting_share"] = ratio(delta("waiting"), delta("chan"))
	m["core.too_large_share"] = ratio(delta("tooLarge"), delta("chan"))
	m["core.jumbo_share"] = ratio(delta("jumbo"), delta("chan"))
	m["core.bytes_per_channel_pkt"] = ratio(delta("chanBytes"), delta("chan"))
	m["core.pkts_per_op"] = perOp("chan")
	m["core.channels_opened"] = delta("opened")

	m["hypervisor.hypercalls_per_op"] = perOp("hypercalls")
	m["hypervisor.events_per_op"] = perOp("events")
	m["hypervisor.domain_switches_per_op"] = perOp("switches")
	m["hypervisor.grant_maps_per_op"] = perOp("grantMaps")
	m["hypervisor.grant_copies_per_op"] = perOp("grantCopies")
	m["hypervisor.charged_us_per_op"] = perOp("chargedNs") / 1e3
	m["hypervisor.copied_bytes_per_payload_byte"] = ratio(delta("copied"), float64(payload))
	m["hypervisor.leaked_resources"] = float64(leaked)
	m["bridge.frames_per_op"] = perOp("bridged")

	m["netstack.tcp_retrans_segs"] = delta("retransSegs")
	m["netstack.tcp_retrans_bytes"] = delta("retransBytes")
	m["netstack.tcp_conns_retained"] = float64(w.edges[last].tcpRetained)
	m["netstack.udp_sock_drop_share"] = ratio(delta("udpDrop"), delta("udpRecv")+delta("udpDrop"))
	m["buf.gets_per_op"] = perOp("gets")
	m["buf.oversize_share"] = ratio(delta("oversize"), delta("gets"))
	m["buf.outstanding_after"] = float64(outstanding)
	m["go.allocs_per_op"] = perOp("mallocs")
	m["go.alloc_bytes_per_op"] = perOp("allocBytes")
	m["go.gc_cycles"] = delta("gcs")
	m["go.gc_pause_ms"] = delta("gcPauseNs") / 1e6
	m["go.peak_rss_mb"] = peakRSSMB()
	m["go.goroutines_peak"] = float64(w.goroutinesPeak)
	return m
}
