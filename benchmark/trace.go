package main

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"
)

// epoch anchors nowNs; only differences of nowNs values are used.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// span is one timed interval recorded by a benchmark goroutine around
// calls into the system: fixed size, appended to the recording
// goroutine's own slice, aggregated after the window.
type span struct {
	Name, Parent spanName
	Txn          int32
	Start, End   int64 // nowNs
}

// spanName indexes spanNames; noSpan is the parent of a root span.
type spanName uint8

const (
	noSpan spanName = iota
	spTxn
	spClientSend
	spFwdDeliver
	spServerTurn
	spServerSend
	spRevDeliver
	spWriteCall
	spReadWait
	spConn
	spDial
	spExchange
	spClose
	spCycle
	spSuspendResume
	spFallback
)

var spanNames = [...]string{"", "txn", "client_send", "fwd_deliver", "server_turn", "server_send", "rev_deliver",
	"write_call", "read_wait", "conn", "dial", "exchange", "close", "cycle", "suspend_resume", "fallback"}

func (n spanName) String() string { return spanNames[n] }

func (s span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Txn    int32  `json:"txn"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}{s.Name.String(), s.Parent.String(), s.Txn, s.Start, s.End})
}

// tracer holds the spans of one traced window. The load goroutine owns
// client; the echo/receiver goroutine appends to server under mu, because
// its last span may still be in flight when the window closes. Every
// method is a no-op on a nil tracer, which is what the untraced pass uses.
type tracer struct {
	client []span

	mu        sync.Mutex
	server    []span
	serverTxn int

	fallbackTxns int // chan_flap: transactions served while the channel was down
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return nowNs()
}

func (t *tracer) add(name, parent spanName, txn int, start, end int64) {
	if t != nil {
		t.client = append(t.client, span{name, parent, int32(txn), start, end})
	}
}

// serverSpans records what the peer goroutine did for its next
// transaction: the named intervals laid end to end from bounds[0].
func (t *tracer) serverSpans(parent spanName, names []spanName, bounds ...int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i, n := range names {
		t.server = append(t.server, span{n, parent, int32(t.serverTxn), bounds[i], bounds[i+1]})
	}
	t.serverTxn++
	t.mu.Unlock()
}

// all returns every span, with the two delivery spans of each
// request/response transaction filled in: they are the gaps between the
// client's and the server's own spans, which makes the five children of
// a txn span contiguous, so they sum to it exactly.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append(append([]span(nil), t.client...), t.server...)
	type ends struct{ sendEnd, txnEnd, turnStart, srvSendEnd int64 }
	byTxn := map[int32]*ends{}
	at := func(txn int32) *ends {
		if byTxn[txn] == nil {
			byTxn[txn] = &ends{}
		}
		return byTxn[txn]
	}
	for _, s := range out {
		switch s.Name {
		case spClientSend:
			at(s.Txn).sendEnd = s.End
		case spTxn:
			at(s.Txn).txnEnd = s.End
		case spServerTurn:
			at(s.Txn).turnStart = s.Start
		case spServerSend:
			at(s.Txn).srvSendEnd = s.End
		}
	}
	for txn, e := range byTxn {
		if e.sendEnd == 0 || e.txnEnd == 0 || e.turnStart == 0 || e.srvSendEnd == 0 {
			continue // a failed transaction, or the server's last record still in flight
		}
		out = append(out,
			span{spFwdDeliver, spTxn, txn, e.sendEnd, e.turnStart},
			span{spRevDeliver, spTxn, txn, e.srvSendEnd, e.txnEnd})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Txn < out[j].Txn })
	return out
}

// spanStat aggregates one span name over a window.
type spanStat struct {
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	SelfNs float64 `json:"self_mean_ns"` // duration not covered by child spans
}

func aggregate(spans []span) map[string]spanStat {
	durs := map[spanName][]int64{}
	child := map[spanName]int64{} // parent -> total child time
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.End-s.Start)
		if s.Parent != noSpan {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanStat{}
	for name, d := range durs {
		var sum int64
		for _, v := range d {
			sum += v
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		n := float64(len(d))
		out[name.String()] = spanStat{len(d), float64(sum) / n, quantile(d, 0.5), float64(sum-child[name]) / n}
	}
	return out
}

// quantile returns the exact q-quantile (nearest rank) of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
