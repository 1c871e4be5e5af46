package core

import (
	"repro/internal/netstack"
	"repro/internal/pkt"
)

// BusyPollerOf returns the busy poller of m's channel to peer, nil when
// there is none.
func BusyPollerOf(m *Module, peer pkt.MAC) netstack.BusyPoller {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := m.channels[peer]
	if ch == nil {
		return nil
	}
	return busyPoller{ch}
}

// PollersActive reports how many socket reads are busy-polling m's
// channels right now.
func PollersActive(m *Module) int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int32
	for _, ch := range m.channels {
		n += ch.pollers.Load()
	}
	return n
}
