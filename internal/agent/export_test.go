package agent

// Epoch returns the current session epoch (1 on the first connection,
// +1 per reconnect).
func (a *NodeAgent) Epoch() uint64 { return a.currentEpoch() }

// Reconnects returns how many times the agent has reconnected.
func (a *NodeAgent) Reconnects() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnects
}

// Connected reports whether the agent currently holds a live,
// registered connection.
func (a *NodeAgent) Connected() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.conn != nil && a.failed == nil && !a.closed
}
