package engine

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.q) }
