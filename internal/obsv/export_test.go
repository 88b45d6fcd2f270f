package obsv

// MarkEnded force-ends a campaign that does not run under the
// supervisor (e.g. a plain unsupervised sweep's reference phase).
func (c *Campaign) MarkEnded(complete bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ended = true
	c.complete = complete
}

// Dropped returns the total records shed across all subscribers.
func (b *EventBus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.droppedTotal.Load()
}

// Published returns records offered while at least one subscriber
// existed (a Publish with no subscribers does not count).
func (b *EventBus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}
