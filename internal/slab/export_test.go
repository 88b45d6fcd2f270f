package slab

// Utilization is live objects over capacity across held pages — the
// packing efficiency whose complement is the internal fragmentation
// that keeps nearly-empty pages pinned.
func (c *Cache) Utilization() float64 {
	if c.PagesHeld == 0 {
		return 0
	}
	return float64(c.Objects) / float64(c.PagesHeld*c.perPage)
}

// Objects sums live objects across classes.
func (m *Manager) Objects() int {
	n := 0
	for _, c := range m.caches {
		n += c.Objects
	}
	return n
}
