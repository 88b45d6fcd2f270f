package kernel

// LiveAllocations returns the number of live allocation handles.
func (k *Kernel) LiveAllocations() int { return k.live.len() }

// Shedding reports whether the admission gate is currently refusing
// new movable allocations.
func (k *Kernel) Shedding() bool { return k.gate.Shedding() }

// RunTicks advances n idle ticks (no workload activity).
func (k *Kernel) RunTicks(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.EndTick()
	}
}
