package cache

import "fmt"

// ReadLLC returns the line's current value at the LLC level (or memory)
// without coherence side effects.
func (h *Hierarchy) ReadLLC(line uint64) (uint64, uint64) {
	if e := h.llcLineEntry(line, false); e != nil {
		return e.data, h.P.L3Latency
	}
	return h.mem[line], h.P.L3Latency + 100
}

// CheckInclusion verifies that every valid private line has an LLC
// directory entry listing the core — the invariant coherence relies on.
func (h *Hierarchy) CheckInclusion() error {
	for c, pr := range h.priv {
		for _, set := range pr.l2Sets {
			for i := range set {
				if !set[i].valid {
					continue
				}
				e := h.llcLineEntry(set[i].line, false)
				if e == nil {
					return fmt.Errorf("core %d caches line %d absent from LLC", c, set[i].line)
				}
				if e.sharers&(1<<uint(c)) == 0 {
					return fmt.Errorf("core %d caches line %d without directory bit", c, set[i].line)
				}
			}
		}
	}
	return nil
}
