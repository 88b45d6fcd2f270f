package tlb

// Cached reports whether any level holds a translation covering vpn.
func (pc *PerCore) Cached(vpn uint64) bool {
	probe := func(t *TLB, key uint64) bool {
		set := t.sets[key&t.mask]
		for i := range set {
			if set[i].valid && set[i].vpn == key {
				return true
			}
		}
		return false
	}
	return probe(pc.L1, vpn) || probe(pc.L1Huge, vpn>>9) ||
		probe(pc.L2, vpn) || probe(pc.L2, hugeTag|vpn>>9)
}
