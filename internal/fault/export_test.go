package fault

// Hits returns how many times the point was crossed while armed
// (including any disarmed accounting).
func (in *Injector) Hits(name string) uint64 {
	if in == nil {
		return 0
	}
	n := in.retired[name].Hits
	if p, ok := in.points[name]; ok {
		n += p.hits
	}
	return n
}
