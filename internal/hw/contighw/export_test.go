package contighw

// Ptr returns the number of lines copied (the paper's Ptr counter).
func (e *Entry) Ptr() int {
	n := 0
	for _, w := range e.copied {
		for b := w; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}

// TableOccupancy returns the number of active entries.
func (e *Engine) TableOccupancy() int { return len(e.entries) }
