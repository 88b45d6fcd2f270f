// Package dram models main-memory timing at the level the cache
// simulator needs: per-bank row buffers with open-page policy and bank
// busy tracking, configured as the paper's DDR4-3200 with 16 banks.
// Latencies are expressed in CPU cycles (2 GHz core, Table 1).
package dram

// Config sets the timing parameters.
type Config struct {
	Banks int
	// RowBytes is the row-buffer size, determining row-hit locality.
	RowBytes uint64
	// RowHitCycles / RowMissCycles are access latencies in CPU cycles.
	RowHitCycles  uint64
	RowMissCycles uint64
	// BankBusyCycles is the bank occupancy per access (tRC-ish).
	BankBusyCycles uint64
}

// DefaultConfig approximates DDR4-3200 behind a 2 GHz core.
func DefaultConfig() Config {
	return Config{
		Banks:          16,
		RowBytes:       8192,
		RowHitCycles:   60,
		RowMissCycles:  110,
		BankBusyCycles: 24,
	}
}

// DRAM is the memory device model.
type DRAM struct {
	cfg       Config
	openRow   []uint64
	rowValid  []bool
	busyUntil []uint64

	Accesses uint64
	RowHits  uint64
}

// New builds a DRAM model.
func New(cfg Config) *DRAM {
	if cfg.Banks <= 0 {
		panic("dram: need at least one bank")
	}
	return &DRAM{
		cfg:       cfg,
		openRow:   make([]uint64, cfg.Banks),
		rowValid:  make([]bool, cfg.Banks),
		busyUntil: make([]uint64, cfg.Banks),
	}
}

// Access simulates one line access to physical address pa starting at
// cycle now; it returns the completion cycle. Bank interleaving is by
// line address; row hits are cheaper than row openings; a busy bank
// queues the request.
func (d *DRAM) Access(pa uint64, now uint64) uint64 {
	d.Accesses++
	line := pa >> 6
	bank := int(line % uint64(d.cfg.Banks))
	row := pa / d.cfg.RowBytes

	start := now
	if d.busyUntil[bank] > start {
		start = d.busyUntil[bank]
	}
	lat := d.cfg.RowMissCycles
	if d.rowValid[bank] && d.openRow[bank] == row {
		lat = d.cfg.RowHitCycles
		d.RowHits++
	}
	d.openRow[bank] = row
	d.rowValid[bank] = true
	done := start + lat
	d.busyUntil[bank] = start + d.cfg.BankBusyCycles
	return done
}
