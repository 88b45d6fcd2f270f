// Package contighw implements the Contiguitas hardware extensions of
// §3.3: a metadata table in the last-level cache holding migration
// mappings (source PPN, destination PPN, copy progress), a copy engine
// that walks a page line by line with BusRdX semantics and chained
// slice handoff, traffic redirection that serves every request from the
// correct location while the page remains in use, and the DSA-style
// work queue (Migrate / Clear descriptors with a completion address)
// through which the OS drives it.
//
// Both design points are implemented:
//
//   - Noncacheable: lines of a page under migration bypass the private
//     caches and are served by the LLC, which redirects by progress.
//   - Cacheable: private caching stays enabled under the invariant that
//     only one mapping of a line is cached at a time; the engine
//     invalidates opposite-mapping copies on LLC access, and the copy
//     skips lines already modified under the destination mapping.
package contighw

import (
	"errors"
	"fmt"

	"contiguitas/internal/hw"
	"contiguitas/internal/hw/cache"
	"contiguitas/internal/hw/engine"
)

// Mode selects the design point.
type Mode uint8

const (
	// Noncacheable serves pages under migration from the LLC only.
	Noncacheable Mode = iota
	// Cacheable keeps private caching enabled with the single-mapping
	// invariant.
	Cacheable
)

// String names the mode.
func (m Mode) String() string {
	if m == Noncacheable {
		return "noncacheable"
	}
	return "cacheable"
}

// phase tracks a cacheable-mode migration's lifecycle.
type phase uint8

const (
	phaseRedirect phase = iota // mappings active, copy not started
	phaseCopy                  // TLB transition done, copy running
	phaseDone
)

// Entry is one metadata-table row (Figure 8b): the migration mapping and
// its progress. The copied bitmap realises the paper's per-slice Ptr —
// each slice is responsible only for the lines that hash to it, so
// global progress is the union of per-slice progress. Entries may span
// multiple contiguous pages (§3.3 "Variable Buffer Sizes": the table's
// Size field lets one mapping cover a whole device buffer).
type Entry struct {
	Src, Dst uint64   // first PPNs of the ranges
	Pages    int      // range length in pages (>= 1)
	copied   []uint64 // one bitmap word per page; bit i = line copied
	ph       phase
	active   bool

	// Completion is set when every line has been processed; the OS
	// polls it at its natural kernel entries (context switches).
	Completion bool
	// OnComplete, if non-nil, runs when the copy finishes.
	OnComplete func()
}

// lineCopied reports whether line off of page pageIdx has been copied.
func (e *Entry) lineCopied(pageIdx, off int) bool {
	return e.copied[pageIdx]&(1<<uint(off)) != 0
}

// pageIndexOf returns which page of the range a PPN addresses, and
// whether the PPN is the source or destination side.
func (e *Entry) pageIndexOf(ppn uint64) (idx int, isSrc, ok bool) {
	if ppn >= e.Src && ppn < e.Src+uint64(e.Pages) {
		return int(ppn - e.Src), true, true
	}
	if ppn >= e.Dst && ppn < e.Dst+uint64(e.Pages) {
		return int(ppn - e.Dst), false, true
	}
	return 0, false, false
}

// Config parameterises the engine.
type Config struct {
	Mode Mode
	// EntriesPerSlice is the metadata-table capacity (Table 1: 16, FA).
	EntriesPerSlice int
	// IssueIntervalCycles is the pipelined per-line issue rate of the
	// copy engine.
	IssueIntervalCycles uint64
	// ParallelSlices, when true, lets slices copy their lines
	// concurrently instead of the paper's chained handoff (an ablation;
	// the paper chooses the chained design to limit interconnect
	// pressure).
	ParallelSlices bool
	// EnqCmdCycles is the ENQCMD submission cost.
	EnqCmdCycles uint64
}

// DefaultConfig matches the paper's design choices.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:                mode,
		EntriesPerSlice:     16,
		IssueIntervalCycles: 60,
		EnqCmdCycles:        50,
	}
}

// Engine is the Contiguitas-HW instance attached to a cache hierarchy.
type Engine struct {
	cfg Config
	h   *cache.Hierarchy
	eng *engine.Engine

	entries []*Entry
	bySrc   map[uint64]*Entry
	byDst   map[uint64]*Entry

	// Stats.
	Migrations            uint64
	LinesCopied           uint64
	LinesSkippedModified  uint64
	Redirects             uint64
	OppositeInvalidations uint64
	CopyBusyCycles        uint64
}

// New attaches an engine to the hierarchy and registers it as the
// redirector.
func New(cfg Config, h *cache.Hierarchy, eng *engine.Engine) *Engine {
	e := &Engine{
		cfg:   cfg,
		h:     h,
		eng:   eng,
		bySrc: make(map[uint64]*Entry),
		byDst: make(map[uint64]*Entry),
	}
	h.SetRedirector(e)
	return e
}

// Errors returned by the work queue.
var (
	ErrTableFull = errors.New("contighw: metadata table full")
	ErrNoEntry   = errors.New("contighw: no metadata entry for PPN")
	ErrBusy      = errors.New("contighw: PPN already under migration")
)

// Op is a work-descriptor opcode.
type Op uint8

const (
	// OpMigrate installs a migration mapping; with StartCopy set the
	// copy begins immediately (the noncacheable flow), otherwise the
	// mapping only redirects until OpStartCopy (the cacheable flow).
	OpMigrate Op = iota
	// OpStartCopy begins the copy of an installed mapping (cacheable
	// flow, after the OS finished the TLB transition).
	OpStartCopy
	// OpClear removes the metadata entry, ending the migration.
	OpClear
)

// Descriptor is the DSA-style work descriptor the OS submits via
// ENQCMD: command, parameters, and a completion callback standing in
// for the completion address the hardware writes (§3.3 Interface).
// SizePages extends the mapping over a contiguous multi-page buffer
// (§3.3 "Variable Buffer Sizes"); zero means one page.
type Descriptor struct {
	Op         Op
	Src, Dst   uint64
	SizePages  int
	StartCopy  bool
	OnComplete func()
}

// Submit enqueues a descriptor, returning the submission latency.
func (e *Engine) Submit(d Descriptor) (uint64, error) {
	switch d.Op {
	case OpMigrate:
		return e.cfg.EnqCmdCycles, e.migrate(d)
	case OpStartCopy:
		ent := e.bySrc[d.Src]
		if ent == nil {
			return e.cfg.EnqCmdCycles, ErrNoEntry
		}
		if ent.ph == phaseRedirect {
			ent.ph = phaseCopy
			e.startCopy(ent)
		}
		return e.cfg.EnqCmdCycles, nil
	case OpClear:
		ent := e.bySrc[d.Src]
		if ent == nil {
			return e.cfg.EnqCmdCycles, ErrNoEntry
		}
		e.clear(ent)
		return e.cfg.EnqCmdCycles, nil
	}
	return 0, fmt.Errorf("contighw: unknown op %d", d.Op)
}

func (e *Engine) migrate(d Descriptor) error {
	pages := d.SizePages
	if pages <= 0 {
		pages = 1
	}
	for i := uint64(0); i < uint64(pages); i++ {
		if e.bySrc[d.Src+i] != nil || e.byDst[d.Dst+i] != nil ||
			e.byDst[d.Src+i] != nil || e.bySrc[d.Dst+i] != nil {
			return ErrBusy
		}
	}
	if len(e.entries) >= e.cfg.EntriesPerSlice {
		return ErrTableFull
	}
	ent := &Entry{Src: d.Src, Dst: d.Dst, Pages: pages,
		copied: make([]uint64, pages), OnComplete: d.OnComplete}
	e.entries = append(e.entries, ent)
	for i := uint64(0); i < uint64(pages); i++ {
		e.bySrc[d.Src+i] = ent
		e.byDst[d.Dst+i] = ent
	}
	ent.active = true
	e.Migrations++
	if e.cfg.Mode == Noncacheable || d.StartCopy {
		ent.ph = phaseCopy
		e.startCopy(ent)
	} else {
		ent.ph = phaseRedirect
	}
	return nil
}

func (e *Engine) clear(ent *Entry) {
	for i := uint64(0); i < uint64(ent.Pages); i++ {
		delete(e.bySrc, ent.Src+i)
		delete(e.byDst, ent.Dst+i)
	}
	for i := range e.entries {
		if e.entries[i] == ent {
			e.entries[i] = e.entries[len(e.entries)-1]
			e.entries = e.entries[:len(e.entries)-1]
			break
		}
	}
	ent.active = false
	// Retire the source pages' LLC lines; the frames will be reused.
	for pg := uint64(0); pg < uint64(ent.Pages); pg++ {
		for i := 0; i < hw.LinesPerPage; i++ {
			e.h.DropLLC(hw.LineOfPage(ent.Src+pg, i))
		}
	}
}

// Lookup returns the active entry for a PPN (either side), or nil.
func (e *Engine) Lookup(ppn uint64) *Entry {
	if ent := e.bySrc[ppn]; ent != nil {
		return ent
	}
	return e.byDst[ppn]
}

// startCopy schedules the copy of every line, grouped by home slice:
// the paper's chained handoff runs slices one after another; the
// ParallelSlices ablation lets them overlap.
func (e *Engine) startCopy(ent *Entry) {
	type job struct {
		page   int
		offset int
		slice  int
	}
	bySlice := make([][]job, e.h.NumSlices())
	for pg := 0; pg < ent.Pages; pg++ {
		for i := 0; i < hw.LinesPerPage; i++ {
			s := e.h.SliceOf(hw.LineOfPage(ent.Src+uint64(pg), i))
			bySlice[s] = append(bySlice[s], job{page: pg, offset: i, slice: s})
		}
	}
	var maxDelay uint64
	delay := uint64(0)
	for s := range bySlice {
		if e.cfg.ParallelSlices {
			delay = 0
		}
		for _, j := range bySlice[s] {
			j := j
			delay += e.cfg.IssueIntervalCycles
			e.eng.After(delay, func() { e.copyLine(ent, j.page, j.offset, j.slice) })
		}
		if delay > maxDelay {
			maxDelay = delay
		}
	}
	// Completion check after the last line.
	e.eng.After(maxDelay+e.cfg.IssueIntervalCycles, func() { e.checkComplete(ent) })
}

// copyLine performs one line's migration: BusRdX on source and
// destination, the copy, and progress update. In cacheable mode a
// destination line that is Modified in a private cache is skipped — it
// already holds the newest data.
func (e *Engine) copyLine(ent *Entry, pageIdx, offset, sliceIdx int) {
	if !ent.active || ent.lineCopied(pageIdx, offset) {
		return
	}
	srcLine := hw.LineOfPage(ent.Src+uint64(pageIdx), offset)
	dstLine := hw.LineOfPage(ent.Dst+uint64(pageIdx), offset)

	var busy uint64
	if e.cfg.Mode == Cacheable && e.h.HasModifiedPrivate(dstLine) {
		e.LinesSkippedModified++
		busy = e.h.P.ContigLatency
	} else {
		val, _, c1 := e.h.CollectAndInvalidate(srcLine)
		_, _, c2 := e.h.CollectAndInvalidate(dstLine)
		c3 := e.h.WriteLLC(dstLine, val)
		busy = c1 + c2 + c3
		if e.h.SliceOf(dstLine) != sliceIdx {
			busy += 2*e.h.P.RingHopCycles + 4 // remote Write + Ack
		}
		e.LinesCopied++
	}
	ent.copied[pageIdx] |= 1 << uint(offset)
	e.CopyBusyCycles += busy
	e.h.AddSliceBusy(sliceIdx, e.eng.Now(), busy)
}

// checkComplete fires the completion flag once every line is processed.
func (e *Engine) checkComplete(ent *Entry) {
	if !ent.active || ent.Completion {
		return
	}
	done := true
	for _, w := range ent.copied {
		if w != ^uint64(0) {
			done = false
			break
		}
	}
	if done {
		ent.Completion = true
		if ent.OnComplete != nil {
			ent.OnComplete()
		}
		return
	}
	e.eng.After(e.cfg.IssueIntervalCycles*4, func() { e.checkComplete(ent) })
}

// Translate implements cache.Redirector: requests to either mapping of a
// page under migration are served from the copied line's destination or
// the uncopied line's source. In cacheable mode it also enforces the
// single-mapping invariant by invalidating opposite-mapping private
// copies; in noncacheable mode it collects any stale private copies
// left on cores that have not yet invalidated their TLB entry (the
// nack-and-retry path of §3.3).
func (e *Engine) Translate(line uint64) (uint64, uint64) {
	ppn := hw.PageOfLine(line)
	ent := e.Lookup(ppn)
	if ent == nil || !ent.active {
		return line, 0
	}
	pageIdx, _, ok := ent.pageIndexOf(ppn)
	if !ok {
		return line, 0
	}
	off := hw.LineIndexInPage(line)
	srcLine := hw.LineOfPage(ent.Src+uint64(pageIdx), off)
	dstLine := hw.LineOfPage(ent.Dst+uint64(pageIdx), off)
	canonical := srcLine
	if ent.ph == phaseCopy && ent.lineCopied(pageIdx, off) {
		canonical = dstLine
	}
	e.Redirects++

	var extra uint64
	opposite := srcLine
	if line == srcLine {
		opposite = dstLine
	}
	switch e.cfg.Mode {
	case Cacheable:
		// Single-mapping invariant: the opposite mapping must not stay
		// cached privately.
		if e.h.HasPrivate(opposite) {
			val, wasM, c := e.h.CollectAndInvalidate(opposite)
			extra += c
			if wasM {
				extra += e.h.WriteLLC(canonical, val)
			}
			e.OppositeInvalidations++
		}
	case Noncacheable:
		// Stale private copies under either mapping are collected into
		// the canonical location before the LLC serves the request.
		for _, l := range [2]uint64{srcLine, dstLine} {
			if e.h.HasPrivate(l) {
				val, wasM, c := e.h.CollectAndInvalidate(l)
				extra += c
				if wasM {
					extra += e.h.WriteLLC(canonical, val)
				}
			}
		}
	}
	return canonical, extra + e.h.P.ContigLatency
}

// Noncacheable implements cache.Redirector.
func (e *Engine) Noncacheable(line uint64) bool {
	if e.cfg.Mode != Noncacheable {
		return false
	}
	ent := e.Lookup(hw.PageOfLine(line))
	return ent != nil && ent.active
}
