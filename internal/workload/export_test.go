package workload

import (
	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/trans"
)

// Coverage converts the runner's achieved huge-page backing into the
// translation model's coverage terms, optionally adding a dynamically
// allocated 1 GB HugeTLB reservation.
func (r *Runner) Coverage(huge1G *kernel.HugeTLBResult) trans.Coverage {
	cov := trans.Coverage{Frac2M: r.THPCoverage()}
	if huge1G != nil && huge1G.Allocated > 0 {
		user := r.userPages()
		if user > 0 {
			f1g := float64(uint64(huge1G.Allocated)*mem.OrderPages(mem.Order1G)) / float64(user)
			if f1g > 1 {
				f1g = 1
			}
			cov.Frac1G = f1g
			cov.Frac2M *= 1 - f1g // 1GB pages replace part of the heap
		}
	}
	return cov
}

// TearDown frees everything the runner holds.
func (r *Runner) TearDown() {
	for _, m := range r.mappings {
		r.K.FreeMapping(m)
	}
	r.mappings = nil
	r.mappingHeld = 0
	for _, p := range r.small {
		r.K.Free(p)
	}
	r.small = nil
	for _, p := range r.unmov {
		r.K.Unpin(p)
		r.K.Free(p)
	}
	r.unmov = nil
	r.unmovHeld = 0
	for _, so := range r.slabObjs {
		r.slabMgr.Cache(so.cache).Free(so.obj)
	}
	r.slabObjs = nil
}

// userPages returns all frames held as user memory (mappings plus the
// small-page pool).
func (r *Runner) userPages() uint64 {
	return r.mappingPages() + uint64(len(r.small))
}
