package slab

import (
	"errors"
	"testing"
	"testing/quick"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

func mustCache(t *testing.T, name string, size int, src PageSource) *Cache {
	t.Helper()
	c, err := NewCache(name, size, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testKernel() *kernel.Kernel {
	cfg := kernel.DefaultConfig(kernel.ModeContiguitas)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 32 << 20
	cfg.MinUnmovableBytes = 8 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	return kernel.New(cfg)
}

func TestPackingDensity(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "dentry", 320, k)
	if c.perPage != 4096/320 {
		t.Fatalf("objects per page = %d", c.perPage)
	}
	// Fill exactly one page's worth: one backing page only.
	var objs []Obj
	for i := 0; i < c.perPage; i++ {
		o, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	if c.PagesHeld != 1 {
		t.Fatalf("pages held = %d, want 1", c.PagesHeld)
	}
	// One more object grows the cache.
	if _, err := c.Alloc(); err != nil {
		t.Fatal(err)
	}
	if c.PagesHeld != 2 {
		t.Fatalf("pages held = %d, want 2", c.PagesHeld)
	}
	_ = objs
}

func TestPageReleasedWhenEmpty(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "sock", 768, k)
	before := k.FreePages()
	var objs []Obj
	for i := 0; i < c.perPage; i++ {
		o, _ := c.Alloc()
		objs = append(objs, o)
	}
	for _, o := range objs {
		c.Free(o)
	}
	if c.PagesHeld != 0 || c.Objects != 0 {
		t.Fatalf("held=%d objects=%d after freeing all", c.PagesHeld, c.Objects)
	}
	if k.FreePages() != before {
		t.Fatal("backing page not returned to the kernel")
	}
	if c.PagesFreed != 1 {
		t.Fatalf("pages freed = %d", c.PagesFreed)
	}
}

func TestOneImmortalObjectPinsThePage(t *testing.T) {
	// The paper's slab pathology: free every object except one, and the
	// page remains allocated (unmovable) indefinitely.
	k := testKernel()
	c := mustCache(t, "dentry", 320, k)
	var objs []Obj
	for i := 0; i < c.perPage; i++ {
		o, _ := c.Alloc()
		objs = append(objs, o)
	}
	for _, o := range objs[1:] {
		c.Free(o)
	}
	if c.PagesHeld != 1 {
		t.Fatalf("pages held = %d; one immortal object must pin the page", c.PagesHeld)
	}
	if u := c.Utilization(); u >= 0.1 {
		t.Fatalf("utilization = %v, want tiny (one object on a page)", u)
	}
	st := k.PM().Scan([]int{mem.Order2M})
	if st.UnmovableFrames == 0 {
		t.Fatal("the pinned slab page must scan as unmovable")
	}
}

func TestDoubleFreeError(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "kmalloc-64", 64, k)
	o, _ := c.Alloc()
	if err := c.Free(o); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(o); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: got %v, want ErrDoubleFree", err)
	}
}

func TestInvalidHandleError(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "kmalloc-64", 64, k)
	if err := c.Free(Obj{}); !errors.Is(err, ErrInvalidHandle) {
		t.Fatalf("invalid handle: got %v, want ErrInvalidHandle", err)
	}
}

func TestLargeObjectsUseHigherOrders(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "kmalloc-4k", 4096, k)
	if c.gfpOrder == 0 {
		t.Fatal("4KB objects should use a compound page")
	}
	o, err := c.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if c.perPage < 2 {
		t.Fatalf("objects per slab = %d", c.perPage)
	}
	c.Free(o)
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache("bad", 0, testKernel()); !errors.Is(err, ErrBadObjectSize) {
		t.Fatalf("got %v, want ErrBadObjectSize", err)
	}
}

func TestManagerClasses(t *testing.T) {
	k := testKernel()
	m := NewManager(k)
	if m.NumCaches() != len(StandardClasses) {
		t.Fatal("class count")
	}
	var objs []Obj
	var caches []*Cache
	for i := 0; i < m.NumCaches(); i++ {
		c := m.Cache(i)
		if c.Name() != StandardClasses[i].Name || c.objSize != StandardClasses[i].Size {
			t.Fatal("class metadata")
		}
		o, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
		caches = append(caches, c)
	}
	if m.Objects() != m.NumCaches() {
		t.Fatalf("objects = %d", m.Objects())
	}
	if m.PagesHeld() < m.NumCaches() {
		t.Fatalf("pages held = %d", m.PagesHeld())
	}
	for i, o := range objs {
		caches[i].Free(o)
	}
	if m.PagesHeld() != 0 || m.Objects() != 0 {
		t.Fatal("manager not empty after frees")
	}
}

// TestQuickSlabConservation: any alloc/free sequence keeps the object
// count, per-page occupancy, and backing pages mutually consistent, and
// freeing everything returns every page.
func TestQuickSlabConservation(t *testing.T) {
	f := func(seed uint64) bool {
		k := testKernel()
		free := k.FreePages()
		c := mustCache(t, "dentry", 320, k)
		rng := stats.NewRNG(seed)
		var live []Obj
		for i := 0; i < 2000; i++ {
			if rng.Bool(0.6) || len(live) == 0 {
				o, err := c.Alloc()
				if err != nil {
					return false
				}
				live = append(live, o)
			} else {
				j := rng.Intn(len(live))
				c.Free(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if c.Objects != len(live) {
				return false
			}
			// Density bound: pages never exceed what the object count
			// strictly requires plus the partially-filled tail.
			minPages := (len(live) + c.perPage - 1) / c.perPage
			if c.PagesHeld < minPages {
				return false
			}
		}
		for _, o := range live {
			c.Free(o)
		}
		return c.PagesHeld == 0 && k.FreePages() == free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSlabFragmentationUnderChurn reproduces the headline behaviour:
// random-lifetime churn leaves pages far below full occupancy, so the
// cache holds many more pages than a perfect packing would need — each
// of them unmovable.
func TestSlabFragmentationUnderChurn(t *testing.T) {
	k := testKernel()
	c := mustCache(t, "dentry", 320, k)
	rng := stats.NewRNG(12)
	var live []Obj
	// Grow to 4000 objects, then churn 50% turnover several times.
	for i := 0; i < 4000; i++ {
		o, err := c.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, o)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 2000; i++ {
			j := rng.Intn(len(live))
			c.Free(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for i := 0; i < 2000; i++ {
			o, err := c.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, o)
		}
	}
	// Final die-off: half the objects go away at random. The survivors
	// are scattered across pages, each of which stays pinned — the
	// immortal-tail effect.
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(live))
		c.Free(live[j])
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	minPages := (len(live) + c.perPage - 1) / c.perPage
	if c.PagesHeld < 2*minPages {
		t.Fatalf("die-off should leave heavy slack: held=%d perfect=%d", c.PagesHeld, minPages)
	}
	if u := c.Utilization(); u > 0.8 {
		t.Fatalf("utilization = %v; die-off must leave holes", u)
	}
}
