package kernel

import "errors"

// Typed sentinel errors for the kernel's failure paths. The paper's
// machinery (§3.3) treats aborted migrations, pinned pages, and carve
// races as events to retry or route around, never as fatal conditions;
// every error below is therefore recoverable and the kernel stays
// consistent (CheckInvariants clean) after returning it.
var (
	// ErrPagePinned reports an operation that is illegal on a pinned
	// page: software migration (access cannot be blocked) or Free
	// before Unpin.
	ErrPagePinned = errors.New("kernel: page is pinned")

	// ErrMoverFailed reports a Contiguitas-HW migration the copy engine
	// aborted (in-flight DMA conflict, metadata overflow, or an
	// injected fault) after exhausting the retry budget.
	ErrMoverFailed = errors.New("kernel: hardware mover failed")

	// ErrMigrationFailed reports a software page migration that was
	// aborted after exhausting the retry budget.
	ErrMigrationFailed = errors.New("kernel: software migration failed")

	// ErrCarveFailed reports a compaction or resize carve that could
	// not remove a frame range from the free lists — a skippable event:
	// the candidate block is re-enqueued and retried later.
	ErrCarveFailed = errors.New("kernel: carve failed")

	// ErrEvacIncomplete reports an evacuation that could not clear every
	// allocation in its range (no replacement frames, or an unmovable
	// page without hardware assistance). Cleared frames are donated
	// back; the caller defers and retries.
	ErrEvacIncomplete = errors.New("kernel: evacuation incomplete")

	// ErrStaleHandle reports a Free or Pin of a handle the kernel no
	// longer recognises (double free, or a reclaimed page-cache handle),
	// even after its slot has been reused by a newer allocation.
	ErrStaleHandle = errors.New("kernel: stale or unknown handle")

	// ErrNilHandle reports an operation on the zero Handle.
	ErrNilHandle = errors.New("kernel: nil handle")

	// ErrBadConfig reports a Config that New cannot boot (see
	// Config.Validate). New panics with it; admission layers call
	// Validate first and reject the request instead.
	ErrBadConfig = errors.New("kernel: invalid config")

	// ErrLivelock reports that the progress watchdog detected a
	// migration retry ladder or compaction requeue loop burning cycles
	// without forward progress past the configured deadline
	// (Config.LivelockCycleDeadline). The operation is abandoned and
	// escalated to the fallback/defer path; the kernel stays consistent.
	ErrLivelock = errors.New("kernel: livelock detected")

	// ErrOOMKill marks an allocation failure during which the OOM
	// killer fired: a victim pool was freed but the request still could
	// not be served. Errors carrying it also wrap ErrNoMemory.
	ErrOOMKill = errors.New("kernel: oom kill")

	// ErrAllocShed reports an allocation refused by the admission gate:
	// sustained movable-region pressure crossed the shed threshold and
	// new requests fail fast (no reclaim, no stall) until pressure
	// decays below the exit threshold.
	ErrAllocShed = errors.New("kernel: allocation shed by admission control")
)
