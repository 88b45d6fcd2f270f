// The campaign board: the read side of fleet progress.
//
// A Campaign is fed by the fleet layer through the structural
// fleet.ProgressSink interface — obsv deliberately imports only
// internal/supervise, not internal/fleet, so the dependency arrow runs
// compute → observability and never back. The supervisor goroutine
// delivers the ordered lifecycle stream (ObserveCampaign / Attempt /
// Event / End) while worker goroutines deliver unit counts and cache
// tallies; one mutex per campaign reconciles them, which is fine
// because every callback is a handful of integer stores.
package obsv

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"contiguitas/internal/supervise"
)

// Shard lifecycle states as reported on the wire.
const (
	shardPending     = "pending"
	shardRunning     = "running"
	shardCrashed     = "crashed"
	shardDone        = "done"
	shardQuarantined = "quarantined"
)

// ShardStatus is one shard's live progress row.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Status     string `json:"status"`
	Attempts   int    `json:"attempts"`
	Crashes    int    `json:"crashes"`
	DoneUnits  uint64 `json:"done_units"`
	TotalUnits uint64 `json:"total_units"`
}

// CacheStatus is the campaign's cumulative result-cache tallies.
type CacheStatus struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Rejects uint64 `json:"rejects"`
}

// CampaignStatus is the board row for one campaign.
type CampaignStatus struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Shards      int     `json:"shards"`
	Finished    int     `json:"finished"`
	Resumed     int     `json:"resumed"`
	Quarantined int     `json:"quarantined"`
	Crashes     int     `json:"crashes"`
	DoneUnits   uint64  `json:"done_units"`
	TotalUnits  uint64  `json:"total_units"`
	// Percent is unit progress in [0,100]; 100 requires every known
	// unit done.
	Percent  float64      `json:"percent"`
	Ended    bool         `json:"ended"`
	Complete bool         `json:"complete"`
	Canceled bool         `json:"canceled"`
	Cache    *CacheStatus `json:"cache,omitempty"`
}

// Campaign accumulates one campaign's live state. It satisfies
// fleet.ProgressSink (structurally) and supervise.Observer.
type Campaign struct {
	id   int
	name string

	mu          sync.Mutex
	shards      []ShardStatus
	finished    int
	resumed     int
	quarantined int
	crashes     int
	ended       bool
	complete    bool
	canceled    bool
	cacheSeen   bool
	cache       CacheStatus
}

// ensureLocked grows the shard table to at least n rows. Needed because
// the fleet publishes initial unit totals before the supervisor's
// ObserveCampaign runs.
func (c *Campaign) ensureLocked(n int) {
	for len(c.shards) < n {
		c.shards = append(c.shards, ShardStatus{Shard: len(c.shards), Status: shardPending})
	}
}

// ObserveCampaign implements supervise.Observer.
func (c *Campaign) ObserveCampaign(shards int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked(shards)
}

// ObserveAttempt implements supervise.Observer.
func (c *Campaign) ObserveAttempt(shard, attempt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked(shard + 1)
	s := &c.shards[shard]
	s.Status = shardRunning
	if attempt > s.Attempts {
		s.Attempts = attempt
	}
}

// ObserveEvent implements supervise.Observer.
func (c *Campaign) ObserveEvent(ev supervise.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked(ev.Shard + 1)
	s := &c.shards[ev.Shard]
	switch ev.Kind {
	case supervise.EventCrash:
		s.Status = shardCrashed
		s.Crashes++
		c.crashes++
	case supervise.EventResume:
		s.Status = shardRunning
		c.resumed++
	case supervise.EventQuarantine:
		s.Status = shardQuarantined
		c.quarantined++
	case supervise.EventDone:
		s.Status = shardDone
		c.finished = ev.Done
	}
}

// ObserveEnd implements supervise.Observer. rep is the supervisor's
// final report; the board copies the summary rather than retaining it.
func (c *Campaign) ObserveEnd(rep *supervise.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ended = true
	if rep == nil {
		return
	}
	c.finished = rep.Finished
	c.quarantined = rep.Quarantined
	c.crashes = rep.Crashes
	c.complete = rep.Complete
	c.canceled = rep.Canceled
	// Resumed in the report counts shards; the event stream counted
	// resume events, so prefer the authoritative final number.
	c.resumed = rep.Resumed
}

// ObserveUnits implements fleet.ProgressSink. Called from worker
// goroutines as checkpoints land.
func (c *Campaign) ObserveUnits(shard int, done, total uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureLocked(shard + 1)
	s := &c.shards[shard]
	s.DoneUnits = done
	s.TotalUnits = total
}

// ObserveCache implements fleet.ProgressSink.
func (c *Campaign) ObserveCache(hits, misses, rejects uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheSeen = true
	c.cache = CacheStatus{Hits: hits, Misses: misses, Rejects: rejects}
}

// Status renders the board row.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID: c.id, Name: c.name, Shards: len(c.shards),
		Finished: c.finished, Resumed: c.resumed,
		Quarantined: c.quarantined, Crashes: c.crashes,
		Ended: c.ended, Complete: c.complete, Canceled: c.canceled,
	}
	for i := range c.shards {
		st.DoneUnits += c.shards[i].DoneUnits
		st.TotalUnits += c.shards[i].TotalUnits
	}
	switch {
	case st.TotalUnits > 0:
		st.Percent = 100 * float64(st.DoneUnits) / float64(st.TotalUnits)
	case st.Ended:
		st.Percent = 100
	}
	if c.cacheSeen {
		cache := c.cache
		st.Cache = &cache
	}
	return st
}

// ShardTable renders the per-shard rows.
func (c *Campaign) ShardTable() []ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStatus, len(c.shards))
	copy(out, c.shards)
	return out
}

// Board registers campaigns and serves the JSON endpoints.
type Board struct {
	mu        sync.Mutex
	campaigns []*Campaign
}

// NewBoard returns an empty board.
func NewBoard() *Board { return &Board{} }

// Register adds a campaign under the next id and returns it. Safe from
// any goroutine.
func (b *Board) Register(name string) *Campaign {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &Campaign{id: len(b.campaigns), name: name}
	b.campaigns = append(b.campaigns, c)
	return c
}

// Campaign returns the campaign with the given id (nil when absent).
func (b *Board) Campaign(id int) *Campaign {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || id >= len(b.campaigns) {
		return nil
	}
	return b.campaigns[id]
}

func (b *Board) list() []*Campaign {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Campaign, len(b.campaigns))
	copy(out, b.campaigns)
	return out
}

// serveCampaigns handles GET /campaigns: every registered campaign's
// board row, in registration order.
func (b *Board) serveCampaigns(w http.ResponseWriter, _ *http.Request) {
	campaigns := b.list()
	rows := make([]CampaignStatus, 0, len(campaigns))
	for _, c := range campaigns {
		rows = append(rows, c.Status())
	}
	writeJSON(w, rows)
}

// serveShards handles GET /campaigns/{id}/shards. The path is parsed by
// hand so the server works with any mux vintage.
func (b *Board) serveShards(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/campaigns/")
	idStr, tail, ok := strings.Cut(rest, "/")
	if !ok || tail != "shards" {
		http.NotFound(w, r)
		return
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		http.Error(w, "bad campaign id", http.StatusBadRequest)
		return
	}
	c := b.Campaign(id)
	if c == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, struct {
		Campaign CampaignStatus `json:"campaign"`
		Shards   []ShardStatus  `json:"shards"`
	}{c.Status(), c.ShardTable()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
