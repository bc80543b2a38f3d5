package core

import (
	"fmt"
	"sync"
	"time"

	"smartrpc/internal/swizzle"
	"smartrpc/internal/wire"
)

// Per-origin health: incarnation fencing, and the retry backoff.
//
// Fencing (§ PROTOCOL.md "Restart incarnations"): an origin configured
// with a nonzero Options.Incarnation stamps it into every reply it
// serves. The first stamped value a client observes for a peer is
// recorded as that relationship's epoch; any later reply carrying a
// different value proves the origin crashed and restarted with a fresh
// heap, so every address this space still holds from it — cached pages,
// warm baselines, swizzled pointers — is resurrected garbage. The fence
// fails the exchange with ErrOriginRestarted (never retried: the data
// is gone, not delayed) after demoting the origin's warm state, so the
// failure mode is a typed error, not a silent read of reused addresses.

// healthState is the fence's memory: the incarnation each origin's
// replies were first seen to carry. One mutex covers the map: every touch
// is a lookup, and each reply frame it checks crossed the network.
type healthState struct {
	mu  sync.Mutex
	inc map[uint32]uint32
}

// fenceCheck validates the incarnation a reply from peer carried. The
// first observation records the epoch; a change trips the fence:
// record the new epoch (so the relationship can resume if the caller
// chooses to re-import), strip the stale marks held for the origin,
// and return an ErrOriginRestarted-wrapped error.
func (rt *Runtime) fenceCheck(peer uint32, inc uint32) error {
	h := &rt.health
	h.mu.Lock()
	old, seen := h.inc[peer]
	if seen && old == inc {
		h.mu.Unlock()
		return nil
	}
	if h.inc == nil {
		h.inc = make(map[uint32]uint32)
	}
	h.inc[peer] = inc
	h.mu.Unlock()
	if !seen {
		return nil
	}
	rt.stats.fenceTrips.Add(1)
	rt.trace(Event{Kind: EvFenceTrip, Target: peer, Page: old, Count: int(inc)})
	rt.fenceDemote(peer)
	return fmt.Errorf("core: space %d restarted (incarnation %d -> %d): %w",
		peer, old, inc, ErrOriginRestarted)
}

// fenceDemote strips the stale marks of a restarted origin's data: its
// heap is fresh, so no offered hash can match.
// Other origins' warm state is untouched. The cached pages themselves are
// torn down by the session abort the fence error forces.
func (rt *Runtime) fenceDemote(origin uint32) {
	var lps []wire.LongPtr
	rt.table.Visit(func(e swizzle.Entry) bool {
		if e.Stale && e.LP.Space == origin {
			lps = append(lps, e.LP)
		}
		return true
	})
	rt.table.ClearStale(lps)
}

// Retry backoff: capped exponential with deterministic jitter. The
// jitter derives from (space id, exchange id, attempt) through a
// splitmix64 mix — a pure function, so a seeded chaos run replays the
// same pacing every time, yet distinct exchanges desynchronize instead
// of retrying in lockstep.
const (
	retryBaseDelay = 2 * time.Millisecond
	retryMaxDelay  = 50 * time.Millisecond
)

func retryBackoff(id uint32, xid uint64, attempt int) time.Duration {
	base := retryBaseDelay << uint(attempt)
	if base > retryMaxDelay || base <= 0 {
		base = retryMaxDelay
	}
	j := mix64(uint64(id)<<56 ^ xid<<8 ^ uint64(attempt))
	return base/2 + time.Duration(j%uint64(base/2+1))
}

// mix64 is the splitmix64 finalizer (Steele et al.), the same mixer the
// fault simulator uses for its deterministic per-frame draws.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
