package bench

import (
	"fmt"
	"time"

	"smartrpc/internal/core"
	"smartrpc/internal/faultsim"
	"smartrpc/internal/netsim"
)

// RecoverConfig parameterizes the exchange-recovery workload: the
// caller/callee pair from the repeated-session experiment, run through
// the chaos transport with a seeded mix of transient faults (drops,
// duplicates, corruption) while every exchange carries a retry budget
// and origins dedup retried non-idempotent exchanges through their
// replay caches. The claim under measurement is twofold: with no faults
// configured, arming recovery adds zero messages and zero bytes to the
// wire; with faults configured, every session still completes with the
// correct checksum, and the retry/replay counters price the recovery.
type RecoverConfig struct {
	// Nodes is the complete binary tree size.
	Nodes int
	// ClosureSize is the eager-transfer budget in bytes.
	ClosureSize int
	// Sessions is how many back-to-back sessions to run; a fraction of
	// the tree mutates between sessions so write-back and revalidation
	// traffic is in the fault mix's reach too.
	Sessions int
	// MutationRatio is the fraction of nodes rewritten between sessions.
	MutationRatio float64
	// DropPermille / DupPermille / CorruptPermille configure the chaos
	// transport (per frame, out of 1000). All zero = fault-free.
	DropPermille, DupPermille, CorruptPermille int
	// Seed fixes the chaos schedule.
	Seed uint64
	// DisableRecovery runs the identical workload with no retry budget
	// (the seed's fail-fast behavior) — only meaningful fault-free, as
	// the control the zero-overhead claim is measured against.
	DisableRecovery bool
	// CallTimeout is the per-attempt reply deadline (real time; the
	// retry machinery races it against injected faults). Zero = 50ms.
	CallTimeout time.Duration
	// PageSize overrides the simulated page size.
	PageSize int
	// Model is the network cost model; zero value = free network.
	Model netsim.Model
}

func (c *RecoverConfig) fill() error {
	if c.Nodes <= 0 {
		c.Nodes = 1023
	}
	if c.ClosureSize == 0 {
		c.ClosureSize = 8192
	}
	if c.Sessions <= 0 {
		c.Sessions = 3
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 50 * time.Millisecond
	}
	if c.MutationRatio < 0 || c.MutationRatio > 1 {
		return fmt.Errorf("bench: mutation ratio %v out of [0,1]", c.MutationRatio)
	}
	return nil
}

// RecoverPoints is the recovery sweep: the zero-overhead pair first — the
// identical fault-free workload with recovery disarmed and armed, whose
// wire columns must be byte-identical — then transient faults, where
// completion is the deterministic claim and the retry and replay
// counters are the price. The tree stays small and fixed, whatever the
// report's tree size: faulted points pay a real CallTimeout per absorbed
// fault, and a fixed tree keeps the chaos schedule stable.
func RecoverPoints(model netsim.Model, closure int) []Point[RecoverConfig] {
	pt := func(name string, drop, dup, corrupt int) Point[RecoverConfig] {
		return Point[RecoverConfig]{name, RecoverConfig{Nodes: 1023, ClosureSize: closure, Sessions: 3,
			MutationRatio: 0.05, DropPermille: drop, DupPermille: dup, CorruptPermille: corrupt, Seed: 1, Model: model}}
	}
	off := pt("smart-recover-off", 0, 0, 0)
	off.Cfg.DisableRecovery = true
	return []Point[RecoverConfig]{off, pt("smart-recover-clean", 0, 0, 0), pt("smart-recover-drop", 250, 0, 0),
		pt("smart-recover-dup", 0, 100, 0), pt("smart-recover-corrupt", 0, 0, 60), pt("smart-recover-mix", 150, 150, 60)}
}

// RecoverResult is the outcome of one recovery run.
type RecoverResult struct {
	// Traffic is what the network actually carried (frames the chaos
	// layer dropped never reach the wire; duplicated frames are counted
	// twice). Its virtual time is meaningful only fault-free: under
	// faults, retries burn real time the virtual clock never sees.
	Traffic
	// Sessions is how many sessions completed; every configured session
	// must, or RunRecover returns an error.
	Sessions uint64
	// Faults is the callee's access-violation (page-fault) count.
	Faults uint64
	// ChaosFaults is how many faults the chaos transport injected.
	ChaosFaults uint64
	// Retries / RetrySuccesses / Replays / StaleDrops are the recovery
	// machinery's totals over both spaces: attempts beyond the first,
	// exchanges that eventually completed, origin replay-cache hits, and
	// late replies to abandoned attempts that were discarded.
	Retries, RetrySuccesses, Replays, StaleDrops uint64
	// Sum is the final session's checksum (verified internally).
	Sum int64
}

// RunRecover executes the recovery experiment and verifies every
// session's checksum against the model expectation — under faults this
// is the correctness half of the claim (retries must be exactly-once,
// never double-applying a mutation or serving a torn install).
func RunRecover(cfg RecoverConfig) (RecoverResult, error) {
	if err := cfg.fill(); err != nil {
		return RecoverResult{}, err
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return RecoverResult{}, err
	}
	defer r.close()
	chaos := faultsim.New(r.net, faultsim.Config{
		Seed:            cfg.Seed,
		DropPermille:    cfg.DropPermille,
		DupPermille:     cfg.DupPermille,
		CorruptPermille: cfg.CorruptPermille,
	})
	r.attach = chaos.Attach
	opts := core.Options{
		Policy:      core.PolicySmart,
		ClosureSize: cfg.ClosureSize,
		PageSize:    cfg.PageSize,
		CallTimeout: cfg.CallTimeout,
	}
	if !cfg.DisableRecovery {
		opts.RetryBudget = 30 * cfg.CallTimeout
		opts.MaxRetries = 25
	}
	caller, callee, root, err := r.searchPair(opts, cfg.Nodes)
	if err != nil {
		return RecoverResult{}, err
	}
	// BuildTree numbers nodes by preorder index, so the full-tree
	// checksum starts at n(n+1)/2; each mutation adds 1 to one node.
	want := int64(cfg.Nodes) * int64(cfg.Nodes+1) / 2

	r.reset()
	var out RecoverResult
	for s := 0; s < cfg.Sessions; s++ {
		if s > 0 && cfg.MutationRatio > 0 {
			mutated, err := MutateTree(caller, root, cfg.MutationRatio, uint64(s))
			if err != nil {
				return RecoverResult{}, fmt.Errorf("bench: mutate before session %d: %w", s+1, err)
			}
			want += int64(mutated)
		}
		_, sum, err := search(caller, root, int64(cfg.Nodes), false, 1)
		if err != nil {
			return RecoverResult{}, fmt.Errorf("bench: recover session %d: %w", s+1, err)
		}
		if sum != want {
			return RecoverResult{}, fmt.Errorf("bench: recover session %d checksum = %d, want %d (fault handling corrupted data)", s+1, sum, want)
		}
		out.Sum = sum
		out.Sessions++
	}

	out.Traffic = r.traffic()
	out.ChaosFaults = chaos.Total()
	for _, rt := range []*core.Runtime{caller, callee} {
		s := rt.Stats()
		out.Retries += s.Retries
		out.RetrySuccesses += s.RetrySuccesses
		out.Replays += s.DedupReplays
		out.StaleDrops += s.StaleReplyDrops
	}
	out.Faults = callee.Stats().Faults
	return out, nil
}
