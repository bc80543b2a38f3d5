package bench

import (
	"fmt"

	"smartrpc/internal/core"
	"smartrpc/internal/netsim"
	"smartrpc/internal/types"
)

// The hash-table retrieval workload §4.1 alludes to: "the fully lazy
// method is expected to show good performance when a small portion of the
// large data is accessed (for example, retrieval of a hash table)". A
// large chained hash table lives in the caller; the callee performs a
// handful of lookups. Eager transfer of the whole table is wasteful;
// per-dereference callbacks touch only the probed chains.

// Hash workload type IDs (distinct from NodeType's registry slot).
const (
	HashTableType types.ID = 10
	HashEntryType types.ID = 11
)

// hashBuckets is the bucket-array fan-out of the table object.
const hashBuckets = 128

// RegisterHashTypes adds the hash-table schema to a registry.
func RegisterHashTypes(reg *types.Registry) {
	reg.MustRegister(&types.Desc{
		ID:   HashTableType,
		Name: "HashTable",
		Fields: []types.Field{
			{Name: "buckets", Kind: types.Ptr, Elem: HashEntryType, Count: hashBuckets},
		},
	})
	reg.MustRegister(&types.Desc{
		ID:   HashEntryType,
		Name: "HashEntry",
		Fields: []types.Field{
			{Name: "next", Kind: types.Ptr, Elem: HashEntryType},
			{Name: "key", Kind: types.Int64},
			{Name: "val", Kind: types.Int64},
		},
	})
}

// hashKey assigns key k to a bucket.
func hashKey(k int64) int {
	return int(uint64(k*2654435761) % hashBuckets)
}

// HashConfig parameterizes one hash-retrieval run.
type HashConfig struct {
	// Policy selects smart/eager/lazy.
	Policy core.Policy
	// Entries is the number of key/value pairs in the table.
	Entries int
	// Lookups is how many keys the callee probes.
	Lookups int
	// ClosureSize is the smart method's prefetch budget.
	ClosureSize int
	// Model is the network cost model.
	Model netsim.Model
}

// RunHashLookup builds the table in the caller and has the callee probe
// it, returning cost and a correctness checksum (the sum of the values
// found; every probed key is present, so hits == Lookups).
func RunHashLookup(cfg HashConfig) (TreeResult, error) {
	if cfg.Policy == 0 {
		cfg.Policy = core.PolicySmart
	}
	if cfg.Entries <= 0 {
		cfg.Entries = 4096
	}
	if cfg.Lookups <= 0 {
		cfg.Lookups = 16
	}
	if cfg.ClosureSize == 0 {
		cfg.ClosureSize = 8192
	}
	r, err := newRig(cfg.Model)
	if err != nil {
		return TreeResult{}, err
	}
	defer r.close()
	RegisterHashTypes(r.reg)
	rts, err := r.spaces(core.Options{Policy: cfg.Policy, ClosureSize: cfg.ClosureSize}, CallerID, CalleeID)
	if err != nil {
		return TreeResult{}, err
	}
	owner, prober := rts[0], rts[1]

	err = prober.Register("probe", func(ctx *core.Ctx, args []core.Value) ([]core.Value, error) {
		rt := ctx.Runtime()
		table, count, stride := args[0], args[1].Int64(), args[2].Int64()
		tref, err := rt.Deref(table)
		if err != nil {
			return nil, err
		}
		var hits, sum int64
		for i := int64(0); i < count; i++ {
			key := i*stride + 1 // deterministic probe set, all keys present
			head, err := tref.Ptr("buckets", hashKey(key))
			if err != nil {
				return nil, err
			}
			for v := head; !v.IsNullPtr(); {
				eref, err := rt.Deref(v)
				if err != nil {
					return nil, err
				}
				k, err := eref.Int("key", 0)
				if err != nil {
					return nil, err
				}
				if k == key {
					val, err := eref.Int("val", 0)
					if err != nil {
						return nil, err
					}
					hits++
					sum += val
					break
				}
				if v, err = eref.Ptr("next", 0); err != nil {
					return nil, err
				}
			}
		}
		return []core.Value{core.Int64Value(hits), core.Int64Value(sum)}, nil
	})
	if err != nil {
		return TreeResult{}, err
	}

	// Build the table: keys 1..Entries, val = 3*key.
	table, err := owner.NewObject(HashTableType)
	if err != nil {
		return TreeResult{}, err
	}
	tref, err := owner.Deref(table)
	if err != nil {
		return TreeResult{}, err
	}
	for k := int64(1); k <= int64(cfg.Entries); k++ {
		e, err := owner.NewObject(HashEntryType)
		if err != nil {
			return TreeResult{}, err
		}
		eref, err := owner.Deref(e)
		if err != nil {
			return TreeResult{}, err
		}
		if err := eref.SetInt("key", 0, k); err != nil {
			return TreeResult{}, err
		}
		if err := eref.SetInt("val", 0, 3*k); err != nil {
			return TreeResult{}, err
		}
		b := hashKey(k)
		head, err := tref.Ptr("buckets", b)
		if err != nil {
			return TreeResult{}, err
		}
		if err := eref.SetPtr("next", 0, head); err != nil {
			return TreeResult{}, err
		}
		if err := tref.SetPtr("buckets", b, e); err != nil {
			return TreeResult{}, err
		}
	}

	// Probe keys 1, 1+stride, 1+2*stride, ... all present in the table.
	stride := int64(cfg.Entries / cfg.Lookups)
	if stride < 1 {
		stride = 1
	}
	r.reset()
	if err := owner.BeginSession(); err != nil {
		return TreeResult{}, err
	}
	res, err := owner.Call(CalleeID, "probe", []core.Value{
		table, core.Int64Value(int64(cfg.Lookups)), core.Int64Value(stride),
	})
	if err != nil {
		return TreeResult{}, err
	}
	if err := owner.EndSession(); err != nil {
		return TreeResult{}, err
	}
	return TreeResult{
		Traffic:   r.traffic(),
		Callbacks: prober.Stats().FetchesSent,
		Visited:   res[0].Int64(),
		Sum:       res[1].Int64(),
	}, nil
}

// HashWorkload compares the three methods on the sparse hash retrieval.
func HashWorkload(model netsim.Model, entries, lookups int) ([]AblationRow, error) {
	policies := []core.Policy{core.PolicyEager, core.PolicyLazy, core.PolicySmart}
	names := []string{"hash/fully-eager", "hash/fully-lazy", "hash/proposed"}
	return ablate(names, func(i int) (TreeResult, error) {
		res, err := RunHashLookup(HashConfig{Policy: policies[i], Entries: entries, Lookups: lookups, Model: model})
		if err == nil && res.Visited != int64(lookups) {
			err = fmt.Errorf("%d hits, want %d", res.Visited, lookups)
		}
		return res, err
	})
}
