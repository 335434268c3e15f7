package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/dbm"
	"repro/internal/faultinject"
	"repro/internal/ta"
)

// passedSet is the passed-state interface of the explorer. store is its one
// production implementation; the lockstep oracle (store_oracle_test.go)
// injects a full-DBM reference through it. bytes and internStats are live
// views for the memory budget and progress monitor; both are safe to call
// from other goroutines while workers add.
type passedSet interface {
	add(s *State) bool
	size() int
	// bytes reports the actual stored footprint: packed zone buffers plus
	// interned discrete vectors.
	bytes() int64
	// internStats reports discrete-vector intern-table hits and misses.
	internStats() (hits, misses int64)
	// contention counts admissions that found their shard lock held and had
	// to wait (always 0 in a sequential run).
	contention() int64
}

// store is the passed-state list: per discrete state (location vector plus
// variable valuation) it keeps a list of maximal zones. A new state is
// admitted only when its zone is not included in any stored zone; on
// admission, stored zones included in the new one are pruned. This is the
// standard inclusion-checking subsumption that makes zone-graph exploration
// terminate.
//
// The bucket space is split into lock shards so parallel workers exploring
// disjoint regions of the zone graph rarely contend; a sequential run uses
// one shard, whose lock is never contended. Each shard owns its own compact
// pool and intern table, used only under the shard lock — a discrete state
// always hashes to the same shard, so repeats of its vectors intern within
// that shard.
//
// # Zone ownership
//
// The store NEVER aliases the zone of an admitted state: on admission it
// packs its own compact copy (dbm.EncodeCompact into a buffer from the
// shard-owned dbm.CompactPool). This is what makes recycling sound — a
// pruned (subsumed) stored zone is referenced by nothing but the store and
// its buffer can be released back into the compact pool immediately, even
// while the pruned state is still sitting in a frontier with its own zone.
// The full protocol:
//
//   - engine.fire produces states whose zones come from the worker's pool;
//     the state owns its zone.
//   - store.add(s) packs s.Zone on admission into a compact-pool buffer;
//     s keeps ownership of its own (full) zone.
//   - If add reports false (subsumed), the caller releases s.Zone — the
//     state is about to be discarded and nothing else references it.
//   - Pruned compact copies are released into the compact pool inside add.
//
// Inclusion tests run directly against the packed form (dbm.Compact
// ContainsDBM/SubsetEqDBM) behind a constant-time inclusion-score
// pre-filter, so admission never decodes a stored zone. The worker-side
// succCtx scratch and dbm.Pool recycling are untouched: compression lives
// entirely behind the admission boundary.
//
// Store entries intern their discrete vectors (see internTable): location
// vectors and variable valuations repeat heavily across entries, so each
// unique vector is stored once per shard — never an alias of a state's
// slices, since states recycle and entries do not.
type store struct {
	shards    []storeShard
	mask      uint64 // len(shards)-1; the count is a power of two
	zones     atomic.Int64
	zoneBytes atomic.Int64
	// contended counts adds that found their shard lock held (TryLock
	// failed) and had to block — the sweep profile's store-contention total.
	contended atomic.Int64
}

// storeShard is one lock shard, padded to its own cache line against false
// sharing between neighboring shards.
type storeShard struct {
	mu      sync.Mutex
	buckets map[uint64][]*storeEntry
	cpool   *dbm.CompactPool
	intern  internTable
	_       [48]byte
}

type storeEntry struct {
	// key caches the discrete hash so rehashing or resizing the bucket
	// structure never recomputes it.
	key uint64
	// locs and vrs are the interned location vector and variable valuation:
	// shared with every other entry (and log, in principle) holding the same
	// vector, owned by the shard's intern table, immutable once published.
	locs []uint64
	vrs  []uint64
	// zones holds the maximal zones in packed form; the buffers are owned by
	// the store and recycle through its shard's compact pool on prune.
	zones []dbm.Compact
}

// matches reports whether the entry represents the discrete state (locs,
// vars) whose cached hash is key: one integer compare, then one
// slices.Equal-style scan.
func (e *storeEntry) matches(key uint64, locs []ta.LocID, vars []int64) bool {
	if e.key != key || len(e.locs) != len(locs) || len(e.vrs) != len(vars) {
		return false
	}
	for i, l := range locs {
		if e.locs[i] != uint64(l) {
			return false
		}
	}
	for i, v := range vars {
		if e.vrs[i] != uint64(v) {
			return false
		}
	}
	return true
}

// init prepares an empty store with the given shard count, which must be a
// power of two. The store lives by value inside its explorer, so a run pays
// one allocation for the shard array and none for the store itself.
func (st *store) init(shards int) {
	st.shards = make([]storeShard, shards)
	st.mask = uint64(shards - 1)
	for i := range st.shards {
		st.shards[i].buckets = make(map[uint64][]*storeEntry)
		st.shards[i].cpool = dbm.NewCompactPool()
		st.shards[i].intern.init()
	}
}

// add inserts the state unless it is subsumed, reporting whether it is new.
// The admission runs under the shard lock; the packed copy is drawn from the
// shard's compact pool and pruned zones are released into it. See the type
// comment for the zone-ownership protocol.
func (st *store) add(s *State) bool {
	sh := &st.shards[s.discreteKey()&st.mask]
	// The unlock is deferred so a panic inside the admission (contained per
	// worker by explorer.runContained) releases the shard instead of hanging
	// every other worker that hashes to it; the open-coded defer costs no
	// allocation. The run is failing at that point, so the possibly
	// half-admitted entry is only ever read by workers about to observe the
	// stop flag — and the store, like the pools, dies with the run.
	if !sh.mu.TryLock() {
		st.contended.Add(1)
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	delta, bytesDelta, admitted := lookupEntry(sh.buckets, s, &sh.intern).admit(s, sh.cpool)
	if delta != 0 {
		st.zones.Add(int64(delta))
	}
	if bytesDelta != 0 {
		st.zoneBytes.Add(bytesDelta)
	}
	return admitted
}

// size returns the number of stored maximal zones.
func (st *store) size() int { return int(st.zones.Load()) }

// bytes returns the stored footprint: packed zones plus interned vectors.
func (st *store) bytes() int64 {
	total := st.zoneBytes.Load()
	for i := range st.shards {
		total += st.shards[i].intern.bytes.Load()
	}
	return total
}

func (st *store) internStats() (hits, misses int64) {
	for i := range st.shards {
		hits += st.shards[i].intern.hits.Load()
		misses += st.shards[i].intern.misses.Load()
	}
	return hits, misses
}

// contention counts adds that had to wait for a shard lock.
func (st *store) contention() int64 { return st.contended.Load() }

// lookupEntry finds or creates the bucket entry for s's discrete state.
// Entry creation interns the discrete vectors through it: repeats across
// entries collapse to one shared slice each, and states stay recyclable
// (succCtx.putState) because the interned copies never alias s.
func lookupEntry(buckets map[uint64][]*storeEntry, s *State, it *internTable) *storeEntry {
	h := s.discreteKey()
	for _, e := range buckets[h] {
		if e.matches(h, s.Locs, s.Vars) {
			return e
		}
	}
	e := &storeEntry{key: h, locs: it.internLocs(s.Locs), vrs: it.internVars(s.Vars)}
	buckets[h] = append(buckets[h], e)
	return e
}

// admit implements the subsumption protocol on one entry: reject s if a
// stored zone includes it, otherwise prune stored zones covered by it
// (recycling their buffers into pool) and store a packed copy of s.Zone.
// It returns the change in the number of stored zones (0 when s was
// subsumed; any admission nets at least +1 minus prunes) and the change in
// stored bytes. The caller must hold whatever lock guards the entry.
//
// Both inclusion directions are pre-filtered by the monotone inclusion
// score: d ⊆ z forces score(d) ≤ score(z), so most non-inclusions cost one
// integer compare against the packed header instead of a dim² scan.
func (e *storeEntry) admit(s *State, pool *dbm.CompactPool) (delta int, bytesDelta int64, admitted bool) {
	if faultinject.Enabled {
		// Chaos site inside compact admission: an injected error escalates to
		// a panic so containment takes the exact path a real encoder or
		// inclusion-scan crash would — explorer.runContained for the worker,
		// the deferred unlock for the store shard.
		if err := faultinject.Fire("core/store"); err != nil {
			panic(err)
		}
	}
	score := dbm.InclusionScore(s.Zone)
	// First pass: pure subsumption check, no mutation.
	for _, z := range e.zones {
		if score <= z.Score() && z.ContainsDBM(s.Zone) {
			return 0, 0, false
		}
	}
	// Second pass: prune stored zones covered by the new one, recycling them.
	keep := e.zones[:0]
	for _, z := range e.zones {
		if z.Score() <= score && z.SubsetEqDBM(s.Zone) {
			delta--
			bytesDelta -= int64(len(z))
			pool.Put(z)
		} else {
			keep = append(keep, z)
		}
	}
	c := dbm.EncodeCompact(s.Zone, pool)
	e.zones = append(keep, c)
	return delta + 1, bytesDelta + int64(len(c)), true
}

// internTable deduplicates the discrete vectors held by store entries:
// location vectors and variable valuations are interned separately (each
// repeats across many entries even though their combination is unique per
// entry), content-addressed by a word-wise hash with full collision
// comparison. Lookups and inserts happen under the owning shard's
// lock; the counters are atomics because the Monitor and the memory budget
// read them while workers add.
type internTable struct {
	m      map[uint64][][]uint64
	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64
}

func (t *internTable) init() { t.m = make(map[uint64][][]uint64) }

const (
	internOffset = 14695981039346656037
	internPrime  = 0x9E3779B97F4A7C15
)

// internLocs returns the canonical interned copy of a location vector,
// allocating only on first sight of the content.
func (t *internTable) internLocs(locs []ta.LocID) []uint64 {
	h := uint64(internOffset) ^ uint64(len(locs))
	for _, l := range locs {
		h = (h ^ uint64(l)) * internPrime
	}
	for _, cand := range t.m[h] {
		if len(cand) != len(locs) {
			continue
		}
		eq := true
		for i, l := range locs {
			if cand[i] != uint64(l) {
				eq = false
				break
			}
		}
		if eq {
			t.hits.Add(1)
			return cand
		}
	}
	v := make([]uint64, len(locs))
	for i, l := range locs {
		v[i] = uint64(l)
	}
	t.m[h] = append(t.m[h], v)
	t.misses.Add(1)
	t.bytes.Add(int64(len(v)) * 8)
	return v
}

// internVars is internLocs for variable valuations.
func (t *internTable) internVars(vars []int64) []uint64 {
	h := uint64(internOffset) ^ uint64(len(vars))
	for _, x := range vars {
		h = (h ^ uint64(x)) * internPrime
	}
	for _, cand := range t.m[h] {
		if len(cand) != len(vars) {
			continue
		}
		eq := true
		for i, x := range vars {
			if cand[i] != uint64(x) {
				eq = false
				break
			}
		}
		if eq {
			t.hits.Add(1)
			return cand
		}
	}
	v := make([]uint64, len(vars))
	for i, x := range vars {
		v[i] = uint64(x)
	}
	t.m[h] = append(t.m[h], v)
	t.misses.Add(1)
	t.bytes.Add(int64(len(v)) * 8)
	return v
}
