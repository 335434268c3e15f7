package core

import (
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// newStore returns an empty store with the given power-of-two shard count.
func newStore(shards int) *store {
	st := &store{}
	st.init(shards)
	return st
}

func mkState(locs []ta.LocID, vars []int64, hi int64) *State {
	z := dbm.New(2)
	z.Up()
	z.Constrain(1, 0, dbm.LE(hi))
	return &State{Locs: locs, Vars: vars, Zone: z}
}

func TestStoreSubsumption(t *testing.T) {
	st := newStore(1)
	locs := []ta.LocID{0}
	vars := []int64{0}
	if !st.add(mkState(locs, vars, 10)) {
		t.Fatal("first state must be new")
	}
	if st.add(mkState(locs, vars, 5)) {
		t.Error("included zone must be subsumed")
	}
	if st.size() != 1 {
		t.Errorf("store length = %d, want 1", st.size())
	}
	if !st.add(mkState(locs, vars, 20)) {
		t.Error("larger zone must be admitted")
	}
	// The larger zone covers the earlier one, which must have been pruned.
	if st.size() != 1 {
		t.Errorf("store length after covering add = %d, want 1 (pruned)", st.size())
	}
}

func TestStoreDistinguishesDiscreteParts(t *testing.T) {
	st := newStore(1)
	if !st.add(mkState([]ta.LocID{0}, []int64{0}, 10)) ||
		!st.add(mkState([]ta.LocID{1}, []int64{0}, 10)) ||
		!st.add(mkState([]ta.LocID{0}, []int64{1}, 10)) {
		t.Fatal("distinct discrete parts must all be admitted")
	}
	if st.size() != 3 {
		t.Errorf("store length = %d, want 3", st.size())
	}
}

func TestStoreIncomparableZonesCoexist(t *testing.T) {
	st := newStore(1)
	locs := []ta.LocID{0}
	vars := []int64{0}
	// x <= 10 and x >= 5 (upper bound infinity) are incomparable.
	a := mkState(locs, vars, 10)
	b := &State{Locs: locs, Vars: vars, Zone: dbm.Universe(2)}
	b.Zone.Constrain(0, 1, dbm.LE(-5))
	if !st.add(a) || !st.add(b) {
		t.Fatal("incomparable zones must both be admitted")
	}
	if st.size() != 2 {
		t.Errorf("store length = %d, want 2", st.size())
	}
}

// TestStoreShardCountsAgree checks that the shard count is invisible to
// admission: the single-shard store of a sequential run and the 64-shard
// store of a parallel one decide every admission alike and hold the same
// zones.
func TestStoreShardCountsAgree(t *testing.T) {
	one := newStore(1)
	many := newStore(parallelStoreShards)
	states := []*State{
		mkState([]ta.LocID{0}, []int64{0}, 10),
		mkState([]ta.LocID{0}, []int64{0}, 5),
		mkState([]ta.LocID{0}, []int64{0}, 20),
		mkState([]ta.LocID{1}, []int64{0}, 7),
		mkState([]ta.LocID{1}, []int64{0}, 7),
	}
	for i, s := range states {
		a := one.add(&State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()})
		b := many.add(&State{Locs: s.Locs, Vars: s.Vars, Zone: s.Zone.Copy()})
		if a != b {
			t.Errorf("state %d: 1-shard add=%v %d-shard add=%v", i, a, parallelStoreShards, b)
		}
	}
	if one.size() != many.size() {
		t.Errorf("zone counts differ: %d vs %d", one.size(), many.size())
	}
	// Packed zone bytes agree exactly; intern bytes may differ (each shard
	// interns on its own, so cross-shard repeats are stored once per shard).
	if one.zoneBytes.Load() != many.zoneBytes.Load() {
		t.Errorf("packed zone bytes differ: %d vs %d", one.zoneBytes.Load(), many.zoneBytes.Load())
	}
	if one.bytes() <= 0 || many.bytes() < one.bytes() {
		t.Errorf("stored bytes implausible: 1 shard %d, %d shards %d", one.bytes(), parallelStoreShards, many.bytes())
	}
}

// TestStoreTracksStoredBytes pins the actual-footprint accounting: bytes()
// must grow on admission, shrink when a covering zone prunes a stored one,
// and stay put on subsumption.
func TestStoreTracksStoredBytes(t *testing.T) {
	st := newStore(1)
	// Distinct contents so the locs and vars vectors intern separately (the
	// table is content-addressed across both kinds).
	locs := []ta.LocID{3}
	vars := []int64{0}
	if st.bytes() != 0 {
		t.Fatalf("empty store bytes = %d, want 0", st.bytes())
	}
	st.add(mkState(locs, vars, 10))
	after1 := st.bytes()
	if after1 <= 0 {
		t.Fatalf("bytes after one admission = %d, want > 0", after1)
	}
	// dim 2 zones fit the 16-bit width: 16-byte header + 4 bounds × 2 bytes,
	// plus the two interned vectors (one word each).
	if want := int64(16+4*2) + 16; after1 != want {
		t.Errorf("bytes after one admission = %d, want %d", after1, want)
	}
	st.add(mkState(locs, vars, 5)) // subsumed
	if st.bytes() != after1 {
		t.Errorf("bytes changed on subsumed add: %d -> %d", after1, st.bytes())
	}
	st.add(mkState(locs, vars, 20)) // prunes the x<=10 zone
	if st.bytes() != after1 {
		t.Errorf("bytes after prune+admit = %d, want %d (same-size swap)", st.bytes(), after1)
	}
}

// TestStoreInternsDiscreteVectors pins the intern table: repeats of a
// location vector or variable valuation across distinct discrete states must
// collapse to one shared slice each.
func TestStoreInternsDiscreteVectors(t *testing.T) {
	st := newStore(1)
	// Same locs, three different vars: locs interned once, hit twice.
	st.add(mkState([]ta.LocID{7}, []int64{0}, 10))
	st.add(mkState([]ta.LocID{7}, []int64{1}, 10))
	st.add(mkState([]ta.LocID{7}, []int64{2}, 10))
	hits, misses := st.internStats()
	if hits != 2 {
		t.Errorf("intern hits = %d, want 2 (repeated location vector)", hits)
	}
	// Misses: locs{7}, vars{0}, vars{1}, vars{2}.
	if misses != 4 {
		t.Errorf("intern misses = %d, want 4", misses)
	}
	var entries []*storeEntry
	for _, b := range st.shards[0].buckets {
		entries = append(entries, b...)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	for _, e := range entries[1:] {
		if &e.locs[0] != &entries[0].locs[0] {
			t.Error("repeated location vectors not shared between entries")
		}
	}
}
