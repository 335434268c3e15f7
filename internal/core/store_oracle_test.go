package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// This file is the compact-store differential oracle: a full-DBM reference
// implementation of passedSet (the pre-compression store semantics — plain
// copied matrices, entrywise SubsetEq, no fingerprints, no interning) is run
// against the compact store through the Options.passed injection hook. Two
// modes:
//
//   - Shadow mode: one sweep drives BOTH stores behind a serializing mutex
//     and every single admission decision must agree. This works under
//     Workers > 1 too, where comparing two separate runs would be unsound
//     (racy double-admission makes counts scheduling-dependent).
//   - Replacement mode: two sequential sweeps — default compact store vs
//     injected reference — must be bit-identical in verdicts, Stats, and
//     replayed traces, proving the store swap is invisible end to end.

// refStore is the reference passedSet: full-DBM zones, linear subsumption.
type refStore struct {
	mu      sync.Mutex
	buckets map[uint64][]*refEntry
	zones   int
	zbytes  int64
}

type refEntry struct {
	key  uint64
	locs []ta.LocID
	vars []int64
	zs   []*dbm.DBM
}

func newRefStore() *refStore {
	return &refStore{buckets: make(map[uint64][]*refEntry)}
}

func (st *refStore) add(s *State) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	h := s.discreteKey()
	var e *refEntry
	for _, cand := range st.buckets[h] {
		if cand.key == h && slices.Equal(cand.locs, s.Locs) && slices.Equal(cand.vars, s.Vars) {
			e = cand
			break
		}
	}
	if e == nil {
		e = &refEntry{key: h, locs: slices.Clone(s.Locs), vars: slices.Clone(s.Vars)}
		st.buckets[h] = append(st.buckets[h], e)
	}
	for _, z := range e.zs {
		if s.Zone.SubsetEq(z) {
			return false
		}
	}
	keep := e.zs[:0]
	for _, z := range e.zs {
		if z.SubsetEq(s.Zone) {
			st.zones--
			st.zbytes -= dbm.ZoneBytes(z.Dim())
		} else {
			keep = append(keep, z)
		}
	}
	e.zs = append(keep, s.Zone.Copy())
	st.zones++
	st.zbytes += dbm.ZoneBytes(s.Zone.Dim())
	return true
}

func (st *refStore) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.zones
}

func (st *refStore) bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.zbytes
}

func (st *refStore) internStats() (hits, misses int64) { return 0, 0 }
func (st *refStore) contention() int64                 { return 0 }

// shadowStore drives the compact store under test and the reference in
// lockstep: the mutex serializes concurrent admissions so both stores see
// the identical sequence, making per-decision equality a sound assertion
// even with Workers > 1.
type shadowStore struct {
	mu            sync.Mutex
	fast          passedSet
	ref           *refStore
	disagreements atomic.Int64
}

func (sh *shadowStore) add(s *State) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a := sh.fast.add(s)
	if b := sh.ref.add(s); a != b {
		sh.disagreements.Add(1)
	}
	return a
}

func (sh *shadowStore) size() int                         { return sh.fast.size() }
func (sh *shadowStore) bytes() int64                      { return sh.fast.bytes() }
func (sh *shadowStore) internStats() (hits, misses int64) { return sh.fast.internStats() }
func (sh *shadowStore) contention() int64                 { return sh.fast.contention() }

// TestCompactStoreShadowMatchesReference asserts every admission decision of
// the compact store (single-shard and sharded) equals the full-DBM reference's
// on a real exploration, sequentially and with racing workers (-race covers
// the concurrent paths).
func TestCompactStoreShadowMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, _, _, _ := buildGrid(t)
		c, err := NewChecker(n)
		if err != nil {
			t.Fatal(err)
		}
		shards := 1
		if workers > 1 {
			shards = parallelStoreShards
		}
		fast := newStore(shards)
		sh := &shadowStore{fast: fast, ref: newRefStore()}
		res, err := c.Explore(Options{Workers: workers, passed: sh}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sh.disagreements.Load(); d != 0 {
			t.Errorf("workers=%d: %d admission decisions diverged from the reference store", workers, d)
		}
		if fast.size() != sh.ref.size() {
			t.Errorf("workers=%d: compact store holds %d zones, reference %d",
				workers, fast.size(), sh.ref.size())
		}
		if res.Stored != sh.ref.size() {
			t.Errorf("workers=%d: Stats.Stored=%d, stored zones=%d", workers, res.Stored, sh.ref.size())
		}
	}
}

func sameTrace(t *testing.T, kind string, got, want []TraceStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: trace length %d != reference %d", kind, len(got), len(want))
		return
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Label.Kind != w.Label.Kind || g.Label.Chan != w.Label.Chan ||
			!slices.Equal(g.Label.Parts, w.Label.Parts) {
			t.Errorf("%s: step %d label %v != reference %v", kind, i, g.Label, w.Label)
		}
		if !slices.Equal(g.State.Locs, w.State.Locs) || !slices.Equal(g.State.Vars, w.State.Vars) ||
			!g.State.Zone.Eq(w.State.Zone) {
			t.Errorf("%s: step %d state diverges from reference", kind, i)
		}
	}
}

// TestCompactStoreSweepBitIdenticalToReference runs whole sequential
// analyses twice — compact store vs injected full-DBM reference — and
// requires bit-identical Stats, verdicts, suprema, and replayed traces.
func TestCompactStoreSweepBitIdenticalToReference(t *testing.T) {
	n, sx, _, busy := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	ref := func() Options { return Options{passed: newRefStore()} }

	// Plain sweep: full Stats equality.
	cres, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := c.Explore(ref(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Stored != rres.Stored || cres.Popped != rres.Popped ||
		cres.Transitions != rres.Transitions || cres.Deadlocks != rres.Deadlocks {
		t.Errorf("sweep stats diverge: compact %+v, reference %+v", cres.Stats, rres.Stats)
	}

	// Reachability with witness trace.
	cfound, err := c.Explore(Options{}, atBusy)
	if err != nil {
		t.Fatal(err)
	}
	rfound, err := c.Explore(ref(), atBusy)
	if err != nil {
		t.Fatal(err)
	}
	if cfound.Found != rfound.Found {
		t.Fatalf("reachability verdict diverges: compact %v, reference %v", cfound.Found, rfound.Found)
	}
	if !cfound.Found {
		t.Fatal("busy location must be reachable in the grid model")
	}
	sameTrace(t, "witness", cfound.Trace, rfound.Trace)

	// Exact clock supremum.
	csup, err := c.SupClock(sx.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsup, err := c.SupClock(sx.ID, atBusy, ref())
	if err != nil {
		t.Fatal(err)
	}
	if csup.Max != rsup.Max || csup.Seen != rsup.Seen || csup.Unbounded != rsup.Unbounded {
		t.Errorf("sup diverges: compact (%v,%v,%v), reference (%v,%v,%v)",
			csup.Max, csup.Seen, csup.Unbounded, rsup.Max, rsup.Seen, rsup.Unbounded)
	}
}
