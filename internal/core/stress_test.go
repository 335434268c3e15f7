package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dbm"
	"repro/internal/ta"
)

// TestPStoreConcurrentSubsumingAdds hammers one discrete state with chains
// of mutually-subsuming zones from many goroutines. Whatever the
// interleaving, the maximal zone of every chain must survive and the stored
// zones must end up pairwise incomparable — concurrent pruning must never
// lose a maximal zone. Run with -race.
func TestPStoreConcurrentSubsumingAdds(t *testing.T) {
	const (
		workers = 8
		chains  = 4  // incomparable families (distinct lower bounds)
		depth   = 32 // subsuming zones per family (growing upper bounds)
	)
	st := newStore(parallelStoreShards)
	locs := []ta.LocID{0}
	vars := []int64{0}

	mkZone := func(chain, step int) *dbm.DBM {
		// Family `chain` pins x1 >= 100*chain (incomparable across
		// families); within a family the upper bound grows with step, so
		// later zones strictly include earlier ones.
		z := dbm.Universe(2)
		z.Constrain(0, 1, dbm.LE(int64(-100*chain)))
		z.Constrain(1, 0, dbm.LE(int64(100*chain+step)))
		return z
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for c := 0; c < chains; c++ {
				for s := 0; s <= depth; s++ {
					// Interleave chain walk directions per worker so
					// subsuming pairs actually race.
					step := s
					if w%2 == 1 {
						step = depth - s
					}
					st.add(&State{Locs: locs, Vars: vars, Zone: mkZone(c, step)})
				}
			}
		}(w)
	}
	wg.Wait()

	// Collect the surviving zones for the single discrete entry, decoding
	// the packed form back into full DBMs for the inclusion checks.
	var zones []*dbm.DBM
	for i := range st.shards {
		st.shards[i].mu.Lock()
		for _, bucket := range st.shards[i].buckets {
			for _, e := range bucket {
				for _, z := range e.zones {
					zones = append(zones, z.Decode())
				}
			}
		}
		st.shards[i].mu.Unlock()
	}
	if len(zones) != chains {
		t.Errorf("stored %d zones, want %d (one maximal zone per chain)", len(zones), chains)
	}
	if st.size() != len(zones) {
		t.Errorf("size() = %d, but %d zones stored", st.size(), len(zones))
	}
	// Every chain's maximal zone must be covered by some stored zone.
	for c := 0; c < chains; c++ {
		max := mkZone(c, depth)
		covered := false
		for _, z := range zones {
			if max.SubsetEq(z) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("maximal zone of chain %d lost", c)
		}
	}
	// Stored zones must be pairwise incomparable (no zombie subsumed zones).
	for i := range zones {
		for j := range zones {
			if i != j && zones[i].SubsetEq(zones[j]) {
				t.Errorf("stored zone %d is subsumed by stored zone %d", i, j)
			}
		}
	}
}

// TestExploreParallelStressMatchesSequential runs the unified engine's
// work-stealing frontier repeatedly with many workers against the
// sequential oracle. Run with -race to exercise the deque and termination
// barrier.
func TestExploreParallelStressMatchesSequential(t *testing.T) {
	n, sx, srv, busy := buildGrid(t)
	_ = srv
	atBusy := func(s *State) bool { return s.Locs[3] == busy }
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := c.Explore(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqSup, err := c.SupClock(sx.ID, atBusy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for r := 0; r < rounds; r++ {
		for _, workers := range []int{2, 4, 8} {
			par, err := c.Explore(Options{Seed: int64(r), Workers: workers}, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Racy double-admission may store a state twice, never fewer.
			if par.Stored < seq.Stored {
				t.Errorf("round %d workers %d: parallel stored %d < sequential %d",
					r, workers, par.Stored, seq.Stored)
			}
			sup, err := c.SupClock(sx.ID, atBusy, Options{Seed: int64(r), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if sup.Max != seqSup.Max || sup.Seen != seqSup.Seen || sup.Unbounded != seqSup.Unbounded {
				t.Errorf("round %d workers %d: parallel sup %v/%v/%v != sequential %v/%v/%v",
					r, workers, sup.Max, sup.Seen, sup.Unbounded,
					seqSup.Max, seqSup.Seen, seqSup.Unbounded)
			}
		}
	}
}

// TestWSDequeSequential checks the owner-side LIFO and thief-side FIFO
// disciplines, including ring growth past the initial capacity.
func TestWSDequeSequential(t *testing.T) {
	d := newWSDeque(64)
	states := make([]*State, 200) // > initial ring capacity, forces grow
	for i := range states {
		states[i] = &State{Vars: []int64{int64(i)}}
		d.push(states[i])
	}
	if got := d.steal(); got != states[0] {
		t.Errorf("steal returned %v, want oldest state 0", got.Vars)
	}
	if got := d.pop(); got != states[len(states)-1] {
		t.Errorf("pop returned %v, want newest state", got.Vars)
	}
	seen := 0
	for d.pop() != nil {
		seen++
	}
	if seen != len(states)-2 {
		t.Errorf("drained %d states, want %d", seen, len(states)-2)
	}
	if d.pop() != nil || d.steal() != nil {
		t.Error("empty deque must return nil")
	}
}

// TestWSDequeConcurrentStealers pushes from the owner while thieves drain
// concurrently; every pushed state must be consumed exactly once.
func TestWSDequeConcurrentStealers(t *testing.T) {
	const total = 20000
	const thieves = 4
	d := newWSDeque(64)
	var mu sync.Mutex
	seen := make(map[int64]int, total)
	record := func(s *State) {
		mu.Lock()
		seen[s.Vars[0]]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s := d.steal(); s != nil {
					record(s)
					continue
				}
				select {
				case <-done:
					// Final drain after the owner stopped.
					for {
						s := d.steal()
						if s == nil {
							return
						}
						record(s)
					}
				default:
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		d.push(&State{Vars: []int64{int64(i)}})
		if i%3 == 0 {
			if s := d.pop(); s != nil {
				record(s)
			}
		}
	}
	for {
		s := d.pop()
		if s == nil {
			break
		}
		record(s)
	}
	close(done)
	wg.Wait()
	for i := int64(0); i < total; i++ {
		switch seen[i] {
		case 1:
		case 0:
			t.Fatalf("state %d lost", i)
		default:
			t.Fatalf("state %d consumed %d times", i, seen[i])
		}
	}
	if len(seen) != total {
		t.Fatalf("consumed %d distinct states, want %d", len(seen), total)
	}
}

// TestWSDequeGrowsFromCapacityOne starts a deque at the smallest ring the
// constructor accepts, so nearly every owner push past the first grows the
// ring, while two thieves steal concurrently: growth must never lose or
// duplicate a state. Run with -race.
func TestWSDequeGrowsFromCapacityOne(t *testing.T) {
	const total = 5000
	const thieves = 2
	d := newWSDeque(1)
	consumed := make([]atomic.Int32, total)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s := d.steal(); s != nil {
					consumed[s.Vars[0]].Add(1)
					continue
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		d.push(&State{Vars: []int64{int64(i)}})
		if i%7 == 0 {
			// An occasional owner pop keeps both ends of the ring moving.
			if s := d.pop(); s != nil {
				consumed[s.Vars[0]].Add(1)
			}
		}
	}
	close(done)
	wg.Wait()
	// Thieves are gone: the owner drains what is left.
	for s := d.pop(); s != nil; s = d.pop() {
		consumed[s.Vars[0]].Add(1)
	}
	if size := d.ring.Load().mask + 1; size < 2 {
		t.Errorf("ring never grew past capacity 1 (size %d)", size)
	}
	for i := range consumed {
		if n := consumed[i].Load(); n != 1 {
			t.Fatalf("state %d consumed %d times, want exactly once", i, n)
		}
	}
}

// TestMaxVarParallelMatchesSequential pins the Options.Workers routing for
// MaxVar, the second trace-free query kind.
func TestMaxVarParallelMatchesSequential(t *testing.T) {
	n, _, _, _ := buildGrid(t)
	c, err := NewChecker(n)
	if err != nil {
		t.Fatal(err)
	}
	var rec ta.VarID // the single variable of the grid network
	seq, err := c.MaxVar(rec, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.MaxVar(rec, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Max != par.Max || seq.Min != par.Min || seq.Seen != par.Seen {
		t.Errorf("MaxVar parallel (%d,%d,%v) != sequential (%d,%d,%v)",
			par.Max, par.Min, par.Seen, seq.Max, seq.Min, seq.Seen)
	}
}
