package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestInputsRepeat pins that one seed always yields the same input bytes:
// the arch-mix set and order, the serve-fleet catalog and sequence, and the
// closed loops' group order.
func TestInputsRepeat(t *testing.T) {
	tinyData, err := os.ReadFile(filepath.Join("..", "testdata", "tiny.ta"))
	if err != nil {
		t.Fatal(err)
	}
	tiny := string(tinyData)
	gen := func(seed int64) []byte {
		models, err := archModels(archMixSetSeed, 50)
		if err != nil {
			t.Fatal(err)
		}
		cat, seq, err := fleetInputs(seed, tiny, 200)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal([]any{models, seededPerm(seed, len(models)), cat, seq,
			fmt.Sprint(permuted(table1Groups(), seed))})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := gen(7), gen(7)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 generated different inputs on two calls")
	}
	if bytes.Equal(a, gen(8)) {
		t.Fatal("seeds 7 and 8 generated identical inputs")
	}
}

// TestFleetMix checks that the serve-fleet sequence exercises every cache
// path: exact repeats, requirement subsets of a cached model, ta models,
// case-study cells, and more distinct submissions than the 128-entry
// model and compile caches hold.
func TestFleetMix(t *testing.T) {
	tinyData, err := os.ReadFile(filepath.Join("..", "testdata", "tiny.ta"))
	if err != nil {
		t.Fatal(err)
	}
	cat, seq, err := fleetInputs(1, string(tinyData), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) <= 128 {
		t.Errorf("%d distinct submissions; the caches hold 128", len(cat))
	}
	kinds := map[string]int{}
	for _, s := range cat {
		switch {
		case s.Kind == "ta":
			kinds["ta"]++
		case len(s.Options.HorizonMSByReq) > 0:
			kinds["case-study"]++
		case len(s.Requirements) == 1:
			kinds["subset"]++
		default:
			kinds["arch"]++
		}
	}
	for _, k := range []string{"ta", "case-study", "subset", "arch"} {
		if kinds[k] == 0 {
			t.Errorf("no %s submissions in the catalog (%v)", k, kinds)
		}
	}
	if repeats := len(seq) - len(cat); repeats <= 0 {
		t.Errorf("no repeated submissions")
	}
	cat2, _, err := fleetInputs(2, string(tinyData), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cat, cat2) {
		t.Errorf("the catalog depends on the seed")
	}
}
