package obs

import (
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation exactly
// at a bucket bound lands IN that bucket (inclusive upper limit), one just
// above it lands in the next, and values past the last bound overflow into
// +Inf only.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("boundary_seconds", "boundary test", []float64{1, 5, 10})

	cases := []struct {
		v    float64
		want int // index into counts: 0..len(bounds)-1 buckets, len(bounds) = +Inf
	}{
		{0.5, 0},
		{1, 0}, // exactly at a bound: inclusive
		{1.0000001, 1},
		{5, 1},
		{10, 2},
		{10.5, 3}, // past the last bound: +Inf overflow
	}
	for _, c := range cases {
		before := make([]int64, len(h.counts))
		for i := range h.counts {
			before[i] = h.counts[i].Load()
		}
		h.Observe(c.v)
		for i := range h.counts {
			want := before[i]
			if i == c.want {
				want++
			}
			if got := h.counts[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket %d count = %d, want %d", c.v, i, got, want)
			}
		}
	}
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatalf("Count() = %d, want %d", got, len(cases))
	}

	// The rendered cumulative buckets must reflect the same placement.
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`boundary_seconds_bucket{le="1"} 2`,
		`boundary_seconds_bucket{le="5"} 4`,
		`boundary_seconds_bucket{le="10"} 5`,
		`boundary_seconds_bucket{le="+Inf"} 6`,
		`boundary_seconds_count 6`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestWriteTextLintsCleanAndByteStable renders a registry with every metric
// kind, checks the output against the package's own validator, and pins that
// repeated scrapes of unchanged values are byte-identical — the property the
// /metrics alias test in serve relies on.
func TestWriteTextLintsCleanAndByteStable(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events seen")
	g := r.Gauge("depth", "current depth")
	r.CounterFunc("derived_total", "derived", func() int64 { return 7 })
	r.GaugeFunc("temp", "sampled", func() int64 { return -3 })
	h := r.Histogram("lat_seconds", `latency with "quotes" and \ slash`, []float64{0.1, 2.5},
		Label{Name: "op", Value: `a"b\c`})
	c.Add(41)
	c.Inc()
	g.Set(-12)
	h.Observe(0.05)
	h.Observe(3)

	var first strings.Builder
	if err := r.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(strings.NewReader(first.String())); len(errs) > 0 {
		t.Fatalf("WriteText output fails Lint: %v\n%s", errs, first.String())
	}
	var second strings.Builder
	if err := r.WriteText(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("repeated scrape not byte-identical:\n--- first\n%s--- second\n%s",
			first.String(), second.String())
	}
	if !strings.Contains(first.String(), "events_total 42\n") {
		t.Errorf("counter value missing:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "temp -3\n") {
		t.Errorf("gauge func value missing:\n%s", first.String())
	}
}

// TestRegistryPanics pins the setup-time programmer-error contract.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("invalid name", func() { NewRegistry().Counter("0bad", "") })
	mustPanic("reserved le label", func() {
		NewRegistry().Counter("x_total", "", Label{Name: "le", Value: "1"})
	})
	mustPanic("kind mismatch", func() {
		r := NewRegistry()
		r.Counter("x_total", "")
		r.Gauge("x_total", "")
	})
	mustPanic("duplicate series", func() {
		r := NewRegistry()
		r.Counter("x_total", "")
		r.Counter("x_total", "")
	})
	mustPanic("non-ascending bounds", func() {
		NewRegistry().Histogram("h_seconds", "", []float64{1, 1})
	})
}
