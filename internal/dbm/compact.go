package dbm

import (
	"encoding/binary"
	"math"
)

// Compact is a stored zone in packed form: a 16-byte header followed by the
// dim² bounds at a narrow fixed width. Canonical DBMs in extrapolated
// explorations have all finite bounds clamped to the model horizon, so almost
// every stored zone fits 16-bit (or at worst 32-bit) encoded bounds; the full
// 64-bit form remains as a width escape so the encoding is total.
//
// Layout:
//
//	[0]     width code: 2, 4 or 8 (bytes per bound)
//	[1]     reserved (zero)
//	[2:4]   dim, uint16 little-endian
//	[4:8]   reserved (zero)
//	[8:16]  inclusion score, int64 little-endian (see InclusionScore)
//	[16:]   dim² bounds, row-major, width bytes each, little-endian
//
// Narrow widths store the encoded Bound (value<<1|weak) as int16/int32 with
// math.MaxInt16/math.MaxInt32 as the Infinity sentinel; width 8 stores the
// Bound verbatim (Infinity is already math.MaxInt64). Inclusion tests run
// directly on the packed payload — admission never decodes a stored zone.
type Compact []byte

const compactHeader = 16

// scoreClamp caps each entry's contribution to the inclusion score so that
// Infinity does not swamp the sum: min(b, scoreClamp) is still monotone in b,
// which is all the pre-filter needs.
const scoreClamp Bound = 1 << 40

// InclusionScore returns Σ min(bound, clamp) over all entries of a DBM. Each
// term is monotone in the bound, so d ⊆ z (entrywise d ≤ z) implies
// InclusionScore(d) ≤ InclusionScore(z). Stores use the contrapositive as a
// constant-time pre-filter before the full entrywise inclusion scan.
func InclusionScore(d *DBM) int64 {
	var s int64
	for _, b := range d.m {
		if b > scoreClamp {
			b = scoreClamp
		}
		s += int64(b)
	}
	return s
}

// Dim returns the clock count of the packed zone.
func (c Compact) Dim() int { return int(binary.LittleEndian.Uint16(c[2:4])) }

// Width returns the payload width in bytes per bound (2, 4 or 8).
func (c Compact) Width() int { return int(c[0]) }

// Score returns the inclusion score recorded at encode time; it equals
// InclusionScore of the decoded zone.
func (c Compact) Score() int64 { return int64(binary.LittleEndian.Uint64(c[8:16])) }

// EncodeCompact packs a canonical DBM into the narrowest width that holds all
// its finite bounds, drawing the buffer from p (which may be nil for a plain
// allocation). The bounds themselves are stored encoded, so the pack is a
// single scan plus a single copy — no per-entry decode.
func EncodeCompact(d *DBM, p *CompactPool) Compact {
	lo, hi := Bound(math.MaxInt64), Bound(math.MinInt64)
	var score int64
	for _, b := range d.m {
		if b != Infinity {
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		if b > scoreClamp {
			b = scoreClamp
		}
		score += int64(b)
	}
	width := 8
	switch {
	// The sentinel value itself must stay unrepresentable as a finite bound.
	case lo >= math.MinInt16 && hi < math.MaxInt16:
		width = 2
	case lo >= math.MinInt32 && hi < math.MaxInt32:
		width = 4
	}
	n := d.dim * d.dim
	c := p.get(compactHeader + n*width)
	c[0] = byte(width)
	c[1] = 0
	binary.LittleEndian.PutUint16(c[2:4], uint16(d.dim))
	binary.LittleEndian.PutUint32(c[4:8], 0)
	binary.LittleEndian.PutUint64(c[8:16], uint64(score))
	pay := c[compactHeader:]
	switch width {
	case 2:
		for i, b := range d.m {
			v := int16(math.MaxInt16)
			if b != Infinity {
				v = int16(b)
			}
			binary.LittleEndian.PutUint16(pay[i*2:], uint16(v))
		}
	case 4:
		for i, b := range d.m {
			v := int32(math.MaxInt32)
			if b != Infinity {
				v = int32(b)
			}
			binary.LittleEndian.PutUint32(pay[i*4:], uint32(v))
		}
	default:
		for i, b := range d.m {
			binary.LittleEndian.PutUint64(pay[i*8:], uint64(b))
		}
	}
	return c
}

// ContainsDBM reports whether d ⊆ c, i.e. every bound of d is at most the
// corresponding packed bound. Both zones must be canonical and of equal
// dimension. The packed payload is compared in place — no decode, no
// allocation.
func (c Compact) ContainsDBM(d *DBM) bool {
	pay := c[compactHeader:]
	switch c[0] {
	case 2:
		for i, b := range d.m {
			v := int16(binary.LittleEndian.Uint16(pay[i*2:]))
			if v == math.MaxInt16 {
				continue // packed entry is Infinity, anything fits
			}
			if b > Bound(v) {
				return false
			}
		}
	case 4:
		for i, b := range d.m {
			v := int32(binary.LittleEndian.Uint32(pay[i*4:]))
			if v == math.MaxInt32 {
				continue
			}
			if b > Bound(v) {
				return false
			}
		}
	default:
		for i, b := range d.m {
			if b > Bound(binary.LittleEndian.Uint64(pay[i*8:])) {
				return false
			}
		}
	}
	return true
}

// SubsetEqDBM reports whether c ⊆ d, i.e. every packed bound is at most the
// corresponding bound of d. Both zones must be canonical and of equal
// dimension. Like ContainsDBM this runs on the packed payload directly.
func (c Compact) SubsetEqDBM(d *DBM) bool {
	pay := c[compactHeader:]
	switch c[0] {
	case 2:
		for i, b := range d.m {
			v := int16(binary.LittleEndian.Uint16(pay[i*2:]))
			if v == math.MaxInt16 {
				if b != Infinity {
					return false // packed Infinity exceeds any finite bound
				}
				continue
			}
			if Bound(v) > b {
				return false
			}
		}
	case 4:
		for i, b := range d.m {
			v := int32(binary.LittleEndian.Uint32(pay[i*4:]))
			if v == math.MaxInt32 {
				if b != Infinity {
					return false
				}
				continue
			}
			if Bound(v) > b {
				return false
			}
		}
	default:
		for i, b := range d.m {
			if Bound(binary.LittleEndian.Uint64(pay[i*8:])) > b {
				return false
			}
		}
	}
	return true
}

// DecodeInto unpacks the zone into d, which must have the same dimension.
func (c Compact) DecodeInto(d *DBM) {
	if d.dim != c.Dim() {
		panic("dbm: dimension mismatch in DecodeInto")
	}
	pay := c[compactHeader:]
	switch c[0] {
	case 2:
		for i := range d.m {
			v := int16(binary.LittleEndian.Uint16(pay[i*2:]))
			if v == math.MaxInt16 {
				d.m[i] = Infinity
			} else {
				d.m[i] = Bound(v)
			}
		}
	case 4:
		for i := range d.m {
			v := int32(binary.LittleEndian.Uint32(pay[i*4:]))
			if v == math.MaxInt32 {
				d.m[i] = Infinity
			} else {
				d.m[i] = Bound(v)
			}
		}
	default:
		for i := range d.m {
			d.m[i] = Bound(binary.LittleEndian.Uint64(pay[i*8:]))
		}
	}
}

// Decode unpacks the zone into a fresh DBM.
func (c Compact) Decode() *DBM {
	d := &DBM{dim: c.Dim(), m: make([]Bound, c.Dim()*c.Dim())}
	c.DecodeInto(d)
	return d
}

// CompactPool recycles Compact buffers by exact byte length, the packed
// counterpart of Pool for stored zones: pruned (subsumed) store entries are
// Put back and the next admission of a same-sized zone reuses the buffer.
// Exact lengths (not power-of-two classes) matter here: every zone of one
// exploration has the same dimension, so a store sees at most three distinct
// buffer sizes — one per encoding width — and class rounding would only
// inflate every stored zone's capacity (up to 2×) for no extra reuse.
// A pool is NOT safe for concurrent use — the passed store owns one per shard
// and only touches it under the shard lock.
type CompactPool struct {
	free   map[int][]Compact // keyed by exact buffer capacity
	gets   int
	reuses int
}

// NewCompactPool returns an empty pool.
func NewCompactPool() *CompactPool { return &CompactPool{free: make(map[int][]Compact)} }

// get returns a buffer of length n, reusing a free buffer of exactly that
// capacity when available. A nil pool falls back to plain allocation so
// EncodeCompact works standalone.
func (p *CompactPool) get(n int) Compact {
	if p == nil {
		return make(Compact, n)
	}
	p.gets++
	if l := p.free[n]; len(l) > 0 {
		c := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[n] = l[:len(l)-1]
		p.reuses++
		return c[:n]
	}
	return make(Compact, n)
}

// Put returns a buffer to the pool for reuse. The caller must not retain the
// buffer afterwards.
func (p *CompactPool) Put(c Compact) {
	if p == nil || cap(c) == 0 {
		return
	}
	c = c[:cap(c)]
	p.free[len(c)] = append(p.free[len(c)], c)
}

// Stats reports the number of get calls and how many were served by reuse.
func (p *CompactPool) Stats() (gets, reuses int) { return p.gets, p.reuses }
