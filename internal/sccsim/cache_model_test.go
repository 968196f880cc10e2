package sccsim

import (
	"fmt"
	"math/rand"
	"testing"
)

// flatCache is the cache model as it stood before chunked
// materialisation: one flat ways-major line array, allocated whole at
// the first access. It is the reference Cache is checked against.
type flatCache struct {
	lines     []cacheLine
	nlines    int
	ways      int
	lineBits  uint
	setMask   uint32
	tick      uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	DirtyEv   uint64
}

func newFlatCache(size, ways, lineBytes int) *flatCache {
	nsets := size / lineBytes / ways
	if nsets < 1 {
		nsets = 1
	}
	return &flatCache{
		nlines:   nsets * ways,
		ways:     ways,
		lineBits: log2(lineBytes),
		setMask:  uint32(nsets - 1),
	}
}

func (c *flatCache) Access(addr uint32, write bool) (hit, dirtyEvict bool) {
	c.tick++
	if c.lines == nil {
		c.lines = make([]cacheLine, c.nlines)
		for i := range c.lines {
			c.lines[i].tag = invalidTag
		}
	}
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].tag == lineAddr {
			ln := &set[i]
			ln.used = c.tick
			if write {
				ln.flags |= lineDirty
			}
			c.Hits++
			return true, false
		}
	}
	c.Misses++
	victim := 0
	minUsed := ^uint64(0)
	for i := range set {
		if set[i].used < minUsed {
			minUsed = set[i].used
			victim = i
		}
	}
	v := &set[victim]
	if v.tag != invalidTag {
		c.Evictions++
		if v.flags&lineDirty != 0 {
			c.DirtyEv++
			dirtyEvict = true
		}
	}
	flags := uint8(lineValid)
	if write {
		flags |= lineDirty
	}
	*v = cacheLine{tag: lineAddr, flags: flags, used: c.tick}
	return false, dirtyEvict
}

func (c *flatCache) Contains(addr uint32) bool {
	if c.lines == nil {
		return false
	}
	lineAddr := addr >> c.lineBits
	base := int(lineAddr&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		if set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

func (c *flatCache) Flush() (dirty int) {
	for i := range c.lines {
		if c.lines[i].flags&(lineValid|lineDirty) == lineValid|lineDirty {
			dirty++
		}
		c.lines[i] = cacheLine{tag: invalidTag}
	}
	return dirty
}

// TestCacheMatchesFlatModel drives Cache and the flat reference model
// with the same seeded read/write streams and compares them step by
// step: every Access result, the four counters, Contains on the accessed
// and on a random address, and the dirty count of periodic Flushes. The
// streams mix a hot region, a region a few times the cache size and the
// whole address space, so hits, clean and dirty evictions and untouched
// chunks all occur.
func TestCacheMatchesFlatModel(t *testing.T) {
	cfg := DefaultConfig()
	geoms := []struct {
		name                  string
		size, ways, lineBytes int
	}{
		{"scc48-L1", cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes},
		{"scc48-L2", cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes},
		{"sub-chunk", 16 * 2 * 32, 2, 32}, // 16 sets: fewer than one chunk
		{"direct-mapped", 256 * 32, 1, 32},
		{"3-way", 128 * 3 * 32, 3, 32},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				c := NewCache(g.size, g.ways, g.lineBytes)
				ref := newFlatCache(g.size, g.ways, g.lineBytes)
				rng := rand.New(rand.NewSource(seed))
				for step := 0; step < 20000; step++ {
					var addr uint32
					switch r := rng.Intn(10); {
					case r < 5:
						addr = uint32(rng.Intn(g.size / 2))
					case r < 9:
						addr = uint32(rng.Intn(4 * g.size))
					default:
						addr = rng.Uint32()
					}
					write := rng.Intn(3) == 0
					hit, dirty := c.Access(addr, write)
					rhit, rdirty := ref.Access(addr, write)
					if hit != rhit || dirty != rdirty {
						t.Fatalf("step %d: Access(%#x, %v) = (%v, %v), reference (%v, %v)",
							step, addr, write, hit, dirty, rhit, rdirty)
					}
					if c.Hits != ref.Hits || c.Misses != ref.Misses ||
						c.Evictions != ref.Evictions || c.DirtyEv != ref.DirtyEv {
						t.Fatalf("step %d: counters %d/%d/%d/%d, reference %d/%d/%d/%d", step,
							c.Hits, c.Misses, c.Evictions, c.DirtyEv,
							ref.Hits, ref.Misses, ref.Evictions, ref.DirtyEv)
					}
					probe := rng.Uint32() % uint32(8*g.size)
					for _, a := range []uint32{addr, probe} {
						if got, want := c.Contains(a), ref.Contains(a); got != want {
							t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, a, got, want)
						}
					}
					if rng.Intn(1000) == 0 {
						if got, want := c.Flush(), ref.Flush(); got != want {
							t.Fatalf("step %d: Flush wrote back %d, reference %d", step, got, want)
						}
					}
				}
				if got, want := c.Flush(), ref.Flush(); got != want {
					t.Fatalf("final Flush wrote back %d, reference %d", got, want)
				}
			})
		}
	}
}
