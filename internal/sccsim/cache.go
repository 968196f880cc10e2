package sccsim

// Cache is a set-associative, write-back, write-allocate cache model with
// LRU replacement. It tracks tags only — data lives in the machine's
// backing stores — which is sufficient because the SCC's caches are
// non-coherent and private: a cached line can never be stale with respect
// to another core's writes (shared pages are uncacheable), so hit/miss
// behaviour is independent of contents.
//
// Lines are stored ways-major in chunks of chunkSets sets (set s occupies
// ways consecutive lines of chunk s/chunkSets), and Access resolves hit
// and LRU victim in a single pass — this sits directly on the simulator's
// per-access hot path, so it is kept branch-lean and allocation-free.
//
// A chunk is materialised the first time one of its sets is touched, and
// the chunk table at the first access. A machine constructs one L1+L2
// pair per core, but a run touches only the cores it schedules work on,
// and those touch only the sets their working set maps to: the scc48 L2
// is 32 chunks of 4 KB, of which a short simulation touches a few. A
// cache with fewer sets than chunkSets is a single chunk.
type Cache struct {
	chunks    [][]cacheLine
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

// cacheLine packs to 16 bytes (used, tag, flag bits) so a set scan
// stays within one or two host cache lines.
type cacheLine struct {
	used  uint64
	tag   uint32
	flags uint8 // bit 0: valid, bit 1: dirty
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
)

// chunkSets is the number of sets materialised together; chunkShift and
// chunkMask split a set index into chunk and set-within-chunk.
const (
	chunkShift = 6
	chunkSets  = 1 << chunkShift
	chunkMask  = chunkSets - 1
)

// invalidTag marks an empty way. Real line addresses are addr>>lineBits
// with lineBits >= 1 (Config.Validate requires a line size of at least
// two bytes), so the all-ones tag can never match an access — which
// lets the hit scan test the tag alone, with no validity load.
const invalidTag = ^uint32(0)

// NewCache builds a cache of the given geometry. size and lineBytes must
// be powers-of-two multiples.
func NewCache(size, ways, lineBytes int) *Cache {
	nsets := size / lineBytes / ways
	if nsets < 1 {
		nsets = 1
	}
	return &Cache{
		nlines:   nsets * ways,
		ways:     ways,
		lineBits: log2(lineBytes),
		setMask:  uint32(nsets - 1),
	}
}

func log2(v int) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Access looks up the line containing addr, allocating it on a miss.
// It returns whether the access hit and whether the allocation evicted a
// dirty line (which costs a write-back).
//
// Hits dominate every workload this model serves (the corpus runs >90%
// L1 hit rates), so the hit scan is a pure tag compare — empty ways hold
// invalidTag, which no real line address can equal, and the flags byte is
// never loaded. Only a miss pays the second scan for the LRU victim;
// invalid ways carry used==0 while valid ways carry used>=1, so the
// minimum-used way is exactly the first invalid way when one exists and
// the LRU way otherwise — the same choice the original scan made.
func (c *Cache) Access(addr uint32, write bool) (hit, dirtyEvict bool) {
	c.tick++
	lineAddr := addr >> c.lineBits
	s := int(lineAddr & c.setMask)
	var chunk []cacheLine
	if ci := s >> chunkShift; ci < len(c.chunks) && c.chunks[ci] != nil {
		chunk = c.chunks[ci]
	} else {
		chunk = c.materialize(ci)
	}
	base := (s & chunkMask) * c.ways
	set := chunk[base : base+c.ways]
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

// materialize allocates chunk ci with every way marked empty, and the
// chunk table first if need be. It is kept out of line so the hit path
// of Access stays small.
//
//go:noinline
func (c *Cache) materialize(ci int) []cacheLine {
	nsets := int(c.setMask) + 1
	if c.chunks == nil {
		c.chunks = make([][]cacheLine, (nsets+chunkMask)>>chunkShift)
	}
	chunk := make([]cacheLine, min(nsets, chunkSets)*c.ways)
	for i := range chunk {
		chunk[i].tag = invalidTag
	}
	c.chunks[ci] = chunk
	return chunk
}

// Contains reports whether addr's line is resident (no state change).
func (c *Cache) Contains(addr uint32) bool {
	lineAddr := addr >> c.lineBits
	s := int(lineAddr & c.setMask)
	ci := s >> chunkShift
	if ci >= len(c.chunks) || c.chunks[ci] == nil {
		return false
	}
	base := (s & chunkMask) * c.ways
	set := c.chunks[ci][base : base+c.ways]
	for i := range set {
		if set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Flush invalidates every line, returning how many dirty lines were
// written back. The pthread baseline uses this to model the cache
// pollution of a context switch.
func (c *Cache) Flush() (dirty int) {
	for _, chunk := range c.chunks {
		for i := range chunk {
			if chunk[i].flags&(lineValid|lineDirty) == lineValid|lineDirty {
				dirty++
			}
			chunk[i] = cacheLine{tag: invalidTag}
		}
	}
	return dirty
}

// Lines returns the total line capacity.
func (c *Cache) Lines() int { return c.nlines }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }
