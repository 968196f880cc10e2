package sccsim

// pageSize is the granularity of the sparse backing store. 4 KB matches
// the SCC page tables, though the value only affects allocation locality.
const pageSize = 4096

const (
	pageShift = 12 // log2(pageSize)
	pageMask  = pageSize - 1
	// The 32-bit physical space holds 2^20 pages; a two-level table
	// (1024 directories of 1024 pages) resolves any of them with two
	// array indexes — no map hash on the access path.
	dirShift = 10
	dirSize  = 1 << dirShift
	leafMask = dirSize - 1
)

// PageMem is a sparse byte-addressable memory: pages materialise zeroed on
// first touch, so stacks high in the address space and heaps low coexist
// without reserving the range between them.
//
// The access path is allocation- and hash-free: a two-entry last-page
// cache catches the loop locality of the interpreter's contiguous
// low/heap and high/stack ranges (which alternate per statement), and
// misses fall through to a dense two-level page table (directory of
// leaf arrays) instead of the former map lookup. BenchmarkPageMemAccess
// pins the difference.
//
// Both levels are fixed-size arrays of pointers, allocated on first
// touch: the root directory costs 8 KB once per memory that is touched
// at all, and each leaf another 8 KB per 4 MB region in use.
type PageMem struct {
	// Two-entry most-recent-page cache: interpreter traffic alternates
	// between a data page (array/heap) and the stack page of the current
	// frame, so one entry per stream catches both.
	lastKey uint32
	last    *[pageSize]byte
	prevKey uint32
	prev    *[pageSize]byte
	// dir is the root directory, allocated on first touch so that the
	// untouched cores of a freshly built machine cost nothing.
	dir     *[dirSize]*[dirSize]*[pageSize]byte
	touched int
}

// NewPageMem returns an empty memory.
func NewPageMem() *PageMem {
	return &PageMem{}
}

func (p *PageMem) page(addr uint32) *[pageSize]byte {
	key := addr >> pageShift
	if key == p.lastKey && p.last != nil {
		return p.last
	}
	if key == p.prevKey && p.prev != nil {
		p.lastKey, p.prevKey = p.prevKey, p.lastKey
		p.last, p.prev = p.prev, p.last
		return p.last
	}
	return p.pageSlow(key)
}

func (p *PageMem) pageSlow(key uint32) *[pageSize]byte {
	if p.dir == nil {
		p.dir = new([dirSize]*[dirSize]*[pageSize]byte)
	}
	leaf := p.dir[key>>dirShift]
	if leaf == nil {
		leaf = new([dirSize]*[pageSize]byte)
		p.dir[key>>dirShift] = leaf
	}
	pg := leaf[key&leafMask]
	if pg == nil {
		pg = new([pageSize]byte)
		leaf[key&leafMask] = pg
		p.touched++
	}
	p.prevKey, p.prev = p.lastKey, p.last
	p.lastKey, p.last = key, pg
	return pg
}

// Read copies len(buf) bytes starting at addr into buf. The interpreter
// issues word-sized accesses that almost never straddle a page, so the
// single-page case is handled without the span loop.
func (p *PageMem) Read(addr uint32, buf []byte) {
	off := addr & pageMask
	if int(off)+len(buf) <= pageSize {
		copy(buf, p.page(addr)[off:])
		return
	}
	for len(buf) > 0 {
		pg := p.page(addr)
		off := addr & pageMask
		n := copy(buf, pg[off:])
		buf = buf[n:]
		addr += uint32(n)
	}
}

// Write copies data into memory starting at addr.
func (p *PageMem) Write(addr uint32, data []byte) {
	off := addr & pageMask
	if int(off)+len(data) <= pageSize {
		copy(p.page(addr)[off:], data)
		return
	}
	for len(data) > 0 {
		pg := p.page(addr)
		off := addr & pageMask
		n := copy(pg[off:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// Zero clears size bytes starting at addr.
func (p *PageMem) Zero(addr uint32, size int) {
	var zeros [pageSize]byte
	for size > 0 {
		n := pageSize
		if size < n {
			n = size
		}
		p.Write(addr, zeros[:n])
		addr += uint32(n)
		size -= n
	}
}

// Touched returns the number of materialised pages (test/diagnostic aid).
func (p *PageMem) Touched() int { return p.touched }
