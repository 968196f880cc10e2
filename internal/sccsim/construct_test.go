package sccsim

import (
	"bytes"
	"runtime"
	"testing"
)

// newBytes returns the fewest heap bytes New(cfg) allocated over a few
// tries; the minimum filters out allocations by other goroutines.
func newBytes(t *testing.T, cfg Config) uint64 {
	t.Helper()
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 5; try++ {
		runtime.ReadMemStats(&before)
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestNewCostIndependentOfMemorySizes: building a machine allocates
// nothing in proportion to its MPB or L2 size; both materialise only
// where a run touches them.
func TestNewCostIndependentOfMemorySizes(t *testing.T) {
	base := DefaultConfig()
	big := base
	big.MPBPerCoreBytes = 4 * base.MPBStride()
	big.L2Bytes = 4 * base.L2Bytes
	if a, b := newBytes(t, base), newBytes(t, big); a != b {
		t.Errorf("New allocates %d B at default sizes, %d B with 4x MPB and L2", a, b)
	}
}

// TestMPBStraddlingEnd: an access that straddles MPBTotal is truncated to
// the bytes inside the MPB, with the latency of any access to the last
// core's section (picoseconds on scc48, pinned from the flat-array MPB).
func TestMPBStraddlingEnd(t *testing.T) {
	m := testMachine(t)
	addr := MPBBase + uint32(m.cfg.MPBTotal()) - 2
	if lat := m.Store(0, addr, []byte{1, 2, 3, 4}, 0); lat != 58750 {
		t.Errorf("store latency = %d, want 58750", lat)
	}
	want := []byte{1, 2, 9, 9}
	for _, c := range []struct {
		core int
		lat  Time
	}{{0, 1250}, {m.cfg.Cores - 1, 18750}} {
		buf := []byte{9, 9, 9, 9}
		if lat := m.Load(c.core, addr, buf, 0); lat != c.lat {
			t.Errorf("core %d: load latency = %d, want %d", c.core, lat, c.lat)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("core %d: load = %v, want %v", c.core, buf, want)
		}
	}
	buf := []byte{9, 9, 9, 9}
	m.ReadBytes(0, addr, buf)
	if !bytes.Equal(buf, want) {
		t.Errorf("ReadBytes = %v, want %v", buf, want)
	}
}

// TestMPBPastEndPanics: an offset past MPBTotal panics on every path and
// materialises no page; one exactly at MPBTotal moves no bytes.
func TestMPBPastEndPanics(t *testing.T) {
	m := testMachine(t)
	end := MPBBase + uint32(m.cfg.MPBTotal())
	data := []byte{1, 2, 3, 4}
	m.Store(0, end, data, 0)
	m.WriteBytes(0, end, data)
	paths := map[string]func(addr uint32){
		"Load":       func(a uint32) { m.Load(0, a, make([]byte, 4), 0) },
		"Store":      func(a uint32) { m.Store(0, a, data, 0) },
		"ReadBytes":  func(a uint32) { m.ReadBytes(0, a, make([]byte, 4)) },
		"WriteBytes": func(a uint32) { m.WriteBytes(0, a, data) },
	}
	for name, f := range paths {
		for _, addr := range []uint32{end + 1, end + 4096, ^uint32(0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at %#x did not panic", name, addr)
					}
				}()
				f(addr)
			}()
		}
	}
	if n := m.mpb.Touched(); n != 0 {
		t.Errorf("MPB pages touched = %d, want 0", n)
	}
}

// BenchmarkMachineNew: the cost of building a machine and touching its
// private, shared and MPB memory once, as the shortest run would.
func BenchmarkMachineNew(b *testing.B) {
	for _, name := range []string{"scc48", "mesh1024"} {
		cfg := MustPreset(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			data := []byte{1, 2, 3, 4}
			for i := 0; i < b.N; i++ {
				m := MustNew(cfg)
				m.Store(0, 0x1000, data, 0)
				m.Store(1, SharedBase, data, 0)
				m.Store(1, MPBBase, data, 0)
			}
		})
	}
}
