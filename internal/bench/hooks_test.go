package bench

import (
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

type nopSink struct{}

func (nopSink) TraceSpawn(int, int, sccsim.Time)                                           {}
func (nopSink) TraceResume(int, int, sccsim.Time)                                          {}
func (nopSink) TraceSuspend(int, int, sccsim.Time, interp.SuspendKind, interp.BlockReason) {}
func (nopSink) TraceUnblock(int, int, sccsim.Time)                                         {}
func (nopSink) TraceSpin(int, int, sccsim.Time, int)                                       {}

type nopProfiler struct{}

func (nopProfiler) NoteAccess(int, uint32, bool) {}

// neutralStubs are non-nil hook values that leave a run's results
// unchanged, one per hook field type.
var neutralStubs = []any{
	func() error { return nil },
	func(string) error { return nil },
	func(string) func() { return func() {} },
	func(s string) (string, error) { return s, nil },
	nopSink{},
	nopProfiler{},
}

// withEachField calls f once per field of the struct type H, with only
// that field set to its neutral stub. Iterating by reflection
// covers any field added later; a field of a new type fails until it
// has a stub.
func withEachField[H any](t *testing.T, f func(name string, h H)) {
	t.Helper()
	typ := reflect.TypeOf((*H)(nil)).Elem()
	for i := 0; i < typ.NumField(); i++ {
		fld := typ.Field(i)
		var stub reflect.Value
		for _, s := range neutralStubs {
			if v := reflect.ValueOf(s); v.Type().AssignableTo(fld.Type) {
				stub = v
				break
			}
		}
		if !stub.IsValid() {
			t.Fatalf("%s.%s: no neutral stub for type %v", typ, fld.Name, fld.Type)
		}
		var h H
		reflect.ValueOf(&h).Elem().Field(i).Set(stub)
		f(typ.Name()+"."+fld.Name, h)
	}
}

// TestHooksNeverEnterCacheIdentity pins the per-run rule: setting any
// field of bench.Hooks, or of the interp.Hooks inside the runtime
// options, changes no cache key, and a second baseline or profiling
// pass with the hook set is served from the cache.
func TestHooksNeverEnterCacheIdentity(t *testing.T) {
	w, _ := ByKey("pi")
	base := quickConfig()
	base.Threads = 4
	base.Cache = NewCache()
	if _, err := RunBaseline(w, base); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileWorkload(w, base); err != nil {
		t.Fatal(err)
	}
	wantBase, wantRCCE := base.baselineEnv(), base.rcceEnv()
	wantKey := base.translationKey(w, partition.PolicySizeAscending, 1<<14, nil)

	check := func(name string, cfg Config) {
		if got := cfg.baselineEnv(); got != wantBase {
			t.Errorf("%s changes the baseline env:\n got %s\nwant %s", name, got, wantBase)
		}
		if got := cfg.rcceEnv(); got != wantRCCE {
			t.Errorf("%s changes the RCCE env:\n got %s\nwant %s", name, got, wantRCCE)
		}
		if got := cfg.translationKey(w, partition.PolicySizeAscending, 1<<14, nil); got != wantKey {
			t.Errorf("%s changes the translation key: %+v, want %+v", name, got, wantKey)
		}
		if _, err := RunBaseline(w, cfg); err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		if _, err := ProfileWorkload(w, cfg); err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		st := cfg.Cache.Stats()
		if st.BaselineRuns != 1 || st.ProfileRuns != 1 {
			t.Errorf("%s: %d baseline runs, %d profile runs; want 1 and 1 (cache hits)",
				name, st.BaselineRuns, st.ProfileRuns)
		}
	}
	withEachField(t, func(name string, h Hooks) {
		cfg := base
		cfg.Hooks = h
		check(name, cfg)
	})
	withEachField(t, func(name string, h interp.Hooks) {
		cfg := base
		cfg.Baseline.Hooks = h
		cfg.RCCE = func(n int) rcce.Options {
			o := rcce.DefaultOptions(n)
			o.Hooks = h
			return o
		}
		check(name, cfg)
	})
}
