// Package golden keeps committed digest files for tests that pin
// simulated results. A file maps case names to hex sha256 digests, one
// "name digest" pair per line in name order. Tests collect the digests
// of the cases they ran into a Set and Verify it against the file: a
// changed, missing or extra entry fails the test. Running the test with
// -update rewrites the file instead — legitimate only for a change that
// is meant to alter simulated results (docs/TESTING.md).
//
// Only test code imports this package; it registers the -update flag.
package golden

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Update makes Verify (and any other golden file check in the test
// binary) rewrite its file instead of comparing against it.
var Update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Sum returns the hex sha256 of b.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// Set collects named digests for one golden file. Add is safe for
// concurrent use, so a worker pool can feed one Set.
type Set struct {
	path string
	mu   sync.Mutex
	got  map[string]string
}

// NewSet starts an empty collection for the golden file at path.
func NewSet(path string) *Set {
	return &Set{path: path, got: make(map[string]string)}
}

// Add records the digest of one case.
func (s *Set) Add(name, digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got[name] = digest
}

// Verify compares the collected digests with the golden file, or
// rewrites the file under -update.
func (s *Set) Verify(t testing.TB) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if *Update {
		if err := s.write(); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %d digests to %s", len(s.got), s.path)
		return
	}
	want, err := read(s.path)
	if err != nil {
		t.Fatalf("golden: %v (run with -update to create)", err)
	}
	var diffs []string
	for name, d := range s.got {
		w, ok := want[name]
		switch {
		case !ok:
			diffs = append(diffs, "extra   "+name)
		case w != d:
			diffs = append(diffs, "changed "+name)
		}
	}
	for name := range want {
		if _, ok := s.got[name]; !ok {
			diffs = append(diffs, "missing "+name)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		t.Errorf("golden: %d of %d entries differ from %s:\n  %s\nrerun with -update only if the change is meant to alter simulated results",
			len(diffs), len(want), s.path, strings.Join(diffs, "\n  "))
	}
}

func (s *Set) write() error {
	names := make([]string, 0, len(s.got))
	for name := range s.got {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %s\n", name, s.got[name])
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(s.path, []byte(sb.String()), 0o644)
}

func read(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok || name == "" || digest == "" {
			return nil, fmt.Errorf("%s:%d: want \"name digest\"", path, line)
		}
		want[name] = digest
	}
	return want, sc.Err()
}
