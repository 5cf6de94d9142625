package domino

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTokenStreams pins the shared scanner, configured for Domino, to
// the token streams (position, kind, text) the package's own lexer produced
// for each of the twelve Table-1 programs of internal/spec before it was retired.
func TestTokenStreams(t *testing.T) {
	srcs, err := filepath.Glob("testdata/tokens/*.src")
	if err != nil || len(srcs) != 12 {
		t.Fatalf("found %d program sources (%v), want 12", len(srcs), err)
	}
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(strings.TrimSuffix(path, ".src") + ".tokens")
		if err != nil {
			t.Fatal(err)
		}
		toks, err := lang.Scan(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var got strings.Builder
		for _, tk := range toks {
			fmt.Fprintf(&got, "%d:%d\t%s\t%q\n", tk.Line, tk.Col, string(tk.Kind), tk.Text)
		}
		if got.String() != string(want) {
			t.Errorf("%s: token stream differs from the pinned one:\n%s", path, got.String())
		}
	}
}
