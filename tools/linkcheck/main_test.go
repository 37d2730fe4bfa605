package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes files (path → content) under a temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLinkcheck(t *testing.T) {
	cases := []struct {
		name       string
		files      map[string]string
		wantBroken []string // substrings, one per expected broken link
		wantOK     int      // links that must have been checked in total
	}{
		{
			name: "valid relative links and anchors pass",
			files: map[string]string{
				"README.md":     "[docs](docs/GUIDE.md) [sec](docs/GUIDE.md#deep-dive) [self](#intro)\n\n# Intro\n",
				"docs/GUIDE.md": "# Guide\n\n## Deep Dive\n\nBody. [back](../README.md)\n",
			},
			wantOK: 4,
		},
		{
			name: "broken relative link reported",
			files: map[string]string{
				"README.md": "[gone](missing/file.md)\n",
			},
			wantBroken: []string{"missing/file.md (missing file)"},
			wantOK:     1,
		},
		{
			name: "missing anchor reported",
			files: map[string]string{
				"README.md": "[sec](GUIDE.md#no-such-heading)\n",
				"GUIDE.md":  "# Guide\n\n## Real Heading\n",
			},
			wantBroken: []string{"missing anchor #no-such-heading"},
			wantOK:     1,
		},
		{
			name: "anchor slugs handle punctuation and code spans",
			files: map[string]string{
				"README.md": "[a](G.md#what-lcm-gives-you) [b](G.md#the-reshard-protocol)\n",
				"G.md":      "# What LCM gives you\n\n## The `Reshard` protocol\n",
			},
			wantOK: 2,
		},
		{
			name: "external links are skipped",
			files: map[string]string{
				"README.md": "[ext](https://example.com/x) [mail](mailto:a@b.c) [rel](REAL.md)\n",
				"REAL.md":   "# Real\n",
			},
			wantOK: 1, // only the relative link is checked
		},
		{
			name: "markdown names in Go comments must exist",
			files: map[string]string{
				"README.md":     "# Readme\n",
				"docs/GUIDE.md": "# Guide\n",
				"pkg/NOTES.md":  "# Notes\n",
				"pkg/a.go": "// See DESIGN.md and README.md.\npackage pkg\n\n" +
					"/* docs/GUIDE.md, NOTES.md; https://example.com/X.md is external */\n" +
					"var s = \"MISSING.md in a string literal\"\n",
			},
			wantBroken: []string{"DESIGN.md (missing file)"},
			wantOK:     4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := writeTree(t, tc.files)
			broken, checked, err := run(root)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if checked != tc.wantOK {
				t.Fatalf("checked %d links, want %d (broken: %v)", checked, tc.wantOK, broken)
			}
			if len(broken) != len(tc.wantBroken) {
				t.Fatalf("broken = %v, want %d entries", broken, len(tc.wantBroken))
			}
			for i, want := range tc.wantBroken {
				if !strings.Contains(broken[i], want) {
					t.Fatalf("broken[%d] = %q, want substring %q", i, broken[i], want)
				}
			}
		})
	}
}

// The repository's own markdown must stay link-clean — the same
// invariant the CI job enforces, runnable locally via go test.
func TestRepositoryLinksClean(t *testing.T) {
	broken, _, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(broken) > 0 {
		t.Fatalf("repository has broken markdown links:\n%s", strings.Join(broken, "\n"))
	}
}
