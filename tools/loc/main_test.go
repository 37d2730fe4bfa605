package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"testing/fstest"
)

// fixture is a small tree with a file of every category, plus what the
// ledger skips.
func fixture() fstest.MapFS {
	file := func(lines int) *fstest.MapFile {
		return &fstest.MapFile{Data: []byte(strings.Repeat("x\n", lines))}
	}
	return fstest.MapFS{
		"lcm.go":                      file(2),
		"lcm_test.go":                 file(5),
		"internal/core/state.go":      file(10),
		"internal/core/trusted.go":    file(20),
		"internal/core/state_test.go": file(7),
		"internal/core/testdata/x.go": file(100),
		"internal/core/README.md":     file(100),
		"bench/main.go":               file(30),
		"bench/bench_test.go":         file(4),
		"tools/loc/main.go":           file(8),
		".bench_build/tmp/gen.go":     file(100),
	}
}

func TestCountSplitsCategories(t *testing.T) {
	l, err := count(fixture())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][nCategories]int{
		".":             {2, 5, 0, 0},
		"internal/core": {30, 7, 0, 0},
		"bench":         {0, 4, 30, 0},
		"tools/loc":     {0, 0, 0, 8},
	}
	if len(l) != len(want) {
		t.Fatalf("ledger has %d packages, want %d: %v", len(l), len(want), l)
	}
	for pkg, w := range want {
		if got := l[pkg]; got == nil || *got != w {
			t.Errorf("%s = %v, want %v", pkg, got, w)
		}
	}
}

func TestRenderDeltaAgainstBase(t *testing.T) {
	then, err := count(fixture())
	if err != nil {
		t.Fatal(err)
	}
	tree := fixture()
	tree["internal/core/state.go"] = &fstest.MapFile{Data: []byte("x\n")}
	delete(tree, "tools/loc/main.go")
	tree["internal/kvs/kvs.go"] = &fstest.MapFile{Data: []byte("x\nx\nx\n")}
	now, err := count(tree)
	if err != nil {
		t.Fatal(err)
	}
	// Rows compared with their runs of spaces collapsed.
	rows := func(out string) map[string]bool {
		m := map[string]bool{}
		for _, line := range strings.Split(out, "\n") {
			m[strings.Join(strings.Fields(line), " ")] = true
		}
		return m
	}
	out := rows(render(now, then))
	for _, want := range []string{
		"internal/core 21 (-9) 7 (+0) 0 (+0) 0 (+0)",
		"internal/kvs 3 (+3) 0 (+0) 0 (+0) 0 (+0)",
		"tools/loc 0 (+0) 0 (+0) 0 (+0) 0 (-8)",
		"total 26 (-6) 16 (+0) 30 (+0) 0 (-8)",
	} {
		if !out[want] {
			t.Errorf("render lacks the row %q:\n%s", want, render(now, then))
		}
	}
	if plain := rows(render(now, nil)); !plain["total 26 16 30 0"] || plain["tools/loc 0 0 0 0"] {
		t.Errorf("render without a base:\n%s", render(now, nil))
	}
}

// -base reads the tree of a git revision, committed files only.
func TestGitTreeReadsRevision(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	root := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", root, "-c", "user.name=loc", "-c", "user.email=loc@example.com"}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v: %s", args, err, out)
		}
	}
	write := func(name, data string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("internal/a/a.go", "x\nx\n")
	git("add", "-A")
	git("commit", "-q", "-m", "base")
	write("internal/a/a.go", "x\nx\nx\nx\n")
	tree, err := gitTree(root, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	l, err := count(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got := l["internal/a"]; got == nil || got[serving] != 2 {
		t.Fatalf("internal/a at HEAD = %v, want 2 serving lines", got)
	}
	if _, err := gitTree(root, "no-such-ref"); err == nil {
		t.Fatal("an unknown revision read")
	}
}
