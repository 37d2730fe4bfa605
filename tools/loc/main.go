// Command loc is the repository's line ledger: it counts the lines of Go
// source per package, split into serving code, tests, the benchmark
// (bench/) and tools (tools/), and with -base the change against another
// git revision of the tree.
//
//	go run ./tools/loc [-base <git-ref>] [-check] [root]
//
// A test is any _test.go file; serving code is every other Go file
// outside bench/ and tools/. Lines are counted like wc -l, and testdata
// and hidden directories (.git, .bench_build) are skipped.
//
// With -check the ledger is a gate: the command fails when the serving
// total exceeds the ceiling committed in tools/loc/ceiling, and reports
// when the total has fallen ceilingSlack or more lines below it, so the
// ceiling can be lowered. A change that must grow the serving code
// raises the ceiling in its own diff.
package main

import (
	"archive/tar"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing/fstest"
)

// ceilingFile holds the -check gate's ceiling, relative to the root.
const ceilingFile = "tools/loc/ceiling"

// ceilingSlack is how far below the ceiling the serving total may fall
// before -check reports that the ceiling should come down.
const ceilingSlack = 100

// Line categories, in column order.
const (
	serving = iota
	test
	bench
	tools
	nCategories
)

var categoryNames = [nCategories]string{"serving", "test", "bench", "tools"}

// ledger maps a package directory to its line counts per category.
type ledger map[string]*[nCategories]int

func main() {
	base := flag.String("base", "", "git revision to report the change against")
	gate := flag.Bool("check", false, "fail if serving lines exceed the ceiling in "+ceilingFile)
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	now, err := count(os.DirFS(root))
	if err != nil {
		fmt.Fprintln(os.Stderr, "loc:", err)
		os.Exit(1)
	}
	var then ledger
	if *base != "" {
		tree, err := gitTree(root, *base)
		if err == nil {
			then, err = count(tree)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(1)
		}
	}
	fmt.Print(render(now, then))
	if *gate {
		ceiling, err := readCeiling(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(1)
		}
		msg, ok := check(now.total()[serving], ceiling)
		fmt.Println(msg)
		if !ok {
			os.Exit(1)
		}
	}
}

// readCeiling reads the committed serving-line ceiling.
func readCeiling(root string) (int, error) {
	data, err := os.ReadFile(filepath.Join(root, ceilingFile))
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return 0, fmt.Errorf("%s: %v", ceilingFile, err)
	}
	return n, nil
}

// check gates a serving total against the ceiling: it fails above the
// ceiling and asks for a lower ceiling once the total is ceilingSlack or
// more below it.
func check(servingLines, ceiling int) (string, bool) {
	switch {
	case servingLines > ceiling:
		return fmt.Sprintf("FAIL: %d serving lines exceed the ceiling of %d in %s by %d; delete lines or raise the ceiling in the same change",
			servingLines, ceiling, ceilingFile, servingLines-ceiling), false
	case servingLines <= ceiling-ceilingSlack:
		return fmt.Sprintf("ok: %d serving lines, %d below the ceiling of %d; lower %s to %d",
			servingLines, ceiling-servingLines, ceiling, ceilingFile, servingLines), true
	}
	return fmt.Sprintf("ok: %d serving lines, ceiling %d", servingLines, ceiling), true
}

// total sums the ledger over every package.
func (l ledger) total() [nCategories]int {
	var t [nCategories]int
	for _, n := range l {
		for c := range n {
			t[c] += n[c]
		}
	}
	return t
}

// category classifies a Go file by its slash-separated path.
func category(name string) int {
	switch {
	case strings.HasSuffix(name, "_test.go"):
		return test
	case strings.HasPrefix(name, "bench/"):
		return bench
	case strings.HasPrefix(name, "tools/"):
		return tools
	}
	return serving
}

// count builds the ledger of every Go file in fsys.
func count(fsys fs.FS) (ledger, error) {
	l := ledger{}
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); name != "." && (base == "testdata" || strings.HasPrefix(base, ".")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		pkg := path.Dir(name)
		if l[pkg] == nil {
			l[pkg] = new([nCategories]int)
		}
		l[pkg][category(name)] += bytes.Count(src, []byte("\n"))
		return nil
	})
	return l, err
}

// gitTree reads the tree of revision ref of the repository at root.
func gitTree(root, ref string) (fs.FS, error) {
	cmd := exec.Command("git", "-C", root, "archive", "--format=tar", ref)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("git archive %s: %v: %s", ref, err, strings.TrimSpace(stderr.String()))
	}
	tree := fstest.MapFS{}
	r := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := r.Next()
		if errors.Is(err, io.EOF) {
			return tree, nil
		}
		if err != nil {
			return nil, err
		}
		if h.Typeflag != tar.TypeReg {
			continue
		}
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		tree[h.Name] = &fstest.MapFile{Data: data, Mode: 0o644}
	}
}

// render prints one row per package and a total; with a base ledger each
// cell also shows its change, and packages only the base has are listed.
func render(now, then ledger) string {
	pkgs := map[string]bool{}
	for pkg := range now {
		pkgs[pkg] = true
	}
	for pkg := range then {
		pkgs[pkg] = true
	}
	names := make([]string, 0, len(pkgs))
	for pkg := range pkgs {
		names = append(names, pkg)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s", "package")
	for _, c := range categoryNames {
		fmt.Fprintf(&b, " %16s", c)
	}
	b.WriteString("\n")
	row := func(name string, n, t *[nCategories]int) {
		fmt.Fprintf(&b, "%-32s", name)
		for c := range n {
			cell := fmt.Sprint(n[c])
			if then != nil {
				cell += fmt.Sprintf(" (%+d)", n[c]-t[c])
			}
			fmt.Fprintf(&b, " %16s", cell)
		}
		b.WriteString("\n")
	}
	for _, pkg := range names {
		n, t := now[pkg], then[pkg]
		if n == nil {
			n = new([nCategories]int)
		}
		if t == nil {
			t = new([nCategories]int)
		}
		row(pkg, n, t)
	}
	total, totalThen := now.total(), then.total()
	row("total", &total, &totalThen)
	return b.String()
}
