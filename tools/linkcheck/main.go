// Command linkcheck validates the repository's markdown cross-references
// offline: every relative link target must exist, and every fragment
// (#anchor) into a markdown file must match a heading there (GitHub's
// slug rules, approximately). External http(s)/mailto links are skipped —
// the check must stay deterministic in CI. Go comments count too: every
// markdown file name a comment cites must exist, relative to the Go
// file's directory or to the root.
//
//	go run ./tools/linkcheck [root]
//
// Exits non-zero listing every broken link.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target); images share the
// syntax and are checked the same way.
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)

// mdNameRe matches a markdown file name in comment text; urlRe matches
// the external URLs removed from the text first.
var (
	mdNameRe = regexp.MustCompile(`[\w./-]*\w\.md\b`)
	urlRe    = regexp.MustCompile(`\w+://\S+`)
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	broken, checked, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
	for _, b := range broken {
		fmt.Fprintln(os.Stderr, "broken link:", b)
	}
	fmt.Printf("linkcheck: %d links checked, %d broken\n", checked, len(broken))
	if len(broken) > 0 {
		os.Exit(1)
	}
}

func run(root string) (broken []string, checked int, err error) {
	var files, goFiles []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		switch ext := filepath.Ext(path); {
		case strings.EqualFold(ext, ".md"):
			files = append(files, path)
		case ext == ".go":
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, 0, err
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if skip(target) {
				continue
			}
			checked++
			if reason := check(file, target); reason != "" {
				broken = append(broken, fmt.Sprintf("%s -> %s (%s)", file, target, reason))
			}
		}
	}
	for _, file := range goFiles {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, 0, err
		}
		for _, name := range commentMarkdownNames(src) {
			checked++
			if !exists(filepath.Join(filepath.Dir(file), name)) && !exists(filepath.Join(root, name)) {
				broken = append(broken, fmt.Sprintf("%s -> %s (missing file)", file, name))
			}
		}
	}
	return broken, checked, nil
}

// commentMarkdownNames returns the markdown file names cited in a Go
// source file's comments, in order. String literals are not comments.
func commentMarkdownNames(src []byte) []string {
	fset := token.NewFileSet()
	var sc scanner.Scanner
	sc.Init(fset.AddFile("", fset.Base(), len(src)), src, nil, scanner.ScanComments)
	var names []string
	for {
		_, tok, lit := sc.Scan()
		switch tok {
		case token.EOF:
			return names
		case token.COMMENT:
			names = append(names, mdNameRe.FindAllString(urlRe.ReplaceAllString(lit, ""), -1)...)
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func skip(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:")
}

// check validates one relative target from the linking file's directory.
func check(from, target string) string {
	path, frag, _ := strings.Cut(target, "#")
	resolved := filepath.Dir(from)
	if path != "" {
		resolved = filepath.Join(filepath.Dir(from), path)
		if !exists(resolved) {
			return "missing file"
		}
	} else {
		resolved = from // pure fragment: anchor within the same file
	}
	if frag == "" {
		return ""
	}
	if !strings.EqualFold(filepath.Ext(resolved), ".md") {
		return "" // fragments into non-markdown files are not checkable
	}
	raw, err := os.ReadFile(resolved)
	if err != nil {
		return "unreadable target"
	}
	for _, h := range headingRe.FindAllStringSubmatch(string(raw), -1) {
		if slugify(h[1]) == strings.ToLower(frag) {
			return ""
		}
	}
	return "missing anchor #" + frag
}

// slugify approximates GitHub's heading→anchor rule: lowercase, drop
// everything but letters/digits/spaces/hyphens, spaces become hyphens.
func slugify(heading string) string {
	// Strip inline markdown emphasis/code markers first.
	heading = strings.NewReplacer("`", "", "*", "", "_", "").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}
