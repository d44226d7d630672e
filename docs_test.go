package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignPackageMap keeps DESIGN.md §5 honest: every directory
// under cmd/ and internal/ has a line in the package map,
// and every line names a directory that exists.
func TestDesignPackageMap(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 5. Package map\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 5. Package map\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	mapped := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^((?:cmd|internal)/[a-z0-9]+)/\s`).FindAllStringSubmatch(section, -1) {
		if mapped[m[1]] {
			t.Errorf("DESIGN.md §5 lists %s twice", m[1])
		}
		mapped[m[1]] = true
	}
	onDisk := map[string]bool{}
	for _, root := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				onDisk[root+"/"+e.Name()] = true
			}
		}
	}
	for d := range onDisk {
		if !mapped[d] {
			t.Errorf("%s is missing from the DESIGN.md §5 package map", d)
		}
	}
	for d := range mapped {
		if !onDisk[d] {
			t.Errorf("DESIGN.md §5 package map lists %s, which does not exist", d)
		}
	}
}

// TestChangesEntriesStayShort caps CHANGES.md entries from PR 15 on at
// 800 bytes: the log says what changed and where to look, DESIGN.md
// and the code say the rest.
func TestChangesEntriesStayShort(t *testing.T) {
	doc, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	// An entry runs from its "- PR N" line to the next one.
	number := regexp.MustCompile(`^\d+`)
	for _, e := range strings.Split("\n"+string(doc), "\n- PR ")[1:] {
		n, _ := strconv.Atoi(number.FindString(e))
		if size := len("- PR " + strings.TrimRight(e, "\n")); n >= 15 && size > 800 {
			t.Errorf("CHANGES.md entry for PR %d is %d bytes (cap 800)", n, size)
		}
	}
}

// TestDesignStaysShort caps DESIGN.md at 500 lines: it says how the
// code is built and why, and narrates no machinery the code no longer
// has.
func TestDesignStaysShort(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), "\n"); n > 500 {
		t.Errorf("DESIGN.md is %d lines (cap 500)", n)
	}
}

// TestDocumentedFlagsExist keeps the command lines in README.md and
// DESIGN.md runnable: every -name written after a cmd/ binary (spelled
// rtrsim, go run ./cmd/rtrsim, cmd/rtrsim, ...) must be declared by a
// flag.*("name", ...) call in that binary's main.go. A flag's segment
// runs to the end of its line (or its backslash continuation), an
// inline-code backtick, a shell comment or a pipe.
func TestDocumentedFlagsExist(t *testing.T) {
	declare := regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&[\w.]+,\s*)?"([a-z0-9-]+)"`)
	declared := map[string]map[string]bool{}
	for _, bin := range []string{"rtrsim", "rtrsimd", "rtrload", "rtrscale", "rtrtrace", "topogen"} {
		src, err := os.ReadFile(filepath.Join("cmd", bin, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		declared[bin] = map[string]bool{}
		for _, m := range declare.FindAllStringSubmatch(string(src), -1) {
			declared[bin][m[1]] = true
		}
	}
	use := regexp.MustCompile(`\b(rtrsimd|rtrsim|rtrload|rtrscale|rtrtrace|topogen)[ \t]([^` + "`" + `#|\n]*)`)
	name := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, m := range use.FindAllStringSubmatch(joined, -1) {
			for _, f := range name.FindAllStringSubmatch(m[2], -1) {
				checked++
				if !declared[m[1]][f[1]] {
					t.Errorf("%s documents %s -%s, which cmd/%s/main.go does not declare", doc, m[1], f[1], m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented flags found; the pattern is broken")
	}
}

// TestDocumentedExperimentsExist keeps every rtrsim command line in
// README.md, DESIGN.md and EXPERIMENTS.md to experiments rtrsim runs:
// each -exp value names only experiments of the package comment's
// "Experiments:" list (which cmd/rtrsim's tests hold to the table), or
// all.
func TestDocumentedExperimentsExist(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("cmd", "rtrsim", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	doc = strings.Join(strings.Fields(strings.ReplaceAll(doc, "//", " ")), " ")
	_, list, ok := strings.Cut(doc, "Experiments: ")
	list, _, ok2 := strings.Cut(list, " (and \"all\")")
	if !ok || !ok2 {
		t.Fatal("cmd/rtrsim/main.go's package comment has no \"Experiments: ... (and \"all\")\" list")
	}
	known := map[string]bool{"all": true}
	for _, e := range strings.Fields(list) {
		known[e] = true
	}
	use := regexp.MustCompile(`\brtrsim[ \t][^` + "`" + `#|\n]*?-exp[ \t=]([a-z0-9,]+)`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.ReplaceAll(string(text), "\\\n", " ")
		for _, m := range use.FindAllStringSubmatch(joined, -1) {
			for _, e := range strings.Split(m[1], ",") {
				checked++
				if !known[e] {
					t.Errorf("%s documents rtrsim -exp %s, which is not an experiment", doc, e)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented experiments found; the pattern is broken")
	}
}
