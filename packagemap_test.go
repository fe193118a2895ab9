package capes_test

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPackageMapMatchesTree holds README.md's package map to the tree:
// one row for exactly each directory under internal/ and cmd/, each
// internal/ row naming every non-test package (of the module or of
// perfbench/) that imports it, and no other.
func TestPackageMapMatchesTree(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string][]string{}
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`internal/") && !strings.HasPrefix(strings.TrimSpace(cells[1]), "`cmd/") {
			continue
		}
		dir := strings.Trim(strings.TrimSpace(cells[1]), "`")
		var importers []string
		for _, imp := range strings.Split(cells[3], ",") {
			if imp = strings.Trim(strings.TrimSpace(imp), "`"); imp != "—" {
				importers = append(importers, imp)
			}
		}
		slices.Sort(importers)
		listed[dir] = importers
	}

	// Every package of the tree, with its non-test imports.
	imports := map[string][]string{}
	for _, root := range []struct{ dir, path string }{{".", "capes"}, {"perfbench", "perfbench"}} {
		err := filepath.WalkDir(root.dir, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != root.dir && (d.Name() == "perfbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(dir, 0)
			if err != nil {
				return nil // no Go files
			}
			path := root.path
			if dir != root.dir {
				rel, _ := filepath.Rel(root.dir, dir)
				path += "/" + filepath.ToSlash(rel)
			}
			imports[path] = bp.Imports
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	want := map[string][]string{}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := parent + "/" + e.Name()
			var importers []string
			for pkg, imps := range imports {
				if slices.Contains(imps, "capes/"+dir) {
					importers = append(importers, pkg)
				}
			}
			slices.Sort(importers)
			want[dir] = importers
		}
	}

	for dir, importers := range want {
		got, ok := listed[dir]
		switch {
		case !ok:
			t.Errorf("README.md package map has no row for %s", dir)
		case !slices.Equal(got, importers):
			t.Errorf("README.md package map: %s is imported by %v, the row says %v", dir, importers, got)
		}
	}
	for dir := range listed {
		if _, ok := want[dir]; !ok {
			t.Errorf("README.md package map lists %s, which is not a directory under internal/ or cmd/", dir)
		}
	}
}
