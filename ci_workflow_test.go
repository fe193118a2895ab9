package capes_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCIWorkflowRunScalarsParse keeps .github/workflows/ci.yml loadable
// without a YAML parser in the module. A single-line, unquoted `run:`
// value is a YAML plain scalar, and the two sequences that end a plain
// scalar — ": " (reads as a nested mapping: a parse error that takes the
// whole workflow, every job, down) and " #" (the rest becomes a comment,
// silently) — appear naturally in shell. Such a command has to be
// quoted or written as a block scalar (`run: |`).
func TestCIWorkflowRunScalarsParse(t *testing.T) {
	path := filepath.Join(".github", "workflows", "ci.yml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for i, line := range strings.Split(string(data), "\n") {
		key := strings.TrimPrefix(strings.TrimSpace(line), "- ")
		v, ok := strings.CutPrefix(key, "run:")
		if !ok {
			continue
		}
		runs++
		v = strings.TrimSpace(v)
		if v == "" || strings.ContainsAny(v[:1], `|>"'`) {
			continue // block or quoted scalar
		}
		if strings.Contains(v, ": ") || strings.HasSuffix(v, ":") || strings.Contains(v, " #") {
			t.Errorf("%s:%d: plain-scalar run value contains \": \" or \" #\"; quote it or use a block scalar:\n\t%s", path, i+1, v)
		}
	}
	if runs == 0 {
		t.Fatalf("%s: no run: steps found", path)
	}
}
