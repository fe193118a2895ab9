package capes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestCIRunPatternsMatchTests keeps the CI selectors live: every
// alternative of a -run, -bench or -fuzz pattern in
// .github/workflows/ci.yml and .github/*.sh must match at least one
// Test (or Fuzz/Example), Benchmark or Fuzz function of the packages
// the command names. `go test -run X` on a vanished X passes silently
// with "no tests to run".
func TestCIRunPatternsMatchTests(t *testing.T) {
	scripts, err := filepath.Glob(filepath.Join(".github", "*.sh"))
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, path := range append([]string{filepath.Join(".github", "workflows", "ci.yml")}, scripts...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(data), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok {
				continue
			}
			args := shellWords(cmd)
			var dirs []string
			for _, a := range args {
				if strings.HasPrefix(a, "./") {
					dirs = append(dirs, a)
				}
			}
			funcs := testFuncs(t, dirs)
			for _, flag := range []struct{ name, kind string }{{"-run", "Test"}, {"-bench", "Benchmark"}, {"-fuzz", "Fuzz"}} {
				pattern, ok := flagValue(args, flag.name)
				if !ok || pattern == "^$" {
					continue
				}
				commands++
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
					if err != nil {
						t.Errorf("%s: %s %q: %v", path, flag.name, alt, err)
						continue
					}
					if !slices.ContainsFunc(funcs, func(f string) bool {
						return re.MatchString(f) && (strings.HasPrefix(f, flag.kind) ||
							flag.kind == "Test" && (strings.HasPrefix(f, "Fuzz") || strings.HasPrefix(f, "Example")))
					}) {
						t.Errorf("%s: %s alternative %q matches no %s function in %v", path, flag.name, alt, flag.kind, dirs)
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("no -run/-bench/-fuzz selectors found")
	}
}

// shellWords splits a command line into words, honouring single and
// double quotes, and stops at the first unquoted pipe.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '|' || r == ';':
			return append(words, cur.String())
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// flagValue returns the value of -name=v or -name v.
func flagValue(args []string, name string) (string, bool) {
	for i, a := range args {
		if v, ok := strings.CutPrefix(a, name+"="); ok {
			return v, true
		}
		if a == name && i+1 < len(args) {
			return args[i+1], true
		}
	}
	return "", false
}

// testFuncs lists the top-level function names declared in the _test.go
// files of the given package patterns (./... is every package of the
// module).
func testFuncs(t *testing.T, patterns []string) []string {
	t.Helper()
	var files []string
	for _, p := range patterns {
		glob := filepath.Join(filepath.FromSlash(p), "*_test.go")
		if p == "./..." {
			err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
				if err == nil && d.IsDir() && path != "." && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				if err == nil && strings.HasSuffix(path, "_test.go") {
					files = append(files, path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	var funcs []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	return funcs
}
