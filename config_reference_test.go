package capes_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"capes/internal/capesd"
)

// TestConfigReferenceMatchesConfig holds README.md's "capesd
// configuration reference" to capesd.Config: the table lists exactly the
// struct's JSON key paths, every row names a test function that exists
// and whose body mentions the key (quoted) or its Go field, and the
// example config of "Multi-session capesd" passes capesd.LoadConfig.
func TestConfigReferenceMatchesConfig(t *testing.T) {
	buf, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(buf)

	rows := map[string]string{} // key path → test
	for _, line := range strings.Split(markdownSection(t, readme, "### capesd configuration reference"), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 {
			continue
		}
		key := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if key == "Key" || strings.HasPrefix(key, "---") {
			continue
		}
		if _, dup := rows[key]; dup {
			t.Errorf("README lists %s twice", key)
		}
		rows[key] = strings.Trim(strings.TrimSpace(cells[4]), "`")
	}

	fields := map[string]string{} // key path → Go field name
	jsonKeys(reflect.TypeOf(capesd.Config{}), "", fields)
	for _, key := range slices.Sorted(maps.Keys(fields)) {
		if _, ok := rows[key]; !ok {
			t.Errorf("capesd.Config has %s (field %s); README's reference has no row for it", key, fields[key])
		}
	}
	bodies := testBodies(t)
	for _, key := range slices.Sorted(maps.Keys(rows)) {
		field, ok := fields[key]
		if !ok {
			t.Errorf("README lists %s, which capesd.Config does not have", key)
			continue
		}
		test := rows[key]
		srcs, ok := bodies[test]
		if !ok {
			t.Errorf("%s: README names %s, which is not a test function", key, test)
			continue
		}
		quoted := `"` + key[strings.LastIndexAny(key, ".]")+1:] + `"`
		goField := regexp.MustCompile(`\b` + field + `\b`)
		if !slices.ContainsFunc(srcs, func(src string) bool {
			return strings.Contains(src, quoted) || goField.MatchString(src)
		}) {
			t.Errorf("%s: %s mentions neither %s nor %s", key, test, quoted, field)
		}
	}

	section := markdownSection(t, readme, "## Multi-session capesd")
	start := strings.Index(section, "```json\n")
	if start < 0 {
		t.Fatal(`README's "Multi-session capesd" has no json example`)
	}
	example := section[start+len("```json\n"):]
	example = example[:strings.Index(example, "```")]
	path := filepath.Join(t.TempDir(), "capesd.json")
	if err := os.WriteFile(path, []byte(example), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capesd.LoadConfig(path); err != nil {
		t.Errorf("README's example config: %v", err)
	}
}

// markdownSection returns the text under heading, up to the next heading
// of any level.
func markdownSection(t *testing.T, doc, heading string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("README has no %q", heading)
	}
	rest := doc[i+len(heading)+2:]
	if j := strings.Index(rest, "\n#"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// jsonKeys records the JSON key path of each field of t, and of the
// fields of its struct, pointer-to-struct and slice-of-struct fields
// ("a.b", "a[].b"), with the Go field name each maps to.
func jsonKeys(t reflect.Type, prefix string, out map[string]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
		out[key] = f.Name
		switch ft := f.Type; {
		case ft.Kind() == reflect.Pointer && ft.Elem().Kind() == reflect.Struct:
			jsonKeys(ft.Elem(), key+".", out)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			jsonKeys(ft.Elem(), key+"[].", out)
		}
	}
}

// testBodies maps each Test function of the module's _test.go files to
// its source, one entry per package that declares the name.
func testBodies(t *testing.T) map[string][]string {
	t.Helper()
	bodies := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "perfbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				from, to := fset.Position(fn.Pos()).Offset, fset.Position(fn.End()).Offset
				bodies[fn.Name.Name] = append(bodies[fn.Name.Name], string(src[from:to]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bodies
}
