package ccrp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMakeFuzzRunsEveryTarget: the Makefile's fuzz recipe runs every
// fuzz target of the module, each in its own package, and names no
// target that does not exist. Targets are read from the test files of
// this module (the ccrpbench module has its own go.mod and none).
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var recipe []string
	_, after, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz recipe")
	}
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		fields := strings.Fields(line)
		i := slices.IndexFunc(fields, func(f string) bool { return strings.HasPrefix(f, "-fuzz=") })
		if i < 0 {
			t.Fatalf("fuzz recipe line %q has no -fuzz pattern", line)
		}
		name := strings.TrimSuffix(strings.TrimPrefix(fields[i], "-fuzz='^"), "$$'")
		recipe = append(recipe, fields[len(fields)-1]+" "+name)
	}

	target := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	var tree []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range target.FindAllStringSubmatch(string(src), -1) {
			tree = append(tree, "./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	slices.Sort(recipe)
	slices.Sort(tree)
	if len(tree) == 0 {
		t.Fatal("found no fuzz targets in the tree")
	}
	for _, tgt := range tree {
		if _, found := slices.BinarySearch(recipe, tgt); !found {
			t.Errorf("make fuzz does not run %s", tgt)
		}
	}
	for i, tgt := range recipe {
		if _, found := slices.BinarySearch(tree, tgt); !found {
			t.Errorf("make fuzz runs %s, which is not a fuzz target", tgt)
		}
		if i > 0 && recipe[i-1] == tgt {
			t.Errorf("make fuzz runs %s twice", tgt)
		}
	}
}
