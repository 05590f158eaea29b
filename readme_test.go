package nepdvs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// architectureList parses README's Architecture block: the tool names of
// its cmd/{...} line and the package names that start its indented
// internal/ lines.
func architectureList(t *testing.T) (cmds, pkgs []string) {
	t.Helper()
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, arch, ok := strings.Cut(string(b), "\n## Architecture\n")
	if !ok {
		t.Fatal("README.md has no Architecture section")
	}
	parts := strings.SplitN(arch, "```", 3)
	if len(parts) < 3 {
		t.Fatal("README.md Architecture section has no code block")
	}
	inInternal := false
	for _, line := range strings.Split(parts[1], "\n") {
		switch {
		case strings.HasPrefix(line, "cmd/{"):
			list := strings.TrimSuffix(strings.TrimPrefix(line, "cmd/{"), "}")
			cmds = strings.Split(list, ",")
		case line == "internal/":
			inInternal = true
		case inInternal && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			pkgs = append(pkgs, strings.Fields(line)[0])
		case !strings.HasPrefix(line, " "):
			inInternal = false
		}
	}
	return cmds, pkgs
}

// TestReadmeArchitectureComplete holds README's Architecture list to the
// tree: every top-level directory under cmd/ and internal/ is listed, and
// every listed name is a directory.
func TestReadmeArchitectureComplete(t *testing.T) {
	cmds, pkgs := architectureList(t)
	for _, c := range []struct {
		root   string
		listed []string
	}{{"cmd", cmds}, {"internal", pkgs}} {
		if len(c.listed) == 0 {
			t.Errorf("README lists nothing under %s/", c.root)
		}
		listed := map[string]bool{}
		for _, name := range c.listed {
			listed[name] = true
			if fi, err := os.Stat(filepath.Join(c.root, name)); err != nil || !fi.IsDir() {
				t.Errorf("README lists %s/%s, which is not a directory", c.root, name)
			}
		}
		entries, err := os.ReadDir(c.root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !listed[e.Name()] {
				t.Errorf("README's Architecture list leaves out %s/%s", c.root, e.Name())
			}
		}
	}
}
