package sxnm

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoEncodingXMLImport keeps the program on its own XML scanner:
// no non-test package of the module may depend on encoding/xml, which
// only the parser's reference oracle (a test file) uses.
func TestNoEncodingXMLImport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", "-test=false",
		"-f", `{{if not .Standard}}{{.ImportPath}}:{{join .Imports " "}}{{end}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, ":")
		for _, imp := range strings.Fields(imports) {
			if imp == "encoding/xml" {
				t.Errorf("%s imports encoding/xml", pkg)
			}
		}
	}
}
