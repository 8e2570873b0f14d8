package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func chdir(t testing.TB, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// The linter must self-host: the whole repository, analyzers included, is
// clean under its own rules. This is the acceptance gate every future PR
// runs through make lint / CI.
func TestSelfHostRepoClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("multiclust-lint ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Fatalf("expected no findings, got:\n%s", out.String())
	}
}

// Findings must surface as file:line: [rule] message with exit code 1.
func TestFindingsReportAndExitCode(t *testing.T) {
	fixture, err := filepath.Abs("../../internal/lint/testdata/maporder")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{fixture}, &out, &errOut)
	if code != 1 {
		t.Fatalf("expected exit 1 on findings, got %d (stderr: %s)", code, errOut.String())
	}
	text := out.String()
	if !strings.Contains(text, "[maporder]") {
		t.Fatalf("output missing [maporder] tag:\n%s", text)
	}
	first := strings.SplitN(text, "\n", 2)[0]
	if !strings.Contains(first, "maporder.go:") {
		t.Fatalf("finding not in file:line form: %q", first)
	}
}

func TestRuleSelection(t *testing.T) {
	fixture, err := filepath.Abs("../../internal/lint/testdata/maporder")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	// Only floatkey requested: the maporder fixture must come back clean.
	if code := run([]string{"-rules", "floatkey", fixture}, &out, &errOut); code != 0 {
		t.Fatalf("expected exit 0, got %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := run([]string{"-rules", "nosuchrule", fixture}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule should exit 2, got %d", code)
	}
}

func TestListRules(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, rule := range []string{"maporder", "globalrand", "sharedrng", "nakedgo", "floatkey",
		"ctxflow", "rngescape", "goleak", "detsource"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, out.String())
		}
	}
}

// -json must emit a machine-readable array with rule, message, position and
// any suggested fixes.
func TestJSONOutput(t *testing.T) {
	fixture, err := filepath.Abs("../../internal/lint/testdata/fix/maporder")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-json", "-rules", "maporder", fixture}, &out, &errOut)
	if code != 1 {
		t.Fatalf("expected exit 1, got %d (stderr: %s)", code, errOut.String())
	}
	var findings []struct {
		Pos struct {
			Filename string `json:"Filename"`
			Line     int    `json:"Line"`
		} `json:"pos"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
		Fixes   []struct {
			Message string `json:"message"`
			Edits   []struct {
				File    string `json:"file"`
				Offset  int    `json:"offset"`
				End     int    `json:"end"`
				NewText string `json:"newText"`
			} `json:"edits"`
		} `json:"fixes"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json emitted an empty findings array for a dirty fixture")
	}
	f := findings[0]
	if f.Rule != "maporder" || f.Pos.Line == 0 || !strings.HasSuffix(f.Pos.Filename, "maporder.go") {
		t.Errorf("finding fields wrong: %+v", f)
	}
	if len(f.Fixes) == 0 || len(f.Fixes[0].Edits) == 0 {
		t.Errorf("suggested fix missing from JSON output: %+v", f)
	}
}

// A clean run in -json mode must emit [] (not null) so downstream jq
// pipelines see an array either way.
func TestJSONOutputEmptyArray(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	chdir(t, root)
	var out, errOut strings.Builder
	if code := run([]string{"-json", "./internal/parallel"}, &out, &errOut); code != 0 {
		t.Fatalf("expected exit 0, got %d (stderr: %s)", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean -json run should print [], got %q", out.String())
	}
}

// -json and -sarif cannot be combined.
func TestJSONAndSARIFMutuallyExclusive(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "-sarif"}, &out, &errOut); code != 2 {
		t.Fatalf("expected exit 2, got %d", code)
	}
}

// -fix applies the suggested rewrites in place. The fixture is copied into a
// scratch git repository first: a dirty worktree must refuse (typed gate),
// -force must override, and a committed tree must be rewritten to the golden
// output.
func TestFixApplies(t *testing.T) {
	srcDir, err := filepath.Abs("../../internal/lint/testdata/fix/maporder")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(srcDir, "maporder.go"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(srcDir, "maporder.go.golden"))
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	writeFile := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(tmp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", []byte("module fixscratch\n\ngo 1.21\n"))
	writeFile("maporder.go", src)
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", tmp}, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Skipf("git unavailable (%v): %s", err, out)
		}
	}
	git("init", "-q")
	git("-c", "user.email=t@t", "-c", "user.name=t", "add", ".")

	chdir(t, tmp)

	// Uncommitted work: the gate must refuse with exit 2 and leave the file
	// untouched.
	var out, errOut strings.Builder
	if code := run([]string{"-fix", "-rules", "maporder", "."}, &out, &errOut); code != 2 {
		t.Fatalf("dirty worktree: expected exit 2, got %d\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "uncommitted") {
		t.Fatalf("refusal does not name the dirty worktree: %s", errOut.String())
	}
	after, err := os.ReadFile(filepath.Join(tmp, "maporder.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(src) {
		t.Fatal("refused -fix still modified the file")
	}

	// Committed: -fix rewrites to the golden output and exits 0.
	git("-c", "user.email=t@t", "-c", "user.name=t", "commit", "-q", "-m", "seed")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-fix", "-rules", "maporder", "."}, &out, &errOut); code != 0 {
		t.Fatalf("clean worktree -fix exited %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	after, err = os.ReadFile(filepath.Join(tmp, "maporder.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(golden) {
		t.Fatalf("-fix output differs from golden:\n%s", after)
	}

	// Dirty again (the fix itself dirtied the tree): -force must proceed.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-fix", "-force", "-rules", "maporder", "."}, &out, &errOut); code != 0 {
		t.Fatalf("-fix -force exited %d\nstderr: %s", code, errOut.String())
	}
}
