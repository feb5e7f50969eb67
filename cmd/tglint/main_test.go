package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const fixtures = "../../internal/analysis/testdata/src"

// TestDriverFlagsSeededViolations runs the real driver over the fixture
// packages and proves every pass fires through the full pipeline (go
// list loading, suppression, exit code).
func TestDriverFlagsSeededViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		fixtures + "/unitcheck",
		fixtures + "/detcheck/sim",
		fixtures + "/floatcheck",
		fixtures + "/errsink",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"[unitflow] scale mismatch",
		"[unitflow] dimension mismatch",
		"[detcheck] time.Now",
		"[detcheck] global math/rand",
		"[detcheck] os.Getenv",
		"[detcheck] floating-point accumulation",
		"[floatcheck] floating-point == comparison",
		"[errsink] error result of Step is silently discarded",
		"[errsink] deferred error result of Step",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output missing %q\noutput:\n%s", want, out)
		}
	}
	// Suppressed seeds must not leak through.
	for _, banned := range []string{"annotated", "demonstrates"} {
		if strings.Contains(out, banned) {
			t.Errorf("a suppressed fixture diagnostic leaked: %q appears in\n%s", banned, out)
		}
	}
}

// TestDriverFlowPasses drives the three interprocedural passes through
// the full pipeline: the shared Program is built once over all three
// fixture packages.
func TestDriverFlowPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-passes", "unitflow,nanflow,statecover",
		fixtures + "/unitflow",
		fixtures + "/nanflow/sim",
		fixtures + "/statecover/ckpt",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"[unitflow] scale mismatch",
		"[unitflow] dimension mismatch",
		"[nanflow] possible NaN",
		"unchecked division",
		"never sets field Skew",
		"never reads field Sum",
		"no producer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("driver output missing %q\noutput:\n%s", want, out)
		}
	}
	for _, banned := range []string{"annotated", "sentinel"} {
		if strings.Contains(out, banned) {
			t.Errorf("a suppressed fixture diagnostic leaked: %q appears in\n%s", banned, out)
		}
	}
}

// TestDriverJSON checks the -json schema the CI problem matcher and
// artifact baseline depend on.
func TestDriverJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-passes", "nanflow", fixtures + "/nanflow/sim"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json produced an empty array over the seeded nanflow fixture")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Pass != "nanflow" || d.Message == "" {
			t.Errorf("malformed diagnostic: %+v", d)
		}
	}

	// A clean tree must still emit valid JSON: an empty array, not "".
	stdout.Reset()
	if code := run([]string{"-json", fixtures + "/clean"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -json run: exit %d, want 0\n%s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

func TestDriverCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{fixtures + "/clean"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean package produced output:\n%s", stdout.String())
	}
}

func TestDriverPassSelection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-passes", "floatcheck", fixtures + "/errsink"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("floatcheck-only run over the errsink fixture: exit %d, want 0\n%s", code, stdout.String())
	}
	var out2 bytes.Buffer
	if code := run([]string{"-passes", "nosuchpass", "./..."}, &out2, &stderr); code != 2 {
		t.Errorf("unknown pass: exit %d, want 2", code)
	}
}

func TestDriverList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{"unitflow", "detcheck", "floatcheck", "errsink"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}
