// End-to-end smoke tests for the command-line tools, exercising them the
// way a user would (via `go run`). Kept fast with -quick/coarse flags.
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// update regenerates the golden files under testdata/golden/ instead of
// comparing against them: go test -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden/")

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// runToolErr runs a tool expecting a non-zero exit and returns its combined
// output for message assertions.
func runToolErr(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %v: expected non-zero exit\n%s", args, out)
	}
	return string(out)
}

// TestWordsFlagValidation pins the -words contract at every CLI boundary:
// a lane width outside {1,2,4,8} must be rejected up front with a usage
// error, not silently normalized into a different benchmark configuration.
func TestWordsFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"itrbench", []string{"./cmd/itrbench", "-words", "3", "-exp", "T2", "-quick"}},
		{"itratpg", []string{"./cmd/itratpg", "-words", "0", "-gen", "c17"}},
		{"itrcluster", []string{"./cmd/itrcluster", "coordinator", "-words", "16", "-workers", "1", "-gen", "c17"}},
	} {
		out := runToolErr(t, tc.args...)
		if !strings.Contains(out, "must be 1, 2, 4 or 8") {
			t.Errorf("%s: missing words usage error:\n%s", tc.name, out)
		}
	}
}

// TestItrclusterLoopbackVerify drives the full distributed flow from the CLI:
// a coordinator with two in-process loopback workers shards each job kind,
// merges, and -verify gates the exit status on bit-identity with the serial
// engine.
func TestItrclusterLoopbackVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, job := range []string{"detect", "dictionary"} {
		out := runTool(t, "./cmd/itrcluster", "coordinator",
			"-workers", "2", "-gen", "rand8.150.3", "-job", job,
			"-patterns", "192", "-shard-faults", "16", "-verify", "-quiet")
		for _, needle := range []string{job + ":", "result hash:", "verify: OK (bit-identical to serial)", "shards dispatched"} {
			if !strings.Contains(out, needle) {
				t.Errorf("itrcluster %s output missing %q:\n%s", job, needle, out)
			}
		}
	}
}

// TestItrclusterJournalResume drives the crash/resume flow from the CLI: a
// journaled run is chaos-killed mid-job (real process exit, status 3), then
// a second invocation resumes from the journal and must still be
// bit-identical to the serial engine.
func TestItrclusterJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	journal := filepath.Join(t.TempDir(), "job.journal")
	common := []string{"./cmd/itrcluster", "coordinator",
		"-workers", "2", "-gen", "rand8.150.3", "-job", "detect",
		"-patterns", "192", "-shard-faults", "16", "-journal", journal, "-quiet"}
	out := runToolErr(t, append(common, "-chaos-kill", "after-result-before-journal-sync:3")...)
	if !strings.Contains(out, "chaos: crashing at after-result-before-journal-sync") {
		t.Fatalf("kill run did not hit the crash point:\n%s", out)
	}
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal after crash: %v (size %v)", err, fi)
	}
	out = runTool(t, append(common, "-resume", "-verify")...)
	for _, needle := range []string{"journal: resuming", "verify: OK (bit-identical to serial)"} {
		if !strings.Contains(out, needle) {
			t.Errorf("resume output missing %q:\n%s", needle, out)
		}
	}

	// A journal must never resume a different job: same file, different
	// circuit is a typed refusal, not a wrong merge.
	out = runToolErr(t, "./cmd/itrcluster", "coordinator",
		"-workers", "1", "-gen", "rand8.150.4", "-job", "detect",
		"-patterns", "192", "-shard-faults", "16",
		"-journal", journal, "-resume", "-quiet")
	if !strings.Contains(out, "journal does not match job") {
		t.Errorf("mismatched resume not refused:\n%s", out)
	}
}

func TestItrbenchQuickT2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/itrbench", "-exp", "T2", "-quick")
	for _, needle := range []string{"ΔVth", "delay factor", "total runtime"} {
		if !strings.Contains(out, needle) {
			t.Errorf("itrbench output missing %q:\n%s", needle, out)
		}
	}
}

func TestItratpgGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/itratpg", "-gen", "c17")
	for _, needle := range []string{"coverage 100.00%", "patterns:"} {
		if !strings.Contains(out, needle) {
			t.Errorf("itratpg output missing %q:\n%s", needle, out)
		}
	}
}

func TestItratpgBenchFile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := dir + "/c17.bench"
	src := `INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`
	if err := writeFile(path, src); err != nil {
		t.Fatal(err)
	}
	patPath := dir + "/pats.txt"
	out := runTool(t, "./cmd/itratpg", "-bench", path, "-patterns", patPath)
	if !strings.Contains(out, "coverage 100.00%") {
		t.Errorf("bench-file ATPG output:\n%s", out)
	}
}

func TestItrwaferShow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/itrwafer", "-show", "Center", "-size", "24")
	if !strings.Contains(out, "class: Center") || !strings.Contains(out, "X") {
		t.Errorf("itrwafer -show output:\n%s", out)
	}
}

// TestItrwaferExportImport round-trips a model artifact through the CLI:
// train + export, then import + evaluate. Determinism makes the imported
// run reproducible, so two imports must print byte-identical reports (the
// bit-identity of reloaded predictions is pinned at library level in
// internal/core and internal/hdc).
func TestItrwaferExportImport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "wafer.itm")
	common := []string{"-dim", "512", "-size", "16", "-seed", "5"}
	out := runTool(t, append([]string{"./cmd/itrwafer", "-export", path, "-train", "2"}, common...)...)
	for _, needle := range []string{"wrote wafer-hdc artifact v1", "itr-model/v2", "hash "} {
		if !strings.Contains(out, needle) {
			t.Fatalf("export output missing %q:\n%s", needle, out)
		}
	}
	imp := func() string {
		return runTool(t, append([]string{"./cmd/itrwafer", "-import", path, "-test", "2"}, common...)...)
	}
	out = imp()
	for _, needle := range []string{`loaded wafer-hdc "itrwafer-hdc" v1`, "accuracy"} {
		if !strings.Contains(out, needle) {
			t.Errorf("import output missing %q:\n%s", needle, out)
		}
	}
	if again := imp(); again != out {
		t.Errorf("imported model is not deterministic:\nfirst:\n%s\nsecond:\n%s", out, again)
	}
}

// TestItrwaferExportImportV2 pins that the file extension does not pick
// the format: an export to a ".json" path still writes the itr-model/v2
// binary format, and it evaluates line for line like the ".itm" export of
// the identical model.
func TestItrwaferExportImportV2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "wafer.json")
	binPath := filepath.Join(dir, "wafer.itm")
	common := []string{"-dim", "512", "-size", "16", "-seed", "5", "-train", "2"}
	runTool(t, append([]string{"./cmd/itrwafer", "-export", jsonPath}, common...)...)
	runTool(t, append([]string{"./cmd/itrwafer", "-export", binPath}, common...)...)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "ITRM") {
		t.Fatalf("export to %s did not write an itr-model/v2 file (starts %q)", jsonPath, data[:min(len(data), 8)])
	}
	imp := func(path string) string {
		return runTool(t, "./cmd/itrwafer", "-import", path, "-size", "16", "-seed", "5", "-test", "2")
	}
	if a, b := imp(jsonPath), imp(binPath); a != b {
		t.Errorf("exports of the same model diverge:\n.json:\n%s\n.itm:\n%s", a, b)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// normalizeGolden strips the parts of harness output that legitimately vary
// between runs (wall-clock timings); everything else must be byte-stable.
func normalizeGolden(out string) string {
	lines := strings.Split(out, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "total runtime:") {
			l = "total runtime: <elapsed>"
		}
		// itratpg: "backtracks: 12, runtime: 34ms" — keep the deterministic
		// backtrack count, normalize the timing half.
		if strings.HasPrefix(l, "backtracks:") {
			if i := strings.Index(l, ", runtime:"); i >= 0 {
				l = l[:i] + ", runtime: <elapsed>"
			}
		}
		// itratpg: "deterministic phase: gen 1.2ms, drop 3.4ms" is pure
		// wall-clock measurement.
		if strings.HasPrefix(l, "deterministic phase:") {
			l = "deterministic phase: <elapsed>"
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// TestItratpgGolden pins the exact ATPG report for a deterministic run:
// itratpg -gen mul4 -seed 1 must reproduce the captured pattern counts,
// coverage and backtrack totals byte for byte (runtime normalized). Any
// drift in PODEM decision order, SCOAP guidance, fault simulation or
// compaction shows up here. Regenerate with -update.
func TestItratpgGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := normalizeGolden(runTool(t, "./cmd/itratpg", "-gen", "mul4", "-seed", "1"))
	compareGolden(t, out, filepath.Join("testdata", "golden", "itratpg_mul4_seed1.txt"))
}

// TestItratpgGoldenParallelInvariant pins the flow's determinism contract at
// the CLI boundary: cranking -workers and -words across the grid must
// reproduce the default run's report byte for byte (timings normalized) —
// the same golden file as TestItratpgGolden, on purpose.
func TestItratpgGoldenParallelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden := filepath.Join("testdata", "golden", "itratpg_mul4_seed1.txt")
	for _, extra := range [][]string{
		{"-workers", "8", "-words", "8"},
		{"-workers", "3", "-words", "2"},
	} {
		args := append([]string{"./cmd/itratpg", "-gen", "mul4", "-seed", "1"}, extra...)
		out := normalizeGolden(runTool(t, args...))
		if *update {
			continue // TestItratpgGolden owns regeneration
		}
		compareGolden(t, out, golden)
	}
}

// TestItrbenchGoldenT2 pins the exact harness output for a deterministic
// experiment: itrbench -exp T2 -quick -seed 1 must reproduce the captured
// report byte for byte (timings normalized). Regenerate with -update.
func TestItrbenchGoldenT2(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := normalizeGolden(runTool(t, "./cmd/itrbench", "-exp", "T2", "-quick", "-seed", "1"))
	compareGolden(t, out, filepath.Join("testdata", "golden", "itrbench_T2_quick_seed1.txt"))
}

// TestItrbenchBenchJSONGolden pins the machine-readable benchmark document:
// itrbench -benchjson -quick -seed 1 -words 8 -workers 2 must emit valid
// itr-faultsim-bench/v1 JSON covering the named .bench anchors under
// testdata/bench/ plus the generated tier, with deterministic fields
// (schema, sizes, fault counts, lane width, coverage, bit-identity, source)
// matching the golden file
// byte for byte. Runtime-dependent fields (timings, throughput, generated
// stamp, toolchain version) are sanity-checked, then normalized to stable
// placeholders before comparison. Regenerate with -update.
func TestItrbenchBenchJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	out := runTool(t, "./cmd/itrbench", "-benchjson", path, "-quick", "-seed", "1", "-words", "8", "-workers", "2")
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("itrbench did not report writing %s:\n%s", path, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc experiments.FaultSimBench
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("benchjson output is not valid JSON: %v", err)
	}
	if doc.Schema != "itr-faultsim-bench/v1" {
		t.Fatalf("schema = %q, want itr-faultsim-bench/v1", doc.Schema)
	}
	if doc.Generated == "" || doc.GoVersion == "" {
		t.Fatalf("missing generated/go_version stamps: %+v", doc)
	}
	anchors := 0
	for i := range doc.Rows {
		r := &doc.Rows[i]
		if r.Source == "bench" {
			anchors++
		}
		// Every row must carry real measurements and the bit-identity
		// verdict before the values are normalized away.
		if r.CompileNs <= 0 || r.PPSFPMs <= 0 || r.ConcurrentMs <= 0 ||
			r.SerialMs <= 0 || r.Speedup <= 0 || r.MPatFaultsPS <= 0 {
			t.Errorf("row %d (%s): non-positive timing fields: %+v", i, r.Circuit, *r)
		}
		if r.DictMs <= 0 {
			t.Errorf("row %d (%s): quick sizes are dictionary-feasible, dictionary_ms missing", i, r.Circuit)
		}
		if !r.BitIdentical {
			t.Errorf("row %d (%s): bit_identical = false", i, r.Circuit)
		}
		r.CompileNs, r.PPSFPMs, r.ConcurrentMs, r.DictMs = 0, 0, 0, 0
		r.SerialMs, r.Speedup, r.MPatFaultsPS = 0, 0, 0
	}
	if anchors < 3 {
		t.Errorf("only %d named .bench anchor rows, want the 3 under testdata/bench/", anchors)
	}
	doc.Generated, doc.GoVersion = "<generated>", "<go_version>"
	norm, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, string(norm)+"\n", filepath.Join("testdata", "golden", "itrbench_benchjson_quick.json"))
}

// TestItratpgBenchJSONGolden pins the ATPG benchmark document: itratpg
// -benchjson -quick -seed 1 -words 8 -workers 2 must emit valid
// itr-atpg-bench/v2 JSON covering the named .bench anchors under
// testdata/bench/ plus the quick generated tier. Timing fields are
// sanity-checked, then normalized to stable placeholders before comparison.
// Regenerate with -update.
func TestItratpgBenchJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "atpg.json")
	out := runTool(t, "./cmd/itratpg", "-benchjson", path, "-quick", "-seed", "1", "-words", "8", "-workers", "2")
	if !strings.Contains(out, "wrote ") {
		t.Fatalf("itratpg did not report writing %s:\n%s", path, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc experiments.ATPGBench
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("benchjson output is not valid JSON: %v", err)
	}
	if doc.Schema != "itr-atpg-bench/v2" {
		t.Fatalf("schema = %q, want itr-atpg-bench/v2", doc.Schema)
	}
	if doc.Generated == "" || doc.GoVersion == "" {
		t.Fatalf("missing generated/go_version stamps: %+v", doc)
	}
	anchors := 0
	for i := range doc.Rows {
		r := &doc.Rows[i]
		if r.Source == "bench" {
			anchors++
		}
		if r.DetMs <= 0 {
			t.Errorf("row %d (%s): non-positive deterministic-phase timing: %+v", i, r.Circuit, *r)
		}
		r.GenNs, r.DropNs, r.DetMs = 0, 0, 0
	}
	if anchors < 3 {
		t.Errorf("only %d named .bench anchor rows, want the 3 under testdata/bench/", anchors)
	}
	doc.Generated, doc.GoVersion = "<generated>", "<go_version>"
	norm, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, string(norm)+"\n", filepath.Join("testdata", "golden", "itratpg_benchjson_quick.json"))
}

// compareGolden checks normalized tool output against a golden file, or
// rewrites the file under -update.
func compareGolden(t *testing.T, out, path string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(path, out); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", path)
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update`): %v", err)
	}
	want := string(wantBytes)
	if out == want {
		return
	}
	// Report the first diverging line, not a wall of text.
	gotLines, wantLines := strings.Split(out, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "<eof>", "<eof>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s\n(regenerate with -update if the change is intended)", i+1, g, w)
		}
	}
	t.Fatal(fmt.Sprintf("output differs from golden file %s in whitespace only", path))
}
