package conformance

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportGoldenSeed is the seed of the runs TestExportTextGolden pins.
const exportGoldenSeed = 1

// exportTextRun renders, for every ExportRuns run, the SHA-256 and byte
// length of the journey text export, the journey collapsed stacks and the
// obs span-timeline text export.
func exportTextRun(t *testing.T) []byte {
	t.Helper()
	runs, err := ExportRuns(exportGoldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	spaced, unfinished := 0, 0
	for _, r := range runs {
		for _, j := range r.Journey.Journeys() {
			if strings.Contains(j.Name, " ") {
				spaced++
			}
			if !j.Finished() {
				unfinished++
			}
		}
		fmt.Fprintf(&b, "== %s journeys=%d spans=%d\n", r.System, r.Journey.Minted(), r.Obs.SpanCount())
		for _, e := range []struct {
			name  string
			write func(*bytes.Buffer) error
		}{
			{"journey.text", func(w *bytes.Buffer) error { return r.Journey.WriteText(w) }},
			{"journey.collapsed", func(w *bytes.Buffer) error { return r.Journey.WriteCollapsed(w) }},
			{"obs.text", func(w *bytes.Buffer) error { return r.Obs.WriteText(w) }},
		} {
			var out bytes.Buffer
			if err := e.write(&out); err != nil {
				t.Fatalf("%s %s: %v", r.System, e.name, err)
			}
			fmt.Fprintf(&b, "%s sha256=%x bytes=%d\n", e.name, sha256.Sum256(out.Bytes()), out.Len())
		}
	}
	// The runs must cover the two special cases of the journey text form:
	// a name whose space is written as "_" and an unfinished root whose
	// end is clamped to its start.
	if spaced == 0 || unfinished == 0 {
		t.Fatalf("export runs cover %d journeys with a spaced name and %d unfinished; want both > 0", spaced, unfinished)
	}
	return b.Bytes()
}

// TestExportTextGolden pins the bytes of the plain-text journey and span
// timeline exports (and the journey collapsed stacks) for every scheduler
// variant. Run with -update to rebless after an intentional change.
func TestExportTextGolden(t *testing.T) {
	got := exportTextRun(t)
	path := filepath.Join("testdata", "export_text_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden:\n got:\n%s\n want:\n%s\nrun with -update after intentional changes", path, got, want)
	}
}
