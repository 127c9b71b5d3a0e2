package obs_test

import (
	"bytes"
	"testing"

	"vessel/internal/conformance"
	"vessel/internal/obs"
)

// TestExportRunsMatchReference requires the timeline text export of every
// conformance export run (the runs TestExportTextGolden pins) to equal the
// reference writer's.
func TestExportRunsMatchReference(t *testing.T) {
	runs, err := conformance.ExportRuns(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		var got bytes.Buffer
		if err := r.Obs.WriteText(&got); err != nil {
			t.Fatal(err)
		}
		if want := obs.RefObserverText(r.Obs); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteText differs from the reference (%d vs %d bytes)", r.System, got.Len(), len(want))
		}
	}
}
