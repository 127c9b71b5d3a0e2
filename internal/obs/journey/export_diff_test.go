package journey_test

import (
	"bytes"
	"testing"

	"vessel/internal/conformance"
	"vessel/internal/obs/journey"
)

// TestExportRunsMatchReference requires the journey text export of every
// conformance export run (the runs TestExportTextGolden pins) to equal
// the reference writer's, both streamed from the tracer and written from
// its records.
func TestExportRunsMatchReference(t *testing.T) {
	runs, err := conformance.ExportRuns(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		want := journey.RefTracerText(r.Journey)
		var streamed, fromRecs bytes.Buffer
		if err := r.Journey.WriteText(&streamed); err != nil {
			t.Fatal(err)
		}
		if err := journey.WriteText(&fromRecs, r.Journey.Records(), r.Journey.Flight().Overwritten()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), want) {
			t.Errorf("%s: Tracer.WriteText differs from the reference (%d vs %d bytes)", r.System, streamed.Len(), len(want))
		}
		if !bytes.Equal(fromRecs.Bytes(), want) {
			t.Errorf("%s: WriteText over Records differs from the reference (%d vs %d bytes)", r.System, fromRecs.Len(), len(want))
		}
	}
}
