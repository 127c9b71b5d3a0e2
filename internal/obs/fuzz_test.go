package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzObsReadText decodes arbitrary input as a span timeline. When
// decoding succeeds, writing the spans must match the reference writer,
// decode back to equal spans and overwrite count, and write again to the
// same bytes.
func FuzzObsReadText(f *testing.F) {
	// A small real export:
	//   vesselsim -sched caladan -cores 2 -duration 1 -load 0.02 \
	//     -trace caladan_small.obs
	small, err := os.ReadFile(filepath.Join("testdata", "caladan_small.obs"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(refObserverText(handObserver()))
	f.Add([]byte(timelineHeader + "\n"))
	f.Add([]byte(timelineHeader + "\n# spans 9 overwritten 18446744073709551615\n" +
		"span -3 +7 07 gate -\n  span 0 -0 0 uintr x_y \n\n# note\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, ow, err := ReadTextMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, ref, second bytes.Buffer
		if err := writeText(&first, spans, ow); err != nil {
			t.Fatal(err)
		}
		if err := refWriteText(&ref, len(spans), spans, ow); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), ref.Bytes()) {
			t.Fatalf("writeText differs from the reference:\n got:\n%s\n want:\n%s", first.Bytes(), ref.Bytes())
		}
		spans2, ow2, err := ReadTextMeta(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding the written timeline: %v\n%s", err, first.Bytes())
		}
		if ow2 != ow || !slices.Equal(spans2, spans) {
			t.Fatalf("round trip changed the timeline: overwritten %d → %d\n first %v\n then  %v", ow, ow2, spans, spans2)
		}
		if err := writeText(&second, spans2, ow2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("second write differs from the first:\n%s\nvs\n%s", second.Bytes(), first.Bytes())
		}
	})
}
