package journey

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJourneyReadText decodes arbitrary input as a journey export. When
// decoding succeeds, writing the records must match the reference writer,
// decode back to equal records and overwrite count, and write again to
// the same bytes.
func FuzzJourneyReadText(f *testing.F) {
	// A small real export:
	//   vesselsim -sched caladan -cores 2 -duration 1 -load 0.02 \
	//     -journeysample 4 -journey caladan_small.journey
	small, err := os.ReadFile(filepath.Join("testdata", "caladan_small.journey"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	var hand bytes.Buffer
	if err := refWriteText(&hand, handRecords()[:3], 3); err != nil {
		f.Fatal(err)
	}
	f.Add(hand.Bytes())
	f.Add([]byte(Header + "\n"))
	f.Add([]byte(Header + "\n# journeys 1 finished 0 flight-overwritten 18446744073709551616\n" +
		"journey 007 5 -0 yes 0 0 0 0 +0 -\n  node 7 +0 -1 -1 queue 5 5 x_y\n\n# note\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, ow, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, ref, second bytes.Buffer
		if err := WriteText(&first, recs, ow); err != nil {
			t.Fatal(err)
		}
		if err := refWriteText(&ref, recs, ow); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteText differs from the reference:\n got:\n%s\n want:\n%s", first.Bytes(), ref.Bytes())
		}
		recs2, ow2, err := ReadText(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding the written export: %v\n%s", err, first.Bytes())
		}
		if ow2 != ow || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round trip changed the export: overwritten %d → %d\n first %+v\n then  %+v", ow, ow2, recs, recs2)
		}
		if err := WriteText(&second, recs2, ow2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Fatalf("second write differs from the first:\n%s\nvs\n%s", second.Bytes(), first.Bytes())
		}
	})
}
