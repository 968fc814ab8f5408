package machine

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadSnapshot feeds hostile bytes to the snapshot decoder: encoded
// snapshots come from the corpus, which is untrusted input. Decoding must
// never panic, and anything that decodes must re-encode and re-decode to
// the same CPU, exception and page contents.
func FuzzReadSnapshot(f *testing.F) {
	image := BaselineImage()
	var buf bytes.Buffer
	if err := pageEdgeSnapshot(image).WriteTo(&buf, image); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	buf.Reset()
	if err := NewBaseline(image).Snapshot(nil).WriteTo(&buf, image); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PKEM\x02\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadSnapshot(bytes.NewReader(data), image)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := first.WriteTo(&again, image); err != nil {
			t.Fatal(err)
		}
		second, err := ReadSnapshot(&again, image)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if first.CPU != second.CPU {
			t.Fatalf("CPU drifted:\n%+v\n%+v", first.CPU, second.CPU)
		}
		if !reflect.DeepEqual(first.Exception, second.Exception) {
			t.Fatalf("exception drifted: %v vs %v", first.Exception, second.Exception)
		}
		pagesEqual(t, second.Mem, first.Mem, image, image)
	})
}
