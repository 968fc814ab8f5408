package machine

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadSnapshot feeds hostile bytes to the snapshot decoder: encoded
// snapshots come from the corpus, which is untrusted input. Decoding must
// never panic, and anything that decodes must re-encode and re-decode to
// the same CPU, exception and page contents. The per-page reference
// decoder and a pooled Decoder (whose pages are recycled from one input to
// the next) must accept exactly the same inputs, with the same result.
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

	dec := NewDecoder(image)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadSnapshot(bytes.NewReader(data), image)
		ref, refErr := readSnapshotPerPage(bytes.NewReader(data), image)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder err = %v, per-page reference err = %v", err, refErr)
		}
		pooled, poolErr := dec.Decode(data)
		if (poolErr == nil) != (refErr == nil) {
			t.Fatalf("pooled decoder err = %v, per-page reference err = %v", poolErr, refErr)
		}
		if err != nil {
			return
		}
		if first.CPU != ref.CPU || !reflect.DeepEqual(first.Exception, ref.Exception) {
			t.Fatalf("decoder and per-page reference disagree on CPU or exception")
		}
		pagesEqual(t, first.Mem, ref.Mem, image, image)
		if pooled.CPU != ref.CPU || !reflect.DeepEqual(pooled.Exception, ref.Exception) {
			t.Fatalf("pooled decoder and per-page reference disagree on CPU or exception")
		}
		pagesEqual(t, pooled.Mem, ref.Mem, image, image)
		pooled.Release()
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
