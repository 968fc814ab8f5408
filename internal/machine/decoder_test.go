package machine

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pokeemu/internal/x86"
)

// randomSnapshot builds a snapshot over image that writes random bytes to
// a random handful of pages, some held by the image and some not.
func randomSnapshot(rng *rand.Rand, image *Memory) *Snapshot {
	pages := []uint32{GDTBase / PageSize, StackBase / PageSize, IDTBase / PageSize,
		CodeBase / PageSize, CodeBase/PageSize + 1, NumPages - 1}
	m := NewMachine(BaselineCPU(), image.Overlay())
	m.GPR[x86.EAX] = rng.Uint32()
	for _, pn := range pages {
		if rng.Intn(2) == 0 {
			continue
		}
		for i := rng.Intn(40); i >= 0; i-- {
			m.Mem.Write8(pn*PageSize+uint32(rng.Intn(PageSize)), byte(rng.Intn(256)))
		}
	}
	var exc *ExceptionInfo
	if rng.Intn(2) == 0 {
		exc = &ExceptionInfo{Vector: x86.ExcGP, ErrCode: rng.Uint32(), HasErr: true}
	}
	return m.Snapshot(exc)
}

// TestDecoderReusesReleasedPages decodes a run of different snapshots on
// one Decoder, releasing each before decoding the next, so later snapshots
// are decoded into pages an earlier one used. Each must equal the
// per-page reference decoder's result, and some page must be reused.
func TestDecoderReusesReleasedPages(t *testing.T) {
	image := BaselineImage()
	dec := NewDecoder(image)
	rng := rand.New(rand.NewSource(5))
	released := make(map[*page]bool)
	reused := 0
	for i := 0; i < 40; i++ {
		var buf bytes.Buffer
		if err := randomSnapshot(rng, image).WriteTo(&buf, image); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		want, err := readSnapshotPerPage(bytes.NewReader(buf.Bytes()), image)
		if err != nil {
			t.Fatal(err)
		}
		if got.CPU != want.CPU || !reflect.DeepEqual(got.Exception, want.Exception) {
			t.Fatalf("snapshot %d: CPU or exception differs from the reference", i)
		}
		pagesEqual(t, got.Mem, want.Mem, image, image)
		for _, p := range got.Mem.pages {
			if released[p] {
				reused++
			}
			released[p] = true
		}
		got.Release()
	}
	if reused == 0 {
		t.Error("no decoded snapshot reused a released page")
	}
}

// TestReleasedSnapshotPanics: reading a released snapshot fails loudly
// instead of reading memory a later decode may own. Release is idempotent,
// and releasing a snapshot that owns its pages pools none of them.
func TestReleasedSnapshotPanics(t *testing.T) {
	image := BaselineImage()
	var buf bytes.Buffer
	if err := pageEdgeSnapshot(image).WriteTo(&buf, image); err != nil {
		t.Fatal(err)
	}
	s, err := NewDecoder(image).Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mem := s.Mem
	s.Release()
	s.Release()
	if s.Mem != nil || len(mem.pages) != 0 {
		t.Fatal("a released snapshot still reaches its pages")
	}
	for name, read := range map[string]func(){
		"Read8":    func() { s.Mem.Read8(CodeBase) },
		"ReadPage": func() { s.Mem.ReadPage(CodeBase / PageSize) },
		"Read":     func() { s.Mem.Read(StackBase, 4) },
		"Root":     func() { s.Mem.Root() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released snapshot did not panic", name)
				}
			}()
			read()
		}()
	}

	owned, err := DecodeSnapshot(buf.Bytes(), image)
	if err != nil {
		t.Fatal(err)
	}
	mem = owned.Mem
	owned.Release()
	if owned.Mem != nil || len(mem.pages) == 0 {
		t.Error("releasing a DecodeSnapshot result touched its own pages")
	}
}

// TestDecoderMatchesDecodeSnapshot: the pooled decoder with precomputed
// base CRCs accepts and rejects exactly what DecodeSnapshot does, including
// a snapshot written against another base image.
func TestDecoderMatchesDecodeSnapshot(t *testing.T) {
	image := BaselineImage()
	dec := NewDecoder(image)
	var good, wrongBase bytes.Buffer
	snap := pageEdgeSnapshot(image)
	if err := snap.WriteTo(&good, image); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteTo(&wrongBase, nil); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"good": good.Bytes(), "wrong base": wrongBase.Bytes(),
		"truncated": good.Bytes()[:good.Len()-1], "empty": nil,
	} {
		s, err := dec.Decode(data)
		_, ref := DecodeSnapshot(data, image)
		if (err == nil) != (ref == nil) {
			t.Errorf("%s: Decode err = %v, DecodeSnapshot err = %v", name, err, ref)
		}
		if err == nil {
			s.Release()
		}
	}
}
