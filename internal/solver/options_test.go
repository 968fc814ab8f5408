package solver

import "testing"

// TestOptionsLabel pins the corpus-namespace suffixes: the campaign corpus
// keys its explore and summary entries by "bochs" + Label(), so renaming a
// suffix or reordering them would silently orphan existing corpora.
func TestOptionsLabel(t *testing.T) {
	cases := []struct {
		opts Options
		want string
	}{
		{Options{}, ""},
		{Options{NoBatch: true}, "+nobatch"},
		{Options{NoSubsume: true}, "+nosub"},
		{Options{NoReduce: true}, "+noreduce"},
		{Options{NoBatch: true, NoReduce: true}, "+nobatch+noreduce"},
		{Options{NoBatch: true, NoSubsume: true, NoReduce: true}, "+nobatch+nosub+noreduce"},
	}
	for _, c := range cases {
		if got := c.opts.Label(); got != c.want {
			t.Errorf("%+v.Label() = %q, want %q", c.opts, got, c.want)
		}
	}
}
