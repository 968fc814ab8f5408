package solver

// Options are the exploration solver's ablation switches. The zero value
// is the production configuration; each switch turns one front-end or
// CDCL-core optimization off. None of them changes a verdict or the
// explored path set, but they move which models the solver returns, so a
// non-zero value selects its own corpus cache namespace through Label.
type Options struct {
	// NoBatch disables the batched front-end (BV.Reuse): every query
	// re-decides its assumptions from level 0.
	NoBatch bool
	// NoSubsume disables the model-subsumption fast path (BV.Subsume).
	NoSubsume bool
	// NoReduce freezes the learned-clause database (BV.NoReduce).
	NoReduce bool
}

// Label is the corpus-namespace suffix for o: "" for the zero value, else
// one "+nobatch", "+nosub", "+noreduce" tag per switch set, in that order.
func (o Options) Label() string {
	l := ""
	if o.NoBatch {
		l += "+nobatch"
	}
	if o.NoSubsume {
		l += "+nosub"
	}
	if o.NoReduce {
		l += "+noreduce"
	}
	return l
}
