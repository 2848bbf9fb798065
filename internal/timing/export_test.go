package timing

import "slices"

// Analysis is a deep copy of a state's mutable analysis values, for the
// external tests' bitwise comparisons.
type Analysis struct {
	AtMin, AtMax, ReqMin, ReqMax []float64
	BaseLat, ExtraLat, DIn       []float64
	ClkIn                        float64
	ClkInOK                      bool
}

// CopyAnalysis returns a deep copy of t's analysis values.
func (t *State) CopyAnalysis() Analysis {
	return Analysis{
		AtMin: slices.Clone(t.atMin), AtMax: slices.Clone(t.atMax),
		ReqMin: slices.Clone(t.reqMin), ReqMax: slices.Clone(t.reqMax),
		BaseLat: slices.Clone(t.baseLat), ExtraLat: slices.Clone(t.extraLat),
		DIn:   slices.Clone(t.dIn),
		ClkIn: t.clkIn, ClkInOK: t.clkInOK,
	}
}
