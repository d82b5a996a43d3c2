package trace

import "testing"

// TestOpCountsSubClampsAcrossReset: OpCounts.Sub computes interval
// deltas of monotonic snapshots and clamps at zero instead of wrapping
// when the older snapshot is larger.
func TestOpCountsSubClampsAcrossReset(t *testing.T) {
	var s, o OpCounts
	s[OpStartRead] = 10
	s[OpStartWrite] = 2
	o[OpStartRead] = 4
	o[OpStartWrite] = 5 // counter reset: older snapshot is larger
	got := s.Sub(o)
	if got[OpStartRead] != 6 {
		t.Errorf("StartRead delta = %d, want 6", got[OpStartRead])
	}
	if got[OpStartWrite] != 0 {
		t.Errorf("StartWrite delta = %d, want 0 (clamped)", got[OpStartWrite])
	}
	if tot := got.Total(); tot != 6 {
		t.Errorf("Total = %d, want 6", tot)
	}
}
