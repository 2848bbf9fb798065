package opt

import (
	"testing"

	"iterskew/internal/netlist"
)

// SetTrialPath forces how Reconnect decides its trials until the returned
// function restores the previous setting: +1 on the launch→capture model,
// −1 with an Update per trial, 0 by the rule.
func SetTrialPath(p int) (restore func()) {
	old := trialPath
	trialPath = p
	return func() { trialPath = old }
}

// BuildGrid is buildGrid for the external tests.
func BuildGrid(t testing.TB, period float64, k, nLCB int) *netlist.Design {
	d, _ := buildGrid(t, period, k, nLCB)
	return d
}
